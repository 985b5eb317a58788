"""Pure-Python reference implementations the vectorized library code is tested against.

``reference_validate_disk`` is the per-vertex link-walking disk validator,
``reference_drift_audit`` the per-edge ``Fraction`` drift audit and
``reference_separation_lower_bounds`` the per-cell ``Fraction`` lower-bound
table that :func:`ringfill.validate_disk`, :func:`ringfill.drift_audit` and
:func:`ringfill.separation_lower_bounds` replaced.
``skeleton_graph`` and ``bfs_distances`` give adjacency lists and
breadth-first distances, against which the compiled boundary BFS is
checked, and ``reference_is_isometric`` the per-source isometry test the
oracle's batched one replaced.
``phases`` derives each ledger cycle's phase from the annuli outward of
it, ``theta`` one vertex's exact circular coordinate from its cycle's
phase and ``circ_dist`` the exact circular distance, the per-vertex
``Fraction`` arithmetic the ledger-based code avoids.
``interior_canonical_code`` identifies fillings that differ only in their
interior labels; the tests use it to show that the oracle emits no complex
twice.  ``reference_grow`` is the oracle's recursive generator of fillings,
rebuilding tuples and edge sets at every step, that pins the order of the
backtracking enumerator.
All of these are deliberately naive: dicts, sets, breadth-first search
and exact rationals, with no numpy.

At the end are the numpy bodies that the compiled kernels of
``_kernels.c`` replaced: the int64-key ``edge_table``, ``min_labels``
propagation with pointer jumping, the corner-graph ``link_components``
and the sorted-key ``graph_csr``, with ``link_counts`` and ``components``,
the link and connectivity counts of ``check_disk``; the validator itself
(``check_disk``, its int64-key ``repeats``), the stacked
``annulus_triangles`` and ``cone_triangles``, the blocked float ratio scan
``worst_pair``, the vectorized ``separation_table`` and the chunked
``check_bound`` that ``verify --check-bound`` ran; the build-file writer's
``%``-template ``write_rows``, the block reader's ``json.loads`` slice
reader ``int32_rows`` and the numpy ``drift_audit`` of the whole edge
table, against which ``assert_certificate`` checks ``certify``'s verdict,
report and drift rows.  Last, ``build_file_v2`` writes a build file as version 2 did, so that the tests
can show such files refused.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from collections.abc import Iterator
from fractions import Fraction
from itertools import permutations

import numpy as np

from ringfill import EnumerationBudget, ValidationReport, canonical_triangle, cycle_dist


def phases(ledger) -> list[Fraction]:
    """Each ledger cycle's phase: 0 on the boundary, plus n/(2m) mod n after each equal-length annulus."""
    n, out = ledger[0].length, [Fraction(0)]
    for rec in ledger[:-1]:
        step = 0 if rec.annulus_kind == "shrink" else Fraction(n, 2 * rec.length)
        out.append((out[-1] + step) % n)
    return out


def theta(phase: Fraction, rec, i: int, n: int) -> Fraction:
    """Circular coordinate ``(phase + n*i/m) mod n`` of vertex ``i`` of the ledger cycle ``rec``."""
    num, den, m = phase.numerator, phase.denominator, rec.length
    return Fraction((num * m + n * (i % m) * den) % (n * den * m), den * m)


def circ_dist(a: Fraction | int, b: Fraction | int, n: int) -> Fraction:
    """Shorter distance between ``a`` and ``b`` on the circle of circumference ``n``.

    Exact: returns ``min(d, n - d)`` with ``d = (a - b) mod n`` as a Fraction.
    """
    d = (Fraction(a) - Fraction(b)) % n
    return min(d, n - d)


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def edge_incidence(triangles: list[tuple[int, int, int]]) -> Counter:
    inc: Counter[tuple[int, int]] = Counter()
    for a, b, c in triangles:
        inc[_edge(a, b)] += 1
        inc[_edge(b, c)] += 1
        inc[_edge(c, a)] += 1
    return inc


def reference_validate_disk(t) -> ValidationReport:
    """Same invariants and counts as :func:`ringfill.validate_disk`, one vertex at a time."""
    rep = ValidationReport()
    triangles = [tuple(tri) for tri in t.triangles.tolist()]
    if not triangles:
        rep.failures.append("complex has no triangles")
        return rep

    nv = t.num_vertices
    seen: set[tuple[int, int, int]] = set()
    for tri in triangles:
        a, b, c = tri
        if len({a, b, c}) < 3:
            rep.failures.append(f"degenerate triangle {tri}")
            continue
        if not (0 <= a < nv and 0 <= b < nv and 0 <= c < nv):
            rep.failures.append(f"triangle {tri} references a vertex id outside 0..{nv - 1}")
            continue
        if tri in seen:
            rep.failures.append(f"repeated triangle {tri}")
        seen.add(tri)

    inc = edge_incidence(triangles)
    for e, k in sorted(inc.items()):
        if k not in (1, 2):
            rep.failures.append(f"edge {e} lies in {k} triangles (expected 1 or 2)")

    boundary = {e for e, k in inc.items() if k == 1}
    expected = {_edge(i, (i + 1) % t.n) for i in range(t.n)}
    if boundary != expected:
        missing = sorted(expected - boundary)
        extra = sorted(boundary - expected)
        if missing:
            rep.failures.append(f"cycle edges missing from the boundary: {missing[:10]}")
        if extra:
            rep.failures.append(f"unexpected boundary edges: {extra[:10]}")

    ne = len(inc)
    nf = len(triangles)
    rep.counts = {
        "vertices": nv,
        "edges": ne,
        "triangles": nf,
        "boundary_edges": len(boundary),
        "interior_edges": ne - len(boundary),
    }
    if nv - ne + nf != 1:
        rep.failures.append(f"Euler formula violated: V - E + F = {nv} - {ne} + {nf} = {nv - ne + nf}, expected 1")

    link: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for a, b, c in triangles:
        if len({a, b, c}) < 3:
            continue
        link[a].append((b, c))
        link[b].append((a, c))
        link[c].append((a, b))
    boundary_vertices = {v for e in boundary for v in e}
    for v in range(nv):
        pairs = link.get(v)
        if not pairs:
            rep.failures.append(f"vertex {v} lies in no triangle")
            continue
        shape = _link_shape(pairs)
        want = "path" if v in boundary_vertices else "cycle"
        if shape != want:
            rep.failures.append(f"link of vertex {v} is {shape}, expected a {want}")

    # components of the vertices of the valid triangles, by breadth-first search
    adj: dict[int, set[int]] = defaultdict(set)
    for a, b, c in triangles:
        if len({a, b, c}) == 3 and max(a, b, c) < nv:
            adj[a] |= {b, c}
            adj[b] |= {a, c}
            adj[c] |= {a, b}
    unseen, components = set(adj), 0
    while unseen:
        components += 1
        queue = deque([unseen.pop()])
        while queue:
            for w in adj[queue.popleft()] & unseen:
                unseen.discard(w)
                queue.append(w)
    if components > 1:
        rep.failures.append(f"complex is disconnected: {components} components")
    return rep


def _link_shape(pairs: list[tuple[int, int]]) -> str:
    """Classify the link multigraph given by opposite edges: path, cycle, or why not."""
    deg: Counter[int] = Counter()
    mult: Counter[tuple[int, int]] = Counter()
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
        mult[_edge(u, v)] += 1
        adj[u].append(v)
        adj[v].append(u)
    if any(k > 1 for k in mult.values()):
        return "a multigraph (repeated link edge)"
    nodes = list(deg)
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != len(nodes):
        return "disconnected"
    n_edges = len(pairs)
    degrees = sorted(deg.values())
    if n_edges == len(nodes) and all(d == 2 for d in degrees):
        return "cycle"
    if n_edges == len(nodes) - 1 and degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:]):
        return "path"
    return f"neither path nor cycle (degree multiset {degrees})"


def reference_drift_audit(build) -> list[Fraction]:
    """Largest circular displacement per annulus, from per-vertex ``Fraction`` thetas.

    Each vertex's layer is the index of its ledger cycle and its theta is
    :func:`theta`, one vertex at a time.  Charges each cross-layer
    non-apex edge to its shallower layer, as :func:`ringfill.drift_audit`
    does; returns ``max_observed`` per annulus.
    """
    t = build.triangulation
    layer_of = [rec.index for rec in build.ledger for _ in range(rec.length)] + [len(build.ledger)]
    theta_of = [
        theta(phase, rec, i, t.n) for rec, phase in zip(build.ledger, phases(build.ledger)) for i in range(rec.length)
    ] + [None]
    max_obs = [Fraction(0)] * (len(build.ledger) - 1)
    for u, v in edge_incidence([tuple(tri) for tri in t.triangles.tolist()]):
        if build.apex in (u, v) or layer_of[u] == layer_of[v]:
            continue
        r = min(layer_of[u], layer_of[v])
        max_obs[r] = max(max_obs[r], circ_dist(theta_of[u], theta_of[v], t.n))
    return max_obs



def reference_separation_lower_bounds(build) -> list[int]:
    """:func:`ringfill.separation_lower_bounds` cell by cell, one ``Fraction`` per (separation, layer).

    Entry L is the minimum over layers h of 2h plus the ceiling of
    ``m_h (L - D_h) / n`` where that is positive, capped by the cone term;
    layers with ``2h`` at or above the running minimum are skipped.
    """
    ledger = build.ledger
    n = build.params.n
    depth = len(ledger) - 1
    drift = [Fraction(0)] * (depth + 1)
    for r in range(depth):
        drift[r + 1] = drift[r] + 2 * ledger[r].drift_bound
    lengths = [rec.length for rec in ledger]
    sched = build.schedule
    cone_bound = 2 * sched.collar_layers + 2 * sched.num_blocks * sched.layers_per_block

    table: list[int] = []
    for sep in range(n // 2 + 1):
        best = cone_bound
        for h in range(depth + 1):
            if 2 * h >= best:
                break  # deeper layers only cost more
            slack = sep - drift[h]
            if slack > 0:
                val = 2 * h + math.ceil(Fraction(lengths[h] * slack.numerator, n * slack.denominator))
            else:
                val = 2 * h
            if val < best:
                best = val
        table.append(best)
    return table

def interior_canonical_code(
    triangles: tuple[tuple[int, int, int], ...], n: int, num_interior: int
) -> tuple[tuple[int, int, int], ...]:
    """Canonical form of a filling under relabelings of its interior vertices.

    Boundary ids 0..n-1 are fixed; the code is the lexicographic minimum of
    the sorted triangle list over all permutations of the interior ids.  With
    at most four interior vertices the 24 permutations are cheaper than any
    cleverness.
    """
    if num_interior <= 1:
        return tuple(sorted(triangles))
    interior = range(n, n + num_interior)
    best = None
    for perm in permutations(interior):
        relabel = {old: new for old, new in zip(interior, perm)}
        mapped = tuple(
            sorted(
                canonical_triangle(relabel.get(a, a), relabel.get(b, b), relabel.get(c, c))
                for a, b, c in triangles
            )
        )
        if best is None or mapped < best:
            best = mapped
    return best


def reference_grow(
    regions: tuple[tuple[int, ...], ...],
    triangles: tuple[tuple[int, int, int], ...],
    edges: frozenset[tuple[int, int]],
    interior_used: int,
    budget: EnumerationBudget,
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Fill open regions depth-first, one triangle per step.

    Each step attaches the unique triangle of the final complex that sits on
    the first edge of the first open region, branching over its possible
    apexes: a fresh interior vertex, or another vertex of the same region.
    Chords that would duplicate an existing edge pair are rejected; they
    would pinch the disk.  Only complexes with exactly ``budget.interior``
    interior vertices are yielded.

    Labels are canonical: in a given complex, the triangle on the first edge
    of the first open region fixes the branch, and fresh ids are handed out
    in that order, so every complex (up to relabeling its interior) is
    produced along exactly one branch with one labeling.
    """
    if not regions:
        if interior_used == budget.interior:
            yield triangles
        return
    region, rest = regions[0], regions[1:]
    k = len(region)
    r0, r1 = region[0], region[1]

    if interior_used < budget.interior:
        fresh = budget.n + interior_used
        yield from reference_grow(
            ((r0, fresh, r1) + region[2:],) + rest,
            triangles + (canonical_triangle(r0, r1, fresh),),
            edges | {_edge(r0, fresh), _edge(r1, fresh)},
            interior_used + 1,
            budget,
        )

    for j in range(2, k):
        apex = region[j]
        new_edges = []
        if j > 2:
            chord = _edge(r1, apex)
            if chord in edges:
                continue
            new_edges.append(chord)
        if j < k - 1:
            chord = _edge(apex, r0)
            if chord in edges:
                continue
            new_edges.append(chord)
        left = region[1 : j + 1]
        right = region[j:] + (region[0],)
        subregions = tuple(r for r in (left, right) if len(r) > 2)
        yield from reference_grow(
            subregions + rest,
            triangles + (canonical_triangle(r0, r1, apex),),
            edges | frozenset(new_edges),
            interior_used,
            budget,
        )


def skeleton_graph(t) -> list[list[int]]:
    """Adjacency lists of the 1-skeleton, neighbors sorted ascending.

    Edges come sorted as ``(lo, hi)`` pairs, so each list receives its
    smaller neighbors in order before its larger ones.
    """
    adj: list[list[int]] = [[] for _ in range(t.num_vertices)]
    for u, v in t.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distances(adj: list[list[int]], source: int) -> list[int]:
    """Unweighted shortest-path distances from ``source`` to every vertex.

    Raises ValueError if some vertex is unreachable: a triangulated disk is
    connected, so a gap means the complex is structurally broken.
    """
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    if min(dist) < 0:
        missing = dist.index(-1)
        raise ValueError(f"vertex {missing} unreachable from {source}: complex is disconnected")
    return dist


def reference_is_isometric(t) -> bool:
    """True iff no boundary pair gets closer through the complex than along the cycle."""
    adj = skeleton_graph(t)
    for src in range(t.n):
        dist = bfs_distances(adj, src)
        if any(dist[dst] < cycle_dist(src, dst, t.n) for dst in range(t.n)):
            return False
    return True



# The numpy bodies the compiled kernels replaced, for the differential tests.
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


def edge_table(tri):
    """Edges, incidence and per-slot edge ids of canonical triangles, from one stable int64-key argsort.

    Slot ``(f, j)`` is the edge from corner j to corner j+1 of triangle f;
    its key ``lo * 2**32 + hi`` orders edges as ``(lo, hi)`` pairs do.
    """
    tri = np.asarray(tri)
    a = tri.ravel()
    b = np.take(tri, _NEXT, axis=1).ravel()
    keys = np.minimum(a, b).astype(np.int64)
    keys <<= 32
    keys |= np.maximum(a, b)
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    new = np.empty(len(ranked), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    unique = ranked[new]
    edges = np.empty((len(unique), 2), dtype=np.int32)
    edges[:, 0] = unique >> 32
    edges[:, 1] = unique & 0xFFFFFFFF
    ids = np.cumsum(new, dtype=np.int32)
    ids -= 1
    slot_edge = np.empty(len(ids), dtype=np.int32)
    slot_edge[order] = ids
    return edges, np.bincount(ids).astype(np.int32), slot_edge.reshape(-1, 3)


def min_labels(size, a, b):
    """Label each of ``size`` nodes with the smallest node of its component; node ``a[i]`` is joined to ``b[i]``.

    Min-label propagation: each round hooks every larger root onto the
    smaller one, then jumps every node to its root.
    """
    label = np.arange(size, dtype=a.dtype)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    while not (lo == hi).all():
        np.minimum.at(label, hi, lo)
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
        hi, other = label[a], label[b]
        lo = np.minimum(hi, other)
        np.maximum(hi, other, out=hi)
    return label


def link_joins(tri, slot):
    """The corner graph's joins ``(a, b)``: node ``2e + d`` is edge e directed away from ``edges[e, d]``.

    Corner j of a triangle joins the directed edges leaving it along slot j
    and along slot j-1.
    """
    tri, slot = np.asarray(tri), np.asarray(slot)
    out = 2 * slot
    out += tri > np.take(tri, _NEXT, axis=1)  # slot j directed away from corner j
    b = np.take(out, _PREV, axis=1).ravel()
    b ^= 1  # slot j-1 directed away from corner j
    return out.ravel(), b


def link_components(edges, tri, slot):
    """The vertex whose link each component of the corner graph belongs to."""
    a, b = link_joins(tri, slot)
    label = min_labels(2 * len(edges), a, b)
    root = np.zeros(len(label), dtype=bool)
    root[a] = True
    root[b] = True
    root &= label == np.arange(len(label), dtype=label.dtype)
    return edges.ravel()[root]


def link_counts(edges, tri, slot, size):
    """The number of link components of each of ``size`` vertices, by way of :func:`link_components`."""
    return np.bincount(link_components(np.asarray(edges), tri, slot), minlength=size).astype(np.int32)


def components(tri, size):
    """The number of connected components of the covered vertices, by :func:`min_labels` over the triangles' sides."""
    tri = np.asarray(tri)
    label = min_labels(size, tri.ravel(), np.take(tri, _NEXT, axis=1).ravel())
    covered = np.zeros(size, dtype=bool)
    covered[tri] = True
    return int((covered & (label == np.arange(size, dtype=label.dtype))).sum())


def graph_csr(t):
    """The symmetric 1-skeleton as int32 CSR, from int64 keys ``vertex * V + neighbour`` sorted."""
    v = t.num_vertices
    edges = np.asarray(t.edges)
    keys = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int64)
    indptr = np.zeros(v + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(keys, minlength=v))
    keys *= v
    keys += np.concatenate([edges[:, 1], edges[:, 0]])
    keys.sort()
    keys %= v
    return indptr, keys.astype(np.int32)


def annulus_triangles(outer, inner):
    """``ringfill.annulus_triangles`` as numpy stacks: the rows of one annulus, int32."""
    m = outer.length
    i = np.arange(m, dtype=np.int32)
    u0, u1 = outer.vertex(i), outer.vertex(i + 1)
    if outer.annulus_kind != "shrink":
        v0, v1 = inner.vertex(i), inner.vertex(i + 1)
        pair = np.stack([np.column_stack([u0, u1, v0]), np.column_stack([u1, v0, v1])], axis=1)
        return pair.reshape(2 * m, 3)
    steps = np.array([(inner.length * k) // m for k in range(m + 1)], dtype=np.int32)
    w0, w1 = inner.vertex(steps[:-1]), inner.vertex(steps[1:])
    pair = np.stack([np.column_stack([u0, u1, w1]), np.column_stack([u0, w0, w1])], axis=1)
    return pair[np.column_stack([np.ones(m, dtype=bool), steps[1:] > steps[:-1]])]


def cone_triangles(innermost):
    """``ringfill.cone_triangles`` as numpy columns."""
    i = np.arange(innermost.length, dtype=np.int32)
    apex = innermost.first_vertex + innermost.length
    return np.column_stack([np.full_like(i, apex), innermost.vertex(i), innermost.vertex(i + 1)])


def rotated(tri):
    """The rows of ``tri`` as int32, each rotated so its first smallest id comes first, by numpy masks."""
    tri = np.array(tri, dtype=np.int32).reshape(-1, 3)
    a, b, c = tri.T
    second, third = (b < a) & (b <= c), (c < a) & (c < b)
    for at, turn in ((second, _NEXT), (third, _PREV)):
        rows = np.flatnonzero(at)
        tri[rows] = tri[rows][:, turn]
    return tri


def _tuples(rows):
    return [tuple(r) for r in rows.tolist()]


def _report(failures, lines, what):
    failures.extend(lines[:10])
    if len(lines) > 10:
        failures.append(f"... and {len(lines) - 10} more {what}")


def repeats(keys, every=False):
    """Positions of keys seen earlier in ``keys`` (all members of repeated keys if ``every``)."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    same = ranked[1:] == ranked[:-1]
    later = np.zeros(len(keys), dtype=bool)
    later[1:] = same
    if every:
        later[:-1] |= same
    return np.sort(order[later])


def check_disk(t) -> ValidationReport:
    """``ringfill.validate_disk`` as the numpy body it had: int64 keys, two sorts and the reference hooks above."""
    rep = ValidationReport()
    n, nv, tri = t.n, t.num_vertices, np.asarray(t.triangles)
    if not len(tri):
        rep.failures.append("complex has no triangles")
        return rep
    nf = len(tri)
    edges, inc, slot = edge_table(tri)
    ne = len(edges)
    degenerate = (tri[:, 0] == tri[:, 1]) | (tri[:, 0] == tri[:, 2]) | (tri[:, 1] == tri[:, 2])
    outside = np.maximum(tri[:, 1], tri[:, 2]) >= nv
    good = ~(degenerate | outside)
    if not good.all():
        _report(rep.failures, [f"degenerate triangle {x}" for x in _tuples(tri[degenerate])], "degenerate triangles")
        stray = _tuples(tri[outside & ~degenerate])
        _report(
            rep.failures,
            [f"triangle {x} references a vertex id outside 0..{nv - 1}" for x in stray],
            "triangles with out-of-range ids",
        )
        tri, slot = tri[good], slot[good]
    pairs = np.sort(slot, axis=1)
    unoriented = pairs[:, 0].astype(np.int64) * ne + pairs[:, 1]
    multi = np.zeros(nv, dtype=bool)
    ranked = np.sort(unoriented)
    if (ranked[1:] == ranked[:-1]).any():
        oriented = slot[:, 0].astype(np.int64) * ne + slot[:, 1]
        repeated = _tuples(tri[repeats(oriented)])
        _report(rep.failures, [f"repeated triangle {x}" for x in repeated], "repeated triangles")
        multi[tri[repeats(unoriented, every=True)]] = True
    overfull = np.flatnonzero(inc > 2)
    _report(
        rep.failures,
        [
            f"edge {e} lies in {k} triangles (expected 1 or 2)"
            for e, k in zip(_tuples(edges[overfull]), inc[overfull].tolist())
        ],
        "edges with bad incidence",
    )
    boundary = edges[inc == 1]
    lo, hi = boundary.T
    on_cycle = (hi < n) & ((hi == lo + 1) | ((lo == 0) & (hi == n - 1)))
    if len(boundary) != n or not on_cycle.all():
        have = set(_tuples(boundary))
        need = {(0, n - 1)} | {(i, i + 1) for i in range(n - 1)}
        if need - have:
            rep.failures.append(f"cycle edges missing from the boundary: {sorted(need - have)[:10]}")
        if have - need:
            rep.failures.append(f"unexpected boundary edges: {sorted(have - need)[:10]}")
    euler = nv - ne + nf
    rep.counts = {
        "vertices": nv,
        "edges": ne,
        "triangles": nf,
        "boundary_edges": len(boundary),
        "interior_edges": ne - len(boundary),
    }
    if euler != 1:
        rep.failures.append(f"Euler formula violated: V - E + F = {nv} - {ne} + {nf} = {euler}, expected 1")
    covered = np.zeros(nv, dtype=bool)
    covered[tri] = True
    uncovered = np.flatnonzero(~covered).tolist()
    _report(rep.failures, [f"vertex {v} lies in no triangle" for v in uncovered], "uncovered vertices")
    links = link_counts(edges, tri, slot, nv)
    if multi.any() or (links > 1).any():
        on_boundary = set(boundary.ravel().tolist())

        def link_lines(vs, shape):
            return [
                f"link of vertex {v} is {shape}, expected a {'path' if v in on_boundary else 'cycle'}"
                for v in np.flatnonzero(vs).tolist()
            ]

        _report(rep.failures, link_lines(multi, "a multigraph (repeated link edge)"), "vertices with a multigraph link")
        _report(rep.failures, link_lines((links > 1) & ~multi, "disconnected"), "vertices with a disconnected link")
    count = components(tri, nv)
    if count > 1:
        rep.failures.append(f"complex is disconnected: {count} components")
    return rep


def worst_pair(dist, n, block=1 << 14):
    """The first exact minimum of ``dist / d_cyc`` in row-major order, by float ratios a block of rows at a time.

    Raises ValueError, as ``verify_filling`` does, on the first pair whose
    distance exceeds its cycle distance.
    """
    dist = np.asarray(dist)
    idx = np.arange(n)
    rows = max(1, block // n)
    best, x, y = np.inf, 0, 0
    for top in range(0, n, rows):
        d = dist[top : top + rows]
        gap = np.abs(idx[top : top + rows, None] - idx)
        dcyc = np.minimum(gap, n - gap)
        if (d > dcyc).any():
            r, c = map(int, np.argwhere(d > dcyc)[0])
            raise ValueError(
                f"graph distance {d[r, c]} exceeds cycle distance {dcyc[r, c]} "
                f"for pair ({top + r}, {c}): boundary cycle edges are missing"
            )
        ratios = np.where(dcyc > 0, d / np.maximum(dcyc, 1), np.inf)
        r, c = divmod(int(np.argmin(ratios)), n)
        if ratios[r, c] < best:
            best, x, y = ratios[r, c], top + r, c
    return x, y


def separation_table(build):
    """``ringfill.separation_lower_bounds`` by numpy rows, one per layer."""
    from itertools import accumulate

    n = build.params.n
    sched = build.schedule
    cone_bound = 2 * sched.collar_layers + 2 * sched.num_blocks * sched.layers_per_block
    s = np.arange(n // 2 + 1, dtype=np.int64)
    table = np.full_like(s, cone_bound)
    drifts = accumulate((2 * rec.drift_bound for rec in build.ledger[:-1]), initial=Fraction(0))
    for h, (rec, drift) in enumerate(zip(build.ledger, drifts)):
        w, m = math.floor(drift), rec.length
        row = np.full_like(s, 2 * h)
        row[w + 1 :] -= (math.floor(m * (drift - w)) - m * (s[w + 1 :] - w)) // n
        np.minimum(table, row, out=table)
    return table.tolist()


def check_bound(build, dist, count, seed, pairs=1 << 16):
    """``verify --check-bound``'s check as it was vectorised: ``pairs`` draws at a time, violations in draw order."""
    import random

    import ringfill.verify as verify

    dist = np.asarray(dist)
    n = len(dist)
    table = np.array(verify.separation_lower_bounds(build))
    draw = random.Random(seed).randrange
    violations = 0
    for done in range(0, count, pairs):
        a, b = np.array([draw(n) for _ in range(2 * min(pairs, count - done))]).reshape(-1, 2).T
        gap = abs(a - b)
        bound, got = table[np.minimum(gap, n - gap)], dist[a, b]
        for i in np.flatnonzero(bound > got):
            print(f"lower bound {bound[i]} exceeds distance {got[i]} for ({a[i]}, {b[i]})")
            violations += 1
    return violations


def write_rows(write, rows, chunk_rows=1024):
    """``serialize.dump_json``'s writer of a non-empty 2-d int array, as it was: one ``%`` template per chunk."""
    from itertools import chain

    rows = np.asarray(rows)
    outer, inner = "\n    ", "\n      "
    row = "[" + ",".join([inner + "%d"] * rows.shape[1]) + outer + "]"
    sep = "," + outer
    write("[")
    for start in range(0, len(rows), chunk_rows):
        chunk = rows[start : start + chunk_rows].tolist()
        write((sep if start else outer) + sep.join([row] * len(chunk)) % tuple(chain.from_iterable(chunk)))
    write("\n  ]")


def int32_rows(text):
    """The block reader's rows ``[a, b, c], ...`` of ``text`` as it read them: ``json.loads`` and ``np.asarray``.

    Raises ValueError for rows of another shape, a boolean, float or other
    non-integer id, or an id beyond int32.
    """
    import json

    rows = json.loads("[" + text + "]")
    tri = np.asarray(rows)
    if not (tri.ndim == 2 and tri.shape[1] == 3 and tri.dtype.kind == "i"):
        raise ValueError("irregular")
    if tri.min() < np.iinfo(np.int32).min or tri.max() > np.iinfo(np.int32).max:
        raise ValueError("irregular")
    if any(bool in map(type, rows[i]) for i in np.flatnonzero((tri <= 1).any(axis=1)).tolist()):
        raise ValueError("irregular")
    return tri.astype(np.int32)


def drift_audit(build):
    """``ringfill.drift_audit``'s rows and stray-edge lines as its numpy body computed them, a cycle at a time.

    Returns ``(max_observed per annulus, stray-edge lines)``.
    """
    from bisect import bisect_left

    t = build.triangulation
    n = t.n
    ledger = build.ledger
    depth = len(ledger)
    first = np.array([rec.first_vertex for rec in ledger] + [build.apex], dtype=np.int64)
    lengths = [rec.length for rec in ledger] + [1]
    edges = np.asarray(t.edges)

    def misplaced(r, s):
        if r == s:
            return f"is a chord of cycle {r}"
        if s == depth:
            return f"joins the apex to cycle {r}, not to the innermost cycle {s - 1}"
        return f"joins cycle {r} to cycle {s}, which are not adjacent"

    lines, phase = [], phases(ledger)
    max_obs = [Fraction(0)] * (depth - 1)
    cuts = [bisect_left(edges[:, 0], v) for v in first.tolist()] + [len(edges)]
    for r, (start, stop) in enumerate(zip(cuts, cuts[1:])):
        lo, hi = edges[start:stop].T.astype(np.int64)
        layer = np.searchsorted(first, hi, side="right") - 1
        i, j = lo - first[r], hi - first[layer]
        chord = layer == r
        cycle_edge = chord & ((j - i == 1) | (j - i == lengths[r] - 1))
        stray = ~cycle_edge & (layer != r + 1)
        for u, v, s in zip(lo[stray].tolist(), hi[stray].tolist(), layer[stray].tolist()):
            lines.append(f"edge ({u}, {v}) {misplaced(r, s)}")
        cross = ~chord & (layer < depth)
        for s in (r + np.flatnonzero(np.bincount(layer[cross] - r))).tolist():
            m, M = lengths[r], lengths[s]
            offset = (phase[r] - phase[s]) % n
            den = offset.denominator
            scale = den * m * M
            if 2 * n * scale >= 2**63:
                raise ValueError(
                    f"drift audit of cycles {r} and {s} needs positions in units of 1/{scale}: "
                    "exceeds int64 arithmetic"
                )
            pair = cross & (layer == s)
            period = n * scale
            d = (offset.numerator * m * M + n * den * M * i[pair] - n * den * m * j[pair]) % period
            worst = int(np.minimum(d, period - d).max())
            max_obs[r] = max(max_obs[r], Fraction(worst, scale))
    return max_obs, lines


def assert_certificate(cert, build) -> None:
    """Assert that ``cert``, ``ringfill.certify(build)``, says what the whole complex says.

    Its verdict is ``ok`` exactly when :func:`ringfill.validate_disk` passes
    and :func:`drift_audit` finds no stray edge and no annulus over its
    drift bound; its report is ``validate_disk``'s, failures, witnesses and
    counts; and, when ``ok``, its rows are :func:`drift_audit`'s drifts.
    """
    from ringfill import validate_disk

    rows, lines = drift_audit(build)
    report = validate_disk(build.triangulation)
    ok = report.ok and not lines and all(obs <= rec.drift_bound for obs, rec in zip(rows, build.ledger))
    assert (cert.ok, cert.report) == (ok, report)
    if ok:
        assert [row.max_observed for row in cert.audit.rows] == rows


def _pair(x):
    return [x.numerator, x.denominator]


def build_file_v2(build):
    """The version 2 build file ``build --out`` wrote: the params restated as schedule, apex, counts and ledger.

    Without its ``version`` field and with vertex records added it is a
    version 1 file.
    """
    s = build.schedule
    ledger = [
        {
            "index": rec.index,
            "length": rec.length,
            "phase_num": phase.numerator,
            "phase_den": phase.denominator,
            "first_vertex": rec.first_vertex,
            "annulus_kind": rec.annulus_kind,
            "drift_num": None if rec.drift_bound is None else rec.drift_bound.numerator,
            "drift_den": None if rec.drift_bound is None else rec.drift_bound.denominator,
        }
        for rec, phase in zip(build.ledger, phases(build.ledger))
    ]
    return {
        "version": 2,
        "n": build.params.n,
        "params": {"n": build.params.n, "rho": _pair(build.params.rho), "eta": _pair(build.params.eta)},
        "schedule": {
            "collar_layers": s.collar_layers,
            "num_blocks": s.num_blocks,
            "layers_per_block": s.layers_per_block,
            "stop_time": _pair(s.stop_time),
            "block_width": _pair(s.block_width),
            "block_times": [_pair(t) for t in s.block_times],
            "block_lengths": list(s.block_lengths),
        },
        "apex": build.apex,
        "predicted_vertex_count": s.predicted_vertex_count,
        "predicted_triangle_count": s.predicted_triangle_count,
        "ledger": ledger,
        "triangles": build.triangulation.triangles,
    }
