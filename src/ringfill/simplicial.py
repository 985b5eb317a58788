"""Abstract triangulations of a disk whose boundary is a labeled cycle.

The boundary cycle on ``n`` vertices always occupies vertex ids ``0..n-1``
in cyclic order, so the cycle distance between two boundary vertices can be
read off their ids as ``min(|i-j|, n-|i-j|)``.  Interior vertices follow in
contiguous blocks, one block per concentric layer.

Triangles are one ``(F, 3)`` int32 array; edges, incidence and every
validation check are derived from it with vectorized numpy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Triangulation",
    "ValidationReport",
    "canonical_triangle",
    "validate_disk",
    "skeleton_graph",
    "cone_over_cycle",
]

_MAX_ID = np.iinfo(np.int32).max
_NEXT = [1, 2, 0]  # corner j+1 for corner j
_PREV = [2, 0, 1]  # corner j-1 for corner j
_ROTATIONS = np.array([[0, 1, 2], _NEXT, _PREV])  # row k starts a triangle at corner k


def canonical_triangle(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Rotate a triangle so its smallest vertex id comes first.

    Cyclic orientation is preserved: ``(5, 2, 7)`` and ``(7, 5, 2)`` both map
    to ``(2, 7, 5)``, while the reflection ``(2, 5, 7)`` stays distinct.
    """
    if a <= b:
        return (a, b, c) if a <= c else (c, a, b)
    return (b, c, a) if b <= c else (c, a, b)


@dataclass(eq=False)
class Triangulation:
    """Immutable-by-convention abstract 2-complex on vertex ids ``0..num_vertices-1``.

    No per-vertex object is kept; a built filling's positions live in its
    layer ledger.  ``triangles`` may be given as any ``(F, 3)`` array-like of
    non-negative integer ids; it is stored as an int32 array in canonical
    rotation (each row rotated so its smallest id comes first, as
    :func:`canonical_triangle` does).  Edges and incidence are derived lazily from one sort and cached,
    so instances are cheap to pass around and safe to share read-only between
    workers.
    """

    n: int
    num_vertices: int
    triangles: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"boundary length must be >= 3, got {self.n}")
        tri = np.asarray(self.triangles)
        if tri.size == 0:
            tri = tri.reshape(0, 3).astype(np.int32)
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise ValueError(f"triangles must be an (F, 3) array of vertex ids, got shape {tri.shape}")
        if tri.dtype.kind not in "iu":
            raise ValueError(f"triangle vertex ids must be integers, got {tri.dtype}")
        # Negative ids would silently wrap when used as numpy indices.
        if len(tri) and (tri.min() < 0 or tri.max() > _MAX_ID):
            raise ValueError(f"triangle vertex ids must lie in 0..{_MAX_ID}")
        tri = tri.astype(np.int32, copy=False)
        self.triangles = tri[np.arange(len(tri))[:, None], _ROTATIONS[tri.argmin(axis=1)]]

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges, incidence and per-slot edge ids from one stable sort.

        Slot ``(f, j)`` is the edge from corner j to corner j+1 of triangle f.
        Its key ``lo * 2**32 + hi`` orders edges as ``(lo, hi)`` pairs do.
        """
        tri = self.triangles
        a = tri.astype(np.int64).ravel()
        b = tri[:, _NEXT].ravel()
        keys = np.minimum(a, b) << 32 | np.maximum(a, b)
        order = keys.argsort(kind="stable")
        ranked = keys[order]
        new = np.empty(len(ranked), dtype=bool)
        new[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        ids = np.cumsum(new) - 1
        unique = ranked[new]
        edges = np.empty((len(unique), 2), dtype=np.int32)
        edges[:, 0] = unique >> 32
        edges[:, 1] = unique & 0xFFFFFFFF
        slot_edge = np.empty_like(ids)
        slot_edge[order] = ids
        return edges, np.bincount(ids), slot_edge.reshape(-1, 3)

    @property
    def edges(self) -> np.ndarray:
        """Undirected edges ``(u, v)`` with ``u <= v`` as an ``(E, 2)`` int32 array, ascending."""
        return self._edge_table[0]

    @property
    def incidence(self) -> np.ndarray:
        """Number of triangle slots on each edge of :attr:`edges`."""
        return self._edge_table[1]

    @property
    def slot_edges(self) -> np.ndarray:
        """``(F, 3)`` edge ids: column j is the edge from corner j to corner j+1."""
        return self._edge_table[2]

    @property
    def boundary_edges(self) -> np.ndarray:
        """The incidence-1 edges, ascending."""
        return self.edges[self.incidence == 1]

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass
class ValidationReport:
    """Total validation result: every violated invariant with a witness."""

    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


_LISTED = 10  # witnesses listed per kind of failure


def _report(rep: ValidationReport, lines: list[str], what: str) -> None:
    rep.failures.extend(lines[:_LISTED])
    if len(lines) > _LISTED:
        rep.failures.append(f"... and {len(lines) - _LISTED} more {what}")


def _tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(r) for r in rows.tolist()]


def validate_disk(t: Triangulation) -> ValidationReport:
    """Check that ``t`` is a triangulated disk with boundary exactly C_n.

    Runs every structural invariant in vectorized numpy and reports all
    failures at once instead of stopping at the first, so a broken complex
    can be diagnosed in one pass (up to ten witnesses per kind of failure):

    * no degenerate or repeated triangle, all vertex ids in range,
    * every edge lies in exactly 1 (boundary) or 2 (interior) triangles,
    * the incidence-1 edges form exactly the n-cycle on vertices 0..n-1,
    * Euler formula V - E + F = 1,
    * every vertex lies in a triangle,
    * every vertex link is a simple path (boundary) or cycle (interior).

    Links are checked on the *corner graph*: its nodes are directed edges
    v->w, and each triangle joins the two directed edges leaving each of its
    corners, so the nodes with tail v and their joins form the link of v.
    Two triangles on one vertex set make that link a multigraph; otherwise,
    with every incidence 1 or 2, each link is a disjoint union of paths and
    cycles, and it is a path or a cycle exactly when it is connected, a path
    exactly when v lies on an incidence-1 edge.  Connectivity comes from
    min-label propagation with pointer jumping over the corner graph.
    Degenerate and out-of-range triangles are reported and left out of the
    link checks; edge counts include them.
    """
    rep = ValidationReport()
    tri = t.triangles
    if not len(tri):
        rep.failures.append("complex has no triangles")
        return rep

    nv, nf = t.num_vertices, len(tri)
    edges, inc, slot = t.edges, t.incidence, t.slot_edges
    ne = len(edges)
    # rows are canonical, so column 0 holds the smallest id
    degenerate = (tri[:, 0] == tri[:, 1]) | (tri[:, 0] == tri[:, 2]) | (tri[:, 1] == tri[:, 2])
    outside = tri.max(axis=1) >= nv
    good = ~(degenerate | outside)
    if not good.all():
        _report(rep, [f"degenerate triangle {x}" for x in _tuples(tri[degenerate])], "degenerate triangles")
        stray = _tuples(tri[outside & ~degenerate])
        _report(
            rep,
            [f"triangle {x} references a vertex id outside 0..{nv - 1}" for x in stray],
            "triangles with out-of-range ids",
        )
        tri, slot = tri[good], slot[good]

    # A triangle is fixed by any two of its edges: its two smallest edge ids
    # fix its vertex set, and (rotation being canonical) the edges leaving
    # corners 0 and 1 fix it with its orientation.
    pairs = np.sort(slot, axis=1)
    unoriented = pairs[:, 0] * ne + pairs[:, 1]
    multi = np.zeros(nv, dtype=bool)
    ranked = np.sort(unoriented)
    if (ranked[1:] == ranked[:-1]).any():
        oriented = slot[:, 0] * ne + slot[:, 1]
        _report(rep, [f"repeated triangle {x}" for x in _tuples(tri[_repeats(oriented)])], "repeated triangles")
        multi[tri[_repeats(unoriented, every=True)]] = True

    bad = np.flatnonzero(inc > 2)
    if len(bad):
        _report(
            rep,
            [
                f"edge {e} lies in {k} triangles (expected 1 or 2)"
                for e, k in zip(_tuples(edges[bad]), inc[bad].tolist())
            ],
            "edges with bad incidence",
        )

    boundary = edges[inc == 1]
    cycle = np.array([(0, 1), (0, t.n - 1)] + [(i, i + 1) for i in range(1, t.n - 1)], dtype=np.int32)
    if len(boundary) != t.n or not (boundary == cycle).all():
        have, need = set(_tuples(boundary)), set(_tuples(cycle))
        if need - have:
            rep.failures.append(f"cycle edges missing from the boundary: {sorted(need - have)[:_LISTED]}")
        if have - need:
            rep.failures.append(f"unexpected boundary edges: {sorted(have - need)[:_LISTED]}")

    rep.counts = {
        "vertices": nv,
        "edges": ne,
        "triangles": nf,
        "boundary_edges": len(boundary),
        "interior_edges": ne - len(boundary),
    }
    if nv - ne + nf != 1:
        rep.failures.append(f"Euler formula violated: V - E + F = {nv} - {ne} + {nf} = {nv - ne + nf}, expected 1")

    covered = np.zeros(nv, dtype=bool)
    covered[tri] = True
    if not covered.all():
        uncovered = np.flatnonzero(~covered).tolist()
        _report(rep, [f"vertex {v} lies in no triangle" for v in uncovered], "uncovered vertices")
    tails = _link_components(edges, tri, slot)
    if multi.any() or len(tails) != np.count_nonzero(covered):
        on_boundary = set(boundary.ravel().tolist())

        def links(vs: np.ndarray, shape: str) -> list[str]:
            return [
                f"link of vertex {v} is {shape}, expected a {'path' if v in on_boundary else 'cycle'}"
                for v in np.flatnonzero(vs).tolist()
            ]

        _report(rep, links(multi, "a multigraph (repeated link edge)"), "vertices with a multigraph link")
        split = (np.bincount(tails, minlength=nv) > 1) & ~multi
        _report(rep, links(split, "disconnected"), "vertices with a disconnected link")
    return rep


def _repeats(keys: np.ndarray, every: bool = False) -> np.ndarray:
    """Positions of keys seen earlier in ``keys`` (all members of repeated keys if ``every``)."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    same = ranked[1:] == ranked[:-1]
    later = np.zeros(len(keys), dtype=bool)
    later[1:] = same
    if every:
        later[:-1] |= same
    return np.sort(order[later])


def _link_components(edges: np.ndarray, tri: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The vertex whose link each component of the corner graph belongs to.

    Node ``2e + d`` is edge e directed away from its endpoint ``edges[e, d]``,
    and ``node ^ 1`` is its reverse.  Corner j of a triangle joins the
    directed edges leaving it along slot j and along slot j-1.  Components
    never mix tails, so a vertex's link is connected iff it owns exactly one.
    """
    out = 2 * slot + (tri > tri[:, _NEXT])  # slot j directed away from corner j
    a = out.ravel()
    b = (out ^ 1)[:, _PREV].ravel()  # slot j-1 directed away from corner j
    label = np.arange(2 * len(edges))
    la, lb = a, b
    while not (la == lb).all():
        # hook each larger root onto the smaller, then jump every node to its root
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
        la, lb = label[a], label[b]
    root = np.zeros(len(label), dtype=bool)
    root[a] = True
    root[b] = True
    root &= label == np.arange(len(label))
    return edges.ravel()[root]


def skeleton_graph(t: Triangulation) -> list[list[int]]:
    """Adjacency lists of the 1-skeleton, neighbors sorted ascending.

    Edges come sorted as ``(lo, hi)`` pairs, so each list receives its
    smaller neighbors in order before its larger ones.
    """
    adj: list[list[int]] = [[] for _ in range(t.num_vertices)]
    for u, v in t.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def cone_over_cycle(n: int) -> Triangulation:
    """The wheel: boundary cycle 0..n-1 plus one apex joined to every vertex."""
    triangles = [(n, i, (i + 1) % n) for i in range(n)]
    return Triangulation(n, n + 1, triangles)
