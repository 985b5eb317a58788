"""Exact metric verification of built complexes.

Three independent instruments:

* exact integer breadth-first distances from every boundary vertex, one
  compiled FIFO search per source over an int32 CSR of the 1-skeleton
  (``_kernels.c``, built with the C compiler on first use and loaded
  through ctypes by :mod:`ringfill._kernels`), giving the exact Lipschitz
  constant delta of the filling, whose worst pair a compiled scan finds by
  exact int64 cross-multiplication.  The search from a source x >= 1
  fills only the pairs (x, y) with y > x and skips two sets of vertices,
  each exactly.  *Side:* the path pi_x from 0 to x in a BFS tree of
  vertex 0 is a geodesic, and the excluded set E, flooded from the earlier
  paths through vertices off pi_x, has every neighbour in E or on pi_x; so
  a shortest path from x to a target that enters E leaves it onto pi_x
  again, and the part between can follow pi_x at no cost (the uncrossing
  lemma under Klein's multiple-source shortest paths).  *Depth:* with
  every boundary cycle edge, d(x, y) <= cyc(x, y) <= min(n // 2, n - 1 - x),
  and d(w, y) is at least w's layer, its distance to the boundary, so no
  vertex w with d(x, w) + layer(w) above that bound lies on a shortest
  path to a target, and a search returns once it has reached its last
  target.  Neither cut rests on planarity, and the kernel checks
  both rather than trusting the input: if pi_x meets E, E would take a
  target, or a target is left unreached, the rest of that span of sources
  runs without E, and if a cycle edge is missing no search has a depth
  cut.  A shortest witness path of the worst pair comes from one more
  plain search, whose BFS tree it follows;
* a per-edge drift audit checking every slanted edge against its annulus
  bound in exact scaled int64 arithmetic, offsets read from each annulus's
  kind in the ledger (:func:`ringfill.annuli._pair_terms`):
  :func:`certify` validates a built filling and audits it in one compiled
  call over every annulus's rows and the cone's (the strip pass), or names
  each defect;
* an analytic lower-bound predictor for boundary distances derived from the
  accumulated drift of the layer ledger, sound by construction and checked
  against BFS exhaustively in the tests, its table written by a kernel.

The CSR, the distance matrix and the table are stdlib buffers (``bytearray``
cast by ``memoryview``), and the audit reads the complex's int32 rows in
place, so this module imports no numpy; numpy callers view the matrix
with ``numpy.asarray`` without a copy.
"""
from __future__ import annotations

import math
import os
from array import array
from fractions import Fraction
from itertools import accumulate

from . import _kernels
from ._kernels import INT64, MAX_ID, buffer, check_ids, checked
from .builder import BuildResult
from .simplicial import Triangulation, ValidationReport, _edge_table, _report, validate_disk

__all__ = [
    "cycle_dist",
    "boundary_distance_matrix",
    "VerificationReport",
    "verify_filling",
    "AnnulusAudit",
    "DriftAudit",
    "drift_audit",
    "Certificate",
    "certify",
    "separation_lower_bounds",
    "step_profile_eps",
]


_SPANS_PER_THREAD = 4  # spans per BFS thread, so that a thread done early takes another


def cycle_dist(i: int, j: int, n: int) -> int:
    """Distance between boundary vertices i and j along the cycle C_n."""
    d = abs(i - j) % n
    return min(d, n - d)


def _graph_csr(t: Triangulation) -> tuple[memoryview, memoryview]:
    """The symmetric 1-skeleton as int32 CSR ``(indptr, indices)``, each neighbour list ascending.

    Built by the kernel in linear time from the edges of a table sorted
    for this call alone: each vertex's lower neighbours come from a stable
    pass by ``hi``, its upper ones from its run of ``lo``.  Refuses what the
    kernels would index out of bounds: an id beyond the vertex count, or
    more vertices than int32 ids hold.
    """
    v = t.num_vertices
    if v > MAX_ID:
        raise ValueError(f"{v} vertices are more than the BFS kernel's int32 ids hold")
    check_ids(t)
    edges = _edge_table(t.triangles)[0]
    indptr, indices = buffer("i", v + 1), buffer("i", 2 * len(edges))
    _kernels.library().graph_csr(edges, len(edges), v, indptr, indices)
    return indptr, indices


def _witness(graph: tuple, x: int, y: int) -> list[int]:
    """A shortest path from vertex x to vertex y of the CSR ``graph``, read off the BFS tree of x.

    Raises ValueError, before the search, unless x and y are vertices of
    the CSR, and after it if y is unreachable from x.
    """
    indptr, indices = graph
    size = len(indptr) - 1
    if not (0 <= x < size and 0 <= y < size):
        raise ValueError(f"a witness from {x} to {y} needs two of the CSR's {size} vertices")
    dist, queue, pred = buffer("i", size), buffer("i", size), buffer("i", size)
    _kernels.library().bfs_tree(size, indptr, indices, x, dist, queue, pred)
    if dist[y] < 0:
        raise ValueError(f"graph is disconnected: vertex {y} is unreachable from {x}")
    path = [y]
    while path[-1] != x:
        path.append(pred[path[-1]])
    return path[::-1]


def _bfs_plan(n: int, jobs: int) -> tuple[list[range], int]:
    """The spans of boundary sources, in order, and the threads to run them on.

    There are never more threads than ``jobs``, than sources or than CPUs,
    so a ``jobs`` beyond n starts no more threads than the machine runs at
    once.  One thread takes all n sources as one span.  More threads take
    spans of ``ceil(n / (_SPANS_PER_THREAD * threads))`` sources, handed
    out as threads come free.  A search from the first half of the
    boundary costs far more than one from the second (50 to 100 times on
    the built fillings, whose BFS tree paths from vertex 0 follow the
    boundary, so the side cut takes nothing from the first half and all
    but the path from the second), and one equal span per thread would
    leave all threads but the first idle for most of the run.
    """
    threads = min(jobs, n, os.cpu_count() or 1)
    size = -(-n // (_SPANS_PER_THREAD * threads)) if threads > 1 else n
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)], threads


def boundary_distance_matrix(t: Triangulation, jobs: int = 1) -> memoryview:
    """Exact graph distances between all pairs of boundary vertices, as an ``(n, n)`` int64 buffer.

    Builds the int32 CSR of the 1-skeleton once and runs one compiled FIFO
    BFS per boundary source over it (see :func:`_boundary_distances`).
    """
    return _boundary_distances(_graph_csr(t), t.n, jobs)


def _boundary_distances(graph: tuple, n: int, jobs: int) -> memoryview:
    """The ``(n, n)`` int64 BFS distances between the first n vertices of the CSR ``graph``.

    One compiled search from all n boundary vertices gives every vertex its
    layer, its distance to the boundary, and one from vertex 0 gives row 0
    and a BFS tree (``boundary_tree``).  The search from each later source x
    then fills the pairs (x, y), y > x, only, confined to one side of the
    tree path from 0 to x and pruned by layer (``boundary_rows``; the module
    docstring says why both cuts are exact).  If a boundary cycle edge is
    missing, the depth cut does not hold, so the searches keep the side cut
    alone, and :func:`_worst_pair` names the edge.

    The sources are split into spans (see :func:`_bfs_plan`), which are
    independent and read-only over the shared graph, so they run on a pool
    of up to ``jobs`` threads, each span writing its own pairs of the
    result; the kernels release the GIL, so the threads run in
    parallel and the result is the same at any ``jobs``.  Raises ValueError
    before any search if the CSR does not fit its vertex count or the n
    boundary vertices.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    indptr, indices = graph
    size, lib = len(indptr) - 1, _kernels.library()  # built here, before any thread would race to build it
    if not (
        0 < n <= size
        and indptr[size] == len(indices)
        and 0 <= lib.top_id(indptr, size + 1) <= len(indices)
        and lib.top_id(indices, len(indices)) < size
    ):
        raise ValueError(f"a CSR of {size} vertices and {len(indices)} neighbours cannot hold {n} boundary vertices")
    dist = buffer("q", n, n)
    spans, workers = _bfs_plan(n, jobs)
    layer, parent = buffer("i", size), buffer("i", size)
    scratch = [(buffer("i", size), buffer("i", size)) for _ in range(workers)]  # one pair for each running span
    found = lib.boundary_tree(size, indptr, indices, n, layer, parent, dist, *scratch[0])
    if found == 1:
        raise ValueError("graph is disconnected: some vertex is unreachable from the boundary")

    def run(sources: range) -> None:
        pair = scratch.pop()  # atomic, as is the append: no two spans share a pair
        try:
            if lib.boundary_rows(size, indptr, indices, n, layer, parent, sources.start, sources.stop, dist, *pair,
                                 found):
                raise RuntimeError(f"the search from boundary sources {sources} left a target unreached")
        finally:
            scratch.append(pair)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, not at module load: it imports logging

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, spans))  # reading every result raises a span's error
    else:
        for sources in spans:
            run(sources)
    return dist


def _worst_pair(dist, n: int) -> tuple[int, int]:
    """The first pair, in row-major order, of least ratio of ``dist`` to cycle distance.

    ``dist`` is the C-contiguous ``(n, n)`` int64 BFS matrix.  The compiled
    ``worst_ratio`` compares ratios exactly, by int64 cross-multiplication,
    so the first exact minimum is found without a float.  Raises ValueError
    if ``dist`` has another shape or format, which the kernel would misread,
    or if some graph distance exceeds its cycle distance.
    """
    view = checked(dist, INT64, (n, n), "distances")
    pair = buffer("i", 2)
    if _kernels.library().worst_ratio(dist, n, pair):
        x, y = pair
        raise ValueError(
            f"graph distance {view[x, y]} exceeds cycle distance {cycle_dist(x, y, n)} "
            f"for pair ({x}, {y}): boundary cycle edges are missing"
        )
    return pair[0], pair[1]


def _bound_violation(table: list[int], dist, n: int) -> tuple[int, int] | None:
    """The first pair (x, y), in row-major order, whose entry of ``table`` at cycle distance exceeds ``dist[x, y]``.

    ``table`` is :func:`separation_lower_bounds`' list of ``n // 2 + 1``
    bounds, and ``dist`` the C-contiguous ``(n, n)`` int64 BFS matrix; the
    compiled ``bound_violation`` compares every pair.  Returns None if no
    pair violates the table.  Raises ValueError, before the kernel runs, if
    the table has another length or the matrix another shape or format,
    which the kernel would misread.
    """
    checked(dist, INT64, (n, n), "distances")
    if len(table) != n // 2 + 1:
        raise ValueError(f"the separation table of C_{n} needs {n // 2 + 1} bounds, got {len(table)}")
    pair = buffer("i", 2)
    return (pair[0], pair[1]) if _kernels.library().bound_violation(dist, n, array("q", table), pair) else None


class VerificationReport:
    """Outcome of the exact boundary-distance verification.

    ``delta`` is the exact minimum of d_complex / d_cycle over boundary
    pairs; the complex is an isometric filling iff delta == 1.  Walking along
    the boundary shows d_complex <= d_cycle always, so delta <= 1.
    """

    def __init__(
        self, n: int, delta: Fraction, is_isometric: bool, worst_pair: tuple[int, int, int, int],
        witness_path: list[int] | None, boundary_distances: memoryview, eps: float | None = None,
    ) -> None:
        self.n = n
        self.delta = delta
        self.is_isometric = is_isometric
        self.worst_pair = worst_pair  # (x, y, d_complex, d_cycle)
        self.witness_path = witness_path
        self.boundary_distances = boundary_distances  # (n, n) int64
        self.eps = eps


def verify_filling(t: Triangulation, jobs: int = 1) -> VerificationReport:
    """Compute the exact Lipschitz constant of ``t`` over all boundary pairs.

    Requires a complex that already passed :func:`validate_disk` or
    :func:`certify`.  When a shortcut exists (delta < 1) the report carries
    one shortest path realizing the worst pair, read off the BFS tree of
    its first vertex.  The CSR sorts its own edge table and drops it once
    built, before any BFS buffer is allocated, so the searches take the
    table's memory; ``t`` is left as it was.
    """
    n = t.n
    graph = _graph_csr(t)  # kept for the witness BFS
    dist = _boundary_distances(graph, n, jobs)
    x, y = _worst_pair(dist, n)
    d_k, d_c = dist[x, y], cycle_dist(x, y, n)
    delta = Fraction(d_k, d_c)
    return VerificationReport(
        n=n,
        delta=delta,
        is_isometric=delta == 1,
        worst_pair=(x, y, d_k, d_c),
        witness_path=_witness(graph, x, y) if delta < 1 else None,
        boundary_distances=dist,
    )


class AnnulusAudit:
    """Observed versus allowed slanted-edge displacement for one annulus."""

    def __init__(self, layer: int, kind: str, bound: Fraction, max_observed: Fraction, ok: bool, tight: bool) -> None:
        self.layer = layer
        self.kind = kind
        self.bound = bound
        self.max_observed = max_observed
        self.ok = ok
        self.tight = tight  # max observed equals the bound exactly

    def __eq__(self, other) -> bool:
        return type(other) is AnnulusAudit and vars(self) == vars(other)


class DriftAudit:
    """Per-annulus drift rows, and a line for each defect that keeps the complex from being the ledger's strips.

    ``defects`` lists up to ten defects, then how many more there are; an
    annulus that is no strip has no row.
    """

    def __init__(self, rows: list[AnnulusAudit] | None = None, defects: list[str] | None = None) -> None:
        self.rows = [] if rows is None else rows
        self.defects = [] if defects is None else defects

    def __eq__(self, other) -> bool:
        return type(other) is DriftAudit and vars(self) == vars(other)

    @property
    def ok(self) -> bool:
        return not self.defects and all(row.ok for row in self.rows)

    def failures(self) -> list[AnnulusAudit]:
        return [row for row in self.rows if not row.ok]


class Certificate:
    """A built or loaded filling's disk validation and drift audit, from :func:`certify`."""

    def __init__(self, report: ValidationReport, audit: DriftAudit) -> None:
        self.report = report
        self.audit = audit

    @property
    def ok(self) -> bool:
        return self.report.ok and self.audit.ok

    def lines(self) -> list[str]:
        """Each failed invariant as ``invalid: ...``, then each defect and exceeded bound as ``violation: ...``."""
        rows = self.audit.failures()
        over = [f"annulus {r.layer} ({r.kind}) observed {r.max_observed} > bound {r.bound}" for r in rows]
        invalid = [f"invalid: {line}" for line in self.report.failures]
        return invalid + [f"violation: {line}" for line in self.audit.defects + over]


def certify(build: BuildResult) -> Certificate:
    """Validate ``build``'s complex as a disk bounded by C_n, and audit its drift, in one strip pass.

    :func:`ringfill.annuli.strip_drifts` shows why a complex with no
    defect is a disk, so E = V + F - 1, and measures every slanted edge.
    A complex with a defect is not the ledger's strips and cone: the audit
    lists its defects and fails, and the report is
    :func:`ringfill.validate_disk`'s, naming what is wrong with it as a
    disk, if anything.  An equal annulus's bound n/(2m) and a shrink's n/M
    are measured exactly, in units of 1/S for S = 2m or mM (see
    :func:`ringfill.annuli._pair_terms`): S <= n^2, so the kernel's
    2 n S <= 2 n^3 stays within int64 for every n below 1.6 million, far
    past ``builder.MAX_N``.  A hand-made ledger past it raises ValueError
    before the strip kernel runs.
    """
    from .annuli import strip_drifts

    t, ledger = build.triangulation, build.ledger
    drifts, lines = strip_drifts(t, ledger)
    audit = DriftAudit()
    _report(audit.defects, lines, "defects")
    for r, (rec, obs) in enumerate(zip(ledger, drifts)):
        if obs is not None:
            bound = rec.drift_bound
            audit.rows.append(AnnulusAudit(r, rec.annulus_kind, bound, obs, ok=obs <= bound, tight=obs == bound))
    if lines:
        return Certificate(validate_disk(t), audit)
    nv, nf, n = t.num_vertices, t.num_triangles, t.n
    ne = nv + nf - 1
    counts = {"vertices": nv, "edges": ne, "triangles": nf, "boundary_edges": n, "interior_edges": ne - n}
    return Certificate(ValidationReport(counts=counts), audit)


def drift_audit(build: BuildResult) -> DriftAudit:
    """Check that ``build``'s complex is its ledger's strips, and every slanted edge within its annulus's drift bound.

    The audit of :func:`certify`, which validates ``build``'s complex as well.
    """
    return certify(build).audit


def separation_lower_bounds(build: BuildResult) -> list[int]:
    """Lower bounds on graph distance between boundary vertices, by separation.

    Entry s is a certified lower bound on d_complex(x, y) whenever the cycle
    distance of (x, y) is s.  A path whose deepest layer is cycle h pays 2h
    slanted edges, and the part of s not covered by the accumulated drift
    D_h of those crossings is paid by horizontal edges of circular length at
    most n/m_h: 2h + ceil(m_h (s - D_h) / n) edges where s > D_h, 2h elsewhere.
    The table is the minimum of these rows over h, capped by the cone term.

    Each row is exact integer arithmetic, with one Fraction per layer: for
    w = floor(D_h) and q = floor(m_h (D_h - w)), an integer s exceeds D_h iff
    s > w, and ceil((k - x)/n) = -floor((floor(x) - k)/n) for integers k and
    n > 0, so with k = m_h (s - w) the row is 2h - (q - m_h (s - w)) // n
    where s > w.  The compiled ``lower_bounds`` writes the rows' minimum in
    int64 with that floor division; this function checks first that every
    w, q and m_h keeps its products in range, and raises ValueError for a
    ledger that does not.  The cone term counts 2 edges per collar and equal
    annulus, leaving out block transitions and apex edges: sound but loose.
    """
    n = build.params.n
    cone_bound = 2 * sum(rec.annulus_kind in ("collar", "equal") for rec in build.ledger)
    size = n // 2 + 1
    w, q, m = array("q"), array("q"), array("q")
    drifts = accumulate((2 * rec.drift_bound for rec in build.ledger[:-1]), initial=Fraction(0))
    for h, (rec, drift) in enumerate(zip(build.ledger, drifts)):
        floor = math.floor(drift)
        w.append(min(floor, size))  # s never exceeds a larger w
        m.append(rec.length)
        q.append(math.floor(rec.length * (drift - floor)))
        if floor < 0 or not 0 < rec.length <= MAX_ID:
            raise ValueError(
                f"layer {h} of the ledger needs drift >= 0 and a length in 1..{MAX_ID}, "
                f"got drift {drift} and length {rec.length}"
            )
    if not 0 < n <= MAX_ID:
        raise ValueError(f"the separation table needs 1 <= n <= {MAX_ID}, got {n}")
    table = buffer("q", size)
    _kernels.library().lower_bounds(n, len(m), w, q, m, cone_bound, table, size)
    return table.tolist()


def step_profile_eps(build: BuildResult) -> float:
    """Worst deviation of the built layers from the ideal square-root profile.

    For every cycle h of the main region, compares depth, relative cycle
    length, and accumulated drift against their smooth counterparts at the
    rescaled depth tau_h (equal-length annuli passed inside the main region,
    over n).  The maximum of the three normalized discrepancies shrinks as n
    grows; the sweep records it per run.
    """
    ledger = build.ledger
    n = build.params.n
    rho = float(build.params.rho)
    collar = build.schedule.collar_layers
    depth = len(ledger) - 1
    drift = Fraction(0)
    main_equal = 0
    worst = 0.0
    for h in range(depth + 1):
        if h >= collar:
            tau = main_equal / n
            q = math.sqrt(1.0 - 4.0 * tau)
            integral = (1.0 - q) / 2.0
            d_depth = abs(2 * h - 2 * rho * n - 2 * tau * n) / n
            d_length = abs(ledger[h].length / n - q)
            d_drift = abs(float(drift) - rho * n - n * integral) / n
            worst = max(worst, d_depth, d_length, d_drift)
        if h < depth:
            drift += 2 * ledger[h].drift_bound
            if ledger[h].annulus_kind == "equal":
                main_equal += 1
    return worst
