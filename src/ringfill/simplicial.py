"""Abstract triangulations of a disk whose boundary is a labeled cycle.

The boundary cycle on ``n`` vertices always occupies vertex ids ``0..n-1``
in cyclic order, so the cycle distance between two boundary vertices can be
read off their ids as ``min(|i-j|, n-|i-j|)``.  Interior vertices follow in
contiguous blocks, one block per concentric layer.

Triangles are one ``(F, 3)`` int32 array; edges, incidence and every
validation check are derived from it, with vectorized numpy and the
compiled kernels of ``_kernels.c`` (an edge-table radix sort, a union-find,
and the per-complex disk check of a stack of complexes).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Triangulation",
    "ValidationReport",
    "canonical_triangle",
    "validate_disk",
    "validate_disk_batch",
    "cone_over_cycle",
]

_MAX_ID = np.iinfo(np.int32).max
MAX_TRIANGLES = _MAX_ID // 6  # the most _edge_table takes, so that its int32 ids cannot wrap
_NEXT = [1, 2, 0]  # corner j+1 for corner j
_PREV = [2, 0, 1]  # corner j-1 for corner j


def canonical_triangle(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Rotate a triangle so its smallest vertex id comes first.

    Cyclic orientation is preserved: ``(5, 2, 7)`` and ``(7, 5, 2)`` both map
    to ``(2, 7, 5)``, while the reflection ``(2, 5, 7)`` stays distinct.
    """
    if a <= b:
        return (a, b, c) if a <= c else (c, a, b)
    return (b, c, a) if b <= c else (c, a, b)


def _triangle_rows(triangles, own: bool = False) -> np.ndarray:
    """Checked ``(F, 3)`` int32 triangles, each row rotated so its smallest id comes first.

    The result is a new int32 array, never the caller's, unless ``own``
    says the caller hands over ``triangles``: an int32 array is then kept
    and rotated where it is.  Only the rows whose smallest id is not first
    (the first smallest, as ``argmin`` picks it) are gathered and rotated in
    place, so no F-sized index array is made.
    """
    tri = np.asarray(triangles)
    if tri.size == 0:
        tri = tri.reshape(0, 3).astype(np.int32)
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise ValueError(f"triangles must be an (F, 3) array of vertex ids, got shape {tri.shape}")
    _check_ids(tri)
    tri = tri.astype(np.int32, copy=not own)
    a, b, c = tri.T
    second, third = (b < a) & (b <= c), (c < a) & (c < b)
    for at, turn in ((second, _NEXT), (third, _PREV)):
        rows = np.flatnonzero(at)
        tri[rows] = tri[rows][:, turn]
    return tri


def _check_ids(tri: np.ndarray) -> None:
    """Raise ValueError unless the ids of ``tri`` are integers in ``0.._MAX_ID``."""
    if tri.dtype.kind not in "iu":
        raise ValueError(f"triangle vertex ids must be integers, got {tri.dtype}")
    # Negative ids would silently wrap when used as numpy indices.
    if tri.size and (tri.min() < 0 or tri.max() > _MAX_ID):
        raise ValueError(f"triangle vertex ids must lie in 0..{_MAX_ID}")


def _library():
    """The compiled kernels (:func:`ringfill._kernels.library`), imported on first use.

    Importing the package thus loads neither the loader nor ctypes.
    """
    from . import _kernels

    return _kernels.library()


def _edge_table(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges, incidence and per-slot edge ids of canonical triangles, from one compiled radix sort.

    Slot ``(f, j)`` is the edge from corner j to corner j+1 of triangle f.
    The kernel sorts the 3F slots stably by ``hi`` and then ``lo`` in int32
    passes, ranks their edges as ``(lo, hi)`` pairs, and the sort order is
    dropped before the edges are written.  A pass takes digits of up to
    ``max(8, bit_length(3F) - 1)`` bits, so its count array never holds
    more entries than there are slots: the ids of a built complex take one
    pass each for ``hi`` and ``lo``, and an id up to ``2**31 - 1`` a few
    more passes, never an id-sized array.  Returns the ``(E, 2)`` int32 edges,
    ascending, their int32 incidence and the ``(F, 3)`` int32 edge id of
    each slot.  Edge ids stay below ``3F``, so node ``2e + 1`` of the corner
    graph fits int32 too.
    """
    if len(tri) > MAX_TRIANGLES:
        raise ValueError(f"{len(tri)} triangles have too many edges for int32 edge ids")
    lib = _library()
    size = tri.size
    bits = max(1, int(tri.max(initial=0)).bit_length())
    digits = -(-bits // max(8, size.bit_length() - 1))
    width = -(-bits // digits)
    slot_edge, perm = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    ne = lib.edge_slots(tri, size, width, np.empty(1 << width, dtype=np.int32), perm, slot_edge)
    del perm
    edges = np.empty((ne, 2), dtype=np.int32)
    incidence = np.zeros(ne, dtype=np.int32)
    lib.edge_ends(tri, size, slot_edge, edges, incidence)
    return edges, incidence, slot_edge.reshape(-1, 3)


@dataclass(eq=False)
class Triangulation:
    """Immutable-by-convention abstract 2-complex on vertex ids ``0..num_vertices-1``.

    No per-vertex object is kept; a built filling's positions live in its
    layer ledger.  ``triangles`` may be given as any ``(F, 3)`` array-like of
    non-negative integer ids; it is stored as a new int32 array in canonical
    rotation (each row rotated so its smallest id comes first, as
    :func:`canonical_triangle` does).  With ``own=True`` the caller hands
    over its array: an int32 one is kept and rotated in place, not copied.
    Edges and incidence are derived lazily from one sort and cached,
    so instances are cheap to pass around and safe to share read-only between
    workers.
    """

    n: int
    num_vertices: int
    triangles: np.ndarray
    own: InitVar[bool] = False

    def __post_init__(self, own: bool) -> None:
        if self.n < 3:
            raise ValueError(f"boundary length must be >= 3, got {self.n}")
        if self.n > self.num_vertices:
            raise ValueError(
                f"boundary length {self.n} exceeds the {self.num_vertices} vertices: "
                "a disk bounded by C_n has at least n vertices"
            )
        self.triangles = _triangle_rows(self.triangles, own)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _edge_table(self.triangles)

    @property
    def edges(self) -> np.ndarray:
        """Undirected edges ``(u, v)`` with ``u <= v`` as an ``(E, 2)`` int32 array, ascending."""
        return self._edge_table[0]

    @property
    def incidence(self) -> np.ndarray:
        """Number of triangle slots on each edge of :attr:`edges`."""
        return self._edge_table[1]

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


def _report(failures: list[str], lines: list[str], what: str) -> None:
    """Append up to ten of ``lines`` to ``failures``, then how many more ``what`` there are."""
    failures.extend(lines[:_LISTED])
    if len(lines) > _LISTED:
        failures.append(f"... and {len(lines) - _LISTED} more {what}")


def _tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(r) for r in rows.tolist()]


def validate_disk(t: Triangulation) -> ValidationReport:
    """Check that ``t`` is a triangulated disk with boundary exactly C_n.

    Runs every structural invariant in vectorized numpy and compiled
    kernels and reports all failures at once instead of stopping at the
    first, so a broken complex can be diagnosed in one pass (up to ten
    witnesses per kind of failure):

    * no degenerate or repeated triangle, all vertex ids in range,
    * every edge lies in exactly 1 (boundary) or 2 (interior) triangles,
    * the incidence-1 edges form exactly the n-cycle on vertices 0..n-1,
    * Euler formula V - E + F = 1,
    * every vertex lies in a triangle,
    * every vertex link is a simple path (boundary) or cycle (interior),
    * the complex is connected.

    Links are checked on the *corner graph*: its nodes are directed edges
    v->w, and each triangle joins the two directed edges leaving each of its
    corners, so the nodes with tail v and their joins form the link of v.
    Two triangles on one vertex set make that link a multigraph; otherwise,
    with every incidence 1 or 2, each link is a disjoint union of paths and
    cycles, and it is a path or a cycle exactly when it is connected, a path
    exactly when v lies on an incidence-1 edge.  Connectivity, of the links
    and of the complex, comes from the kernels' union-find, which hooks
    the larger root under the smaller; the edge table comes from their
    radix sort.  Both take int32 memory linear in the triangles and
    vertices, whatever the ids.  The last check is not implied by the
    others: a disk plus a disjoint torus passes every other one.
    Degenerate and out-of-range triangles are reported and left out of the
    link and connectivity checks; edge counts include them.
    """
    rep = ValidationReport()
    tri = t.triangles
    if not len(tri):
        rep.failures.append("complex has no triangles")
        return rep
    _check_disk(t.n, t.num_vertices, tri, t._edge_table, rep)
    return rep


def validate_disk_batch(n: int, num_vertices: int, triangles) -> np.ndarray:
    """:func:`validate_disk`'s verdicts on B complexes of one size, in one call.

    ``triangles`` is a ``(B, F, 3)`` integer array; complex b is
    ``Triangulation(n, num_vertices, triangles[b])``.  The compiled
    ``disk_verdicts`` checks each complex on its own, with scratch linear in
    F, so numpy's fixed cost is paid once per stack, not once per complex.
    Returns a ``(B,)`` bool array, True where :func:`validate_disk` reports
    ``ok``; ask it for the failures of a complex this flags.
    """
    from ._kernels import DISK_SCRATCH

    tri = np.asarray(triangles)
    if tri.ndim != 3 or tri.shape[2] != 3 or not tri.size:
        raise ValueError(f"triangles must be a (B, F, 3) array with B, F >= 1, got shape {tri.shape}")
    _check_ids(tri)
    num, nf = tri.shape[:2]
    if nf > MAX_TRIANGLES:
        raise ValueError(f"{nf} triangles have too many edges for int32 edge ids")
    ok = np.zeros(num, dtype=bool)
    # A complex of F triangles covers at most 3F vertices, and its boundary C_n
    # at most all of them: other counts, which may not fit int32, fail every complex.
    if 0 <= n <= num_vertices <= 3 * nf:
        scratch = np.empty(DISK_SCRATCH * nf, dtype=np.int32)
        tri = np.ascontiguousarray(tri, dtype=np.int32)
        _library().disk_verdicts(n, num_vertices, tri, num, nf, scratch, ok)
    return ok


def _check_disk(
    n: int, nv: int, tri: np.ndarray, table: tuple[np.ndarray, np.ndarray, np.ndarray], rep: ValidationReport
) -> None:
    """Write every disk invariant the canonical ``tri`` breaks into ``rep``, with witnesses, and its counts.

    ``table`` is :func:`_edge_table` of ``tri``, which may use any ids.
    """
    nf = len(tri)
    edges, inc, slot = table
    ne = len(edges)
    # rows are canonical, so column 0 holds the smallest id
    degenerate = (tri[:, 0] == tri[:, 1]) | (tri[:, 0] == tri[:, 2]) | (tri[:, 1] == tri[:, 2])
    outside = np.maximum(tri[:, 1], tri[:, 2]) >= nv
    good = ~(degenerate | outside)
    if not good.all():
        degenerates = [f"degenerate triangle {x}" for x in _tuples(tri[degenerate])]
        _report(rep.failures, degenerates, "degenerate triangles")
        stray = _tuples(tri[outside & ~degenerate])
        _report(
            rep.failures,
            [f"triangle {x} references a vertex id outside 0..{nv - 1}" for x in stray],
            "triangles with out-of-range ids",
        )
        tri, slot = tri[good], slot[good]

    # A triangle is fixed by any two of its edges: its two smallest edge ids
    # fix its vertex set, and (rotation being canonical) the edges leaving
    # corners 0 and 1 fix it with its orientation.
    # The keys are int64: an int32 product of edge ids wraps once E > 46,341.
    pairs = np.sort(slot, axis=1)
    unoriented = pairs[:, 0].astype(np.int64) * ne + pairs[:, 1]
    del pairs
    multi = np.zeros(nv, dtype=bool)
    ranked = np.sort(unoriented)
    if (ranked[1:] == ranked[:-1]).any():
        oriented = slot[:, 0].astype(np.int64) * ne + slot[:, 1]
        repeated = _tuples(tri[_repeats(oriented)])
        _report(rep.failures, [f"repeated triangle {x}" for x in repeated], "repeated triangles")
        multi[tri[_repeats(unoriented, every=True)]] = True
    del unoriented, ranked

    overfull = np.flatnonzero(inc > 2)
    _report(
        rep.failures,
        [
            f"edge {e} lies in {k} triangles (expected 1 or 2)"
            for e, k in zip(_tuples(edges[overfull]), inc[overfull].tolist())
        ],
        "edges with bad incidence",
    )

    # Edges are distinct, so the boundary is C_n iff it has n edges, each an edge of C_n.
    boundary = edges[inc == 1]
    lo, hi = boundary.T
    on_cycle = (hi < n) & ((hi == lo + 1) | ((lo == 0) & (hi == n - 1)))
    if len(boundary) != n or not on_cycle.all():
        have = set(_tuples(boundary))
        need = {(0, n - 1)} | {(i, i + 1) for i in range(n - 1)}
        if need - have:
            rep.failures.append(f"cycle edges missing from the boundary: {sorted(need - have)[:_LISTED]}")
        if have - need:
            rep.failures.append(f"unexpected boundary edges: {sorted(have - need)[:_LISTED]}")

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
    links = _link_counts(edges, tri, slot, nv)
    if multi.any() or (links > 1).any():
        on_boundary = set(boundary.ravel().tolist())

        def link_lines(vs: np.ndarray, shape: str) -> list[str]:
            return [
                f"link of vertex {v} is {shape}, expected a {'path' if v in on_boundary else 'cycle'}"
                for v in np.flatnonzero(vs).tolist()
            ]

        _report(rep.failures, link_lines(multi, "a multigraph (repeated link edge)"), "vertices with a multigraph link")
        _report(rep.failures, link_lines((links > 1) & ~multi, "disconnected"), "vertices with a disconnected link")

    components = _components(tri, nv)
    if components > 1:
        rep.failures.append(f"complex is disconnected: {components} components")


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


def _link_counts(edges: np.ndarray, tri: np.ndarray, slot: np.ndarray, size: int) -> np.ndarray:
    """How many components of the corner graph each of ``size`` vertices owns, as the tail of their nodes.

    Node ``2e + d`` is edge e directed away from its endpoint ``edges[e, d]``,
    and ``node ^ 1`` is its reverse.  Corner j of a triangle joins the
    directed edges leaving it along slot j and along slot j-1.  Components
    never mix tails, so a vertex's link is connected iff it owns exactly
    one.  The kernel's union-find computes the joins from ``tri`` and
    ``slot`` itself, so no list of joins is made.
    """
    links = np.zeros(size, dtype=np.int32)
    nodes = 2 * len(edges)
    _library().link_roots(tri, slot, len(tri), edges, nodes, np.empty(nodes, dtype=np.int32), links)
    return links


def _components(tri: np.ndarray, size: int) -> int:
    """The number of connected components of the vertices of ``tri``, whose ids lie below ``size``.

    Only the vertices of ``tri`` count; the kernel's union-find joins the
    corners of each triangle.
    """
    return _library().vertex_roots(tri, len(tri), size, np.empty(size, dtype=np.int32))


def cone_over_cycle(n: int) -> Triangulation:
    """The wheel: boundary cycle 0..n-1 plus one apex joined to every vertex."""
    triangles = [(n, i, (i + 1) % n) for i in range(n)]
    return Triangulation(n, n + 1, triangles)
