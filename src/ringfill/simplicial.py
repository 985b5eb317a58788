"""Abstract triangulations of a disk whose boundary is a labeled cycle.

The boundary cycle on ``n`` vertices always occupies vertex ids ``0..n-1``
in cyclic order, so the cycle distance between two boundary vertices can be
read off their ids as ``min(|i-j|, n-|i-j|)``.  Interior vertices follow in
contiguous blocks, one block per concentric layer.

Triangles are one C-contiguous ``(F, 3)`` int32 buffer: a ``bytearray``
cast by ``memoryview``, or the caller's int32 array when it hands one over.
Edges, incidence and every validation check are derived from it by the
compiled kernels of ``_kernels.c`` (the canonical rotation, an edge-table
radix sort, a union-find and the witness marks of :func:`validate_disk`)
on such buffers, so this module imports no numpy; numpy callers view any
of them with ``numpy.asarray`` without a copy.  The same verdicts on a
stack of complexes of one size, from one pass over adjacency bitsets per
complex on up to 64 vertices, are :func:`ringfill.oracle.validate_disk_batch`.
"""
from __future__ import annotations

from array import array
from itertools import chain

from . import _kernels
from ._kernels import INT32 as _INT32, MAX_ID as _MAX_ID, MAX_TRIANGLES, buffer, checked, takes

__all__ = [
    "Triangulation",
    "ValidationReport",
    "canonical_triangle",
    "validate_disk",
    "cone_over_cycle",
]

_INT_FORMATS = frozenset("bBhHiIlLqQnN")  # struct formats of integers


def canonical_triangle(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Rotate a triangle so its smallest vertex id comes first.

    Cyclic orientation is preserved: ``(5, 2, 7)`` and ``(7, 5, 2)`` both map
    to ``(2, 7, 5)``, while the reflection ``(2, 5, 7)`` stays distinct.
    """
    if a <= b:
        return (a, b, c) if a <= c else (c, a, b)
    return (b, c, a) if b <= c else (c, a, b)


def _id_range_error() -> ValueError:
    return ValueError(f"triangle vertex ids must lie in 0..{_MAX_ID}")


def _view(obj) -> memoryview | None:
    """``obj``'s buffer, or None for an object that exports none, such as a list."""
    try:
        return memoryview(obj)
    except TypeError:
        return None


def _shaped(flat: array) -> memoryview:
    """The int32 ids of ``flat`` copied into a new ``(len // 3, 3)`` buffer."""
    out = buffer("i", len(flat) // 3, 3)
    if flat:
        out.cast("B")[:] = memoryview(flat).cast("B")
    return out


def _int32_rows(triangles, view: memoryview | None) -> memoryview:
    """A new ``(F, 3)`` int32 buffer holding ``triangles``, rows of three integer ids; ``view`` is its buffer or None.

    A buffer of int32 ids is copied in C order, whatever its strides; any
    other is read as a sequence of rows.  Raises ValueError for a row that
    is not three ids, an id that is not an integer, or one that int32 does
    not hold.
    """
    if view is not None:
        if not view.nbytes:
            return buffer("i", 0, 3)
        if view.format.lstrip("@=<>!") not in _INT_FORMATS:
            raise ValueError(f"triangle vertex ids must be integers, got format {view.format!r}")
        if view.ndim != 2 or view.shape[1] != 3:
            raise ValueError(f"triangles must be an (F, 3) array of vertex ids, got shape {view.shape}")
        if view.format in _INT32:
            rows = buffer("i", len(view), 3)
            rows.cast("B")[:] = view.cast("B") if view.c_contiguous else view.tobytes()
            return rows
        triangles = view.tolist()
    rows = list(triangles)
    for row in rows:
        try:
            if len(row) == 3:
                continue
        except TypeError:
            pass
        raise ValueError(f"triangles must be an (F, 3) array of vertex ids, got the row {row!r}")
    try:
        return _shaped(array("i", chain.from_iterable(rows)))
    except OverflowError:
        raise _id_range_error() from None
    except TypeError:
        bad = next(x for row in rows for x in row if not isinstance(x, int))
        raise ValueError(f"triangle vertex ids must be integers, got {type(bad).__name__}") from None


def _triangle_rows(triangles, own: bool = False):
    """Checked ``(F, 3)`` int32 triangles, each row rotated so its first smallest id comes first.

    The result is a new int32 buffer, never the caller's, unless ``own``
    says the caller hands over ``triangles``: a writable C-contiguous int32
    one is then kept and rotated where it is.  The compiled
    ``canonical_rows`` rotates and checks every id in one pass.
    """
    view = _view(triangles)
    keep = own and view is not None and takes(triangles, _INT32, (None, 3), writable=True) is not None
    rows = triangles if keep else _int32_rows(triangles, view)
    if _kernels.library().canonical_rows(rows, len(rows)) < 0:
        raise _id_range_error()
    return rows


def _edge_table(tri) -> tuple[memoryview, memoryview]:
    """Edges and per-slot edge ids of canonical triangles, from one compiled radix sort.

    Slot ``(f, j)`` is the edge from corner j to corner j+1 of triangle f.
    The kernel sorts the 3F slots stably by ``hi`` and then ``lo`` in int32
    passes, ranks their edges as ``(lo, hi)`` pairs, and the sort order is
    dropped before the edges are written.  A pass takes digits of up to
    ``max(8, bit_length(3F) - 1)`` bits, so its count array never holds
    more entries than there are slots: the ids of a built complex take one
    pass each for ``hi`` and ``lo``, and an id up to ``2**31 - 1`` a few
    more passes, never an id-sized array.  Returns the ``(E, 2)`` int32 edges,
    ascending, and the ``(F, 3)`` int32 edge id of each slot, from which
    :func:`_incidence` counts each edge's triangles.  Edge ids stay below
    ``3F``, so node ``2e + 1`` of the corner graph fits int32 too.
    """
    if len(tri) > MAX_TRIANGLES:
        raise ValueError(f"{len(tri)} triangles have too many edges for int32 edge ids")
    checked(tri, _INT32, (None, 3), "triangles")
    lib = _kernels.library()
    nf = len(tri)
    size = 3 * nf
    top = lib.top_id(tri, size)
    if top < 0:
        raise _id_range_error()
    bits = max(1, top.bit_length())
    digits = -(-bits // max(8, size.bit_length() - 1))
    width = -(-bits // digits)
    slot_edge, perm = buffer("i", nf, 3), buffer("i", size)
    ne = lib.edge_slots(tri, size, width, buffer("i", 1 << width), perm, slot_edge)
    del perm
    edges = buffer("i", ne, 2)
    lib.edge_ends(tri, size, slot_edge, edges, None)
    return edges, slot_edge


def _incidence(tri, slot_edge, ne: int) -> memoryview:
    """The number of slots of ``tri`` on each of its ``ne`` edges, as int32: ``slot_edge``'s ids counted.

    ``slot_edge`` is :func:`_edge_table`'s, or ids checked to lie below ``ne``.
    """
    incidence = buffer("i", ne)
    _kernels.library().edge_ends(tri, 3 * len(tri), slot_edge, None, incidence)
    return incidence


class Triangulation:
    """Immutable-by-convention abstract 2-complex on vertex ids ``0..num_vertices-1``.

    No per-vertex object is kept; a built filling's positions follow from
    its layer ledger's annuli (:func:`ringfill.serialize.vertex_records`).
    ``triangles`` may be given as any ``(F, 3)`` sequence or buffer of
    non-negative integer ids; it is stored as a new C-contiguous int32
    buffer in canonical rotation (each row rotated so its smallest id comes
    first, as :func:`canonical_triangle` does).  With ``own=True`` the
    caller hands over its buffer: a writable C-contiguous int32 one, such as
    a numpy array, is kept and rotated in place, not copied.  Nothing is
    kept beside the rows: :attr:`edges` and :attr:`num_edges` derive the
    edge table (the edges and each slot's edge id, 2 triangle arrays of
    int32) from one sort on each call, as :func:`validate_disk` and the CSR
    of :func:`ringfill.verify_filling` each do, byte for byte the same, and
    drop it on return.  Instances are cheap to pass around and safe to
    share between threads.
    """

    def __init__(self, n: int, num_vertices: int, triangles, own: bool = False) -> None:
        if n < 3:
            raise ValueError(f"boundary length must be >= 3, got {n}")
        if n > num_vertices:
            raise ValueError(
                f"boundary length {n} exceeds the {num_vertices} vertices: "
                "a disk bounded by C_n has at least n vertices"
            )
        self.n = n
        self.num_vertices = num_vertices
        self.triangles: memoryview = _triangle_rows(triangles, own)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def edges(self) -> memoryview:
        """Undirected edges ``(u, v)`` with ``u <= v`` as an ``(E, 2)`` int32 buffer, ascending, derived afresh."""
        return _edge_table(self.triangles)[0]

    @property
    def num_edges(self) -> int:
        return len(self.edges)


class ValidationReport:
    """Total validation result: every violated invariant with a witness."""

    def __init__(self, failures: list[str] | None = None, counts: dict[str, int] | None = None) -> None:
        self.failures = [] if failures is None else failures
        self.counts = {} if counts is None else counts

    def __eq__(self, other) -> bool:
        return type(other) is ValidationReport and vars(self) == vars(other)

    @property
    def ok(self) -> bool:
        return not self.failures


_LISTED = 10  # witnesses listed per kind of failure
# The marks of the compiled disk_marks (see _kernels.c), per triangle, per
# edge and per vertex; a vertex mark is one more where its link should be a cycle.
_DEGENERATE, _OUTSIDE, _REPEATED = 1, 2, 3
_CYCLE_EDGE, _OFF_CYCLE, _OVERFULL = 1, 2, 3
_UNCOVERED, _MULTI_PATH, _SPLIT_PATH = 1, 2, 4


def _report(failures: list[str], lines: list[str], what: str, total: int | None = None) -> None:
    """Append up to ten of ``lines`` to ``failures``, then how many more ``what`` there are, of ``total``."""
    total = len(lines) if total is None else total
    failures.extend(lines[:_LISTED])
    if total > _LISTED:
        failures.append(f"... and {total - _LISTED} more {what}")


def _first(marks: bytearray, *codes: int) -> list[int]:
    """The first ten positions, ascending, whose mark is one of ``codes``."""
    found = []
    for code in codes:
        at = marks.find(code)
        for _ in range(_LISTED):
            if at < 0:
                break
            found.append(at)
            at = marks.find(code, at + 1)
    return sorted(found)[:_LISTED]


def validate_disk(t: Triangulation) -> ValidationReport:
    """Check that ``t`` is a triangulated disk with boundary exactly C_n.

    Runs every structural invariant in compiled kernels and reports all
    failures at once instead of stopping at the first, so a broken complex
    can be diagnosed in one pass (up to ten witnesses per kind of failure):

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
    exactly when v lies on an incidence-1 edge.  The compiled
    ``disk_marks`` reads an edge table of ``t``'s rows, sorted for this
    call by the kernels' radix sort and dropped on return, and marks every
    triangle, edge, vertex and cycle edge with the failure it witnesses:
    incidences by counting the slot edge ids, repeated
    triangles by a counting sort on their smallest edge id, links and
    connectivity by a union-find that hooks the larger root under the
    smaller.  It takes one int32 scratch array linear in the triangles and
    vertices, whatever the ids, which holds the incidences before the
    union-find reuses it, and this function lists the first ten marks of
    each kind (an overfull edge's incidence counted again to name it).
    The last check is not implied by the others: a disk plus a disjoint
    torus passes every other one.
    Degenerate and out-of-range triangles are reported and left out of the
    link, repeat and connectivity checks; edge counts include them.
    :func:`ringfill.verify.certify` gives a built filling, as every command
    checks one, the same report from one pass per annulus, with no edge table.
    """
    rep = ValidationReport()
    if not t.num_triangles:
        rep.failures.append("complex has no triangles")
        return rep
    _disk_failures(t.n, t.num_vertices, t.triangles, _edge_table(t.triangles), rep)
    return rep


def _disk_failures(n: int, nv: int, tri, table: tuple, rep: ValidationReport) -> None:
    """Write every disk invariant the canonical ``tri`` breaks into ``rep``, with witnesses, and its counts.

    ``table`` is :func:`_edge_table` of ``tri``, which may use any ids.
    Raises ValueError, before the kernel runs, unless the buffers have the
    table's shapes and int32 format, its slot edge ids lie below the edge
    count, and ``3 <= n <= nv``.
    """
    view, pairs = checked(tri, _INT32, (None, 3), "triangles"), checked(table[0], _INT32, (None, 2), "edges")
    edges, slot = table  # the kernels take these, and the views give their ids as ints
    nf, ne = len(view), len(pairs)
    checked(slot, _INT32, (nf, 3), "slot edge ids")
    lib = _kernels.library()
    if not 0 <= lib.top_id(slot, 3 * nf) < max(ne, 1):
        raise ValueError(f"slot edge ids must lie in 0..{ne - 1}")
    if not 3 <= n <= nv <= _MAX_ID:
        raise ValueError(f"a disk bounded by C_{n} needs 3 <= n <= {nv} vertices <= {_MAX_ID}")
    tri_mark, edge_mark, vertex_mark, cycle_mark = bytearray(nf), bytearray(ne), bytearray(nv), bytearray(n)
    scratch = buffer("i", max(2 * ne, ne + 1 + nf, nv))
    components = lib.disk_marks(
        n, nv, tri, nf, slot, edges, ne, scratch, tri_mark, edge_mark, vertex_mark, cycle_mark
    )
    del scratch

    def rows(mark: int) -> list[tuple[int, int, int]]:
        return [(view[f, 0], view[f, 1], view[f, 2]) for f in _first(tri_mark, mark)]

    failures = rep.failures
    for mark, line, what in (
        (_DEGENERATE, "degenerate triangle {}", "degenerate triangles"),
        (_OUTSIDE, f"triangle {{}} references a vertex id outside 0..{nv - 1}", "triangles with out-of-range ids"),
        (_REPEATED, "repeated triangle {}", "repeated triangles"),
    ):
        _report(failures, [line.format(x) for x in rows(mark)], what, tri_mark.count(mark))
    overfull = _first(edge_mark, _OVERFULL)
    inc = _incidence(tri, slot, ne) if overfull else None
    _report(
        failures,
        [f"edge {(pairs[e, 0], pairs[e, 1])} lies in {inc[e]} triangles (expected 1 or 2)" for e in overfull],
        "edges with bad incidence",
        edge_mark.count(_OVERFULL),
    )
    # Edges are distinct, so the boundary is C_n iff its n cycle edges are all incidence-1 edges and no other is.
    absent = [i for i in (*_first(cycle_mark, 0), n - 1) if not cycle_mark[i]]
    if absent:
        missing = sorted({(0, n - 1) if i == n - 1 else (i, i + 1) for i in absent})
        failures.append(f"cycle edges missing from the boundary: {missing[:_LISTED]}")
    if _OFF_CYCLE in edge_mark:
        stray = [(pairs[e, 0], pairs[e, 1]) for e in _first(edge_mark, _OFF_CYCLE)]
        failures.append(f"unexpected boundary edges: {stray}")

    boundary = edge_mark.count(_CYCLE_EDGE) + edge_mark.count(_OFF_CYCLE)
    euler = nv - ne + nf
    rep.counts = {
        "vertices": nv,
        "edges": ne,
        "triangles": nf,
        "boundary_edges": boundary,
        "interior_edges": ne - boundary,
    }
    if euler != 1:
        failures.append(f"Euler formula violated: V - E + F = {nv} - {ne} + {nf} = {euler}, expected 1")

    _report(
        failures,
        [f"vertex {v} lies in no triangle" for v in _first(vertex_mark, _UNCOVERED)],
        "uncovered vertices",
        vertex_mark.count(_UNCOVERED),
    )
    for path, shape, what in (
        (_MULTI_PATH, "a multigraph (repeated link edge)", "vertices with a multigraph link"),
        (_SPLIT_PATH, "disconnected", "vertices with a disconnected link"),
    ):
        _report(
            failures,
            [
                f"link of vertex {v} is {shape}, expected a {'path' if vertex_mark[v] == path else 'cycle'}"
                for v in _first(vertex_mark, path, path + 1)
            ],
            what,
            vertex_mark.count(path) + vertex_mark.count(path + 1),
        )
    if components > 1:
        failures.append(f"complex is disconnected: {components} components")


def cone_over_cycle(n: int) -> Triangulation:
    """The wheel: boundary cycle 0..n-1 plus one apex joined to every vertex."""
    triangles = [(n, i, (i + 1) % n) for i in range(n)]
    return Triangulation(n, n + 1, triangles)
