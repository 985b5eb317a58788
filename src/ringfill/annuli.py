"""Concentric annulus triangulations and the layer ledger that places them.

The vertices of each cycle sit equally spaced on an auxiliary circle of
circumference ``n`` (one boundary edge = one unit), and the annulus between
two consecutive cycles fixes their offset: an equal-length annulus turns its
inner cycle by half an outer step, n/(2m), and a shrink keeps it.  So the
ledger keeps each annulus's kind and lengths and no position, and
:func:`_pair_terms` reads the offset of each annulus's two cycles from its
kind, in exact integers: the strip pass measures its rungs in them, and the
exports form each cycle's absolute phase from them
(:func:`ringfill.serialize.vertex_records`).

The layer ledger is computed first, from the sequence of annuli alone; each
annulus's triangles then follow from its two ledger records, and the cone's
from the innermost one, as the annulus onto a cycle of one vertex, the
apex.  One call of the compiled ``filling_rows`` writes the int32 rows of
every annulus of a ledger and its cone into one array, and one call of the
compiled ``strip_annuli`` checks them there (:func:`strip_drifts`).
"""
from __future__ import annotations

from array import array
from collections.abc import Iterable
from fractions import Fraction

from . import _kernels

__all__ = [
    "staircase_indices",
    "LayerRecord",
    "layer_ledger",
    "annulus_triangles",
    "cone_triangles",
]

# Annulus kinds, recorded on the outer cycle of each annulus:
#   collar            equal-length annulus in the protective collar
#   equal             equal-length annulus inside a constant-length block
#   shrink            staircase annulus dropping to a shorter cycle
#   transition-equal  block transition where the target length is unchanged
_EQUAL_KINDS = ("collar", "equal", "transition-equal")


def staircase_indices(m: int, M: int) -> list[int]:
    """The monotone step sequence ``k_i = floor(M*i/m)`` for ``i = 0..m``.

    Starts at 0, ends at M, and increases by 0 or 1 at each step whenever
    ``M <= m``; it decides which inner vertex each outer edge attaches to in
    a shrinking annulus.
    """
    return [(M * i) // m for i in range(m + 1)]


class LayerRecord:
    """Ledger entry for one cycle and the annulus attached on its inner side.

    ``annulus_kind`` and ``drift_bound`` stay ``None`` on the innermost cycle
    (the cone sits below it, and the auxiliary coordinate is not defined on
    the apex).  ``drift_bound`` is the exact maximum circular displacement a
    single slanted edge of that annulus may have: ``n/(2m)`` for equal-length
    annuli and ``n/M`` for a shrink to length ``M``.  Vertex i of the cycle
    sits at ``(phase + n*i/length) mod n``, where the phase is the sum of the
    half steps n/(2m) of the equal-length annuli outward of the cycle; no
    record keeps it.
    """

    def __init__(
        self, index: int, length: int, first_vertex: int, annulus_kind: str | None = None,
        drift_bound: Fraction | None = None,
    ) -> None:
        self.index = index
        self.length = length
        self.first_vertex = first_vertex
        self.annulus_kind = annulus_kind
        self.drift_bound = drift_bound

    def __eq__(self, other) -> bool:
        return type(other) is LayerRecord and vars(self) == vars(other)

    def vertex(self, i):
        """Id of the ``i``-th cycle vertex, the index taken mod length."""
        return self.first_vertex + (i % self.length)


def layer_ledger(n: int, annuli: Iterable[tuple[str, int]]) -> list[LayerRecord]:
    """The ledger of a disk filling C_n, from its annuli listed boundary inward.

    Each annulus is ``(kind, inner length)``.  An equal-length kind keeps the
    cycle length and offsets the inner cycle by half an outer step, n/(2m),
    which is also its drift bound; a ``"shrink"`` keeps the offset and drops
    to length M with drift bound n/M.  Cycles take consecutive id ranges from
    0, and the apex of the cone takes the id after the innermost cycle's.
    """
    if n < 3:
        raise ValueError(f"boundary cycle needs length >= 3, got {n}")
    ledger = []
    length, first = n, 0
    for kind, inner in annuli:
        if kind == "shrink":
            if inner < 3 or inner > length:
                raise ValueError(f"shrinking annulus needs 3 <= target <= {length}, got {inner}")
            bound = Fraction(n, inner)
        elif kind in _EQUAL_KINDS:
            if inner != length:
                raise ValueError(f"{kind} annulus keeps the cycle length {length}, got {inner}")
            bound = Fraction(n, 2 * length)
        else:
            raise ValueError(f"unknown annulus kind {kind!r}")
        ledger.append(LayerRecord(len(ledger), length, first, kind, bound))
        length, first = inner, first + length
    ledger.append(LayerRecord(len(ledger), length, first))
    return ledger


def _pair_terms(n: int, rec: LayerRecord, M: int) -> tuple[int, int, int, int]:
    """The scale ``S`` and the terms ``a, b, c`` of the circular distance of rungs of the annulus below ``rec``.

    Vertex i of the outer cycle, of m vertices, and vertex j of the inner
    one, of M, sit ``(a + b i - c j) mod n S`` units of ``1/S`` apart, so
    the annulus turns its inner cycle by ``-a/S mod n``.  An equal-length
    annulus turns it by n/(2m), an offset of n - n/(2m): in units of
    1/(2m), ``a = (2m - 1) n`` and ``b = c = 2n``.  A shrink keeps the
    offset 0: in units of 1/(mM), ``a = 0``, ``b = nM`` and ``c = nm``.
    """
    m = rec.length
    if rec.annulus_kind == "shrink":
        return m * M, 0, n * M, n * m
    return 2 * m, (2 * m - 1) * n, 2 * n, 2 * n


def _check_cycle(rec: LayerRecord, extra: int = 0) -> None:
    """Raise ValueError unless ``rec``'s cycle (and ``extra`` ids after it) has int32 ids and a vertex."""
    last = rec.first_vertex + rec.length - 1 + extra
    if rec.length < 1 or rec.first_vertex < 0 or last > _kernels.MAX_ID:
        raise ValueError(
            f"cycle {rec.index} of {rec.length} vertices from id {rec.first_vertex} needs ids in 0..{_kernels.MAX_ID}"
        )


def _annulus_size(outer: LayerRecord, inner: LayerRecord) -> int:
    """The number of triangles of the annulus between two consecutive ledger cycles.

    2m for an equal-length annulus of m outer vertices; m + M for a shrink
    to M <= m vertices (each outer edge gives one triangle, and M more where
    the staircase advances); m for the fan onto a cycle of one vertex, an apex.
    """
    m, M = outer.length, inner.length
    return m if M == 1 else m + min(M, m) if outer.annulus_kind == "shrink" else 2 * m


def _filling_rows(cycles: list[LayerRecord], cone: bool) -> memoryview:
    """The int32 rows of the annuli between consecutive ``cycles``, then, if ``cone``, of the fan closing the last.

    The ids of every cycle, and the apex, the id after the last cycle's,
    if ``cone``, must fit int32: each is checked, and a ValueError raised
    otherwise, before one call of the compiled ``filling_rows`` writes the
    rows into a new buffer, from a table of each cycle's first id, length
    and shrink flag, with the apex as a last cycle of one vertex.
    """
    last = cycles[-1]
    for rec in cycles[:-1]:
        _check_cycle(rec)
    _check_cycle(last, extra=cone)
    if cone:
        cycles = [*cycles, LayerRecord(len(cycles), 1, last.first_vertex + last.length)]
    table = array("i", [x for rec in cycles for x in (rec.first_vertex, rec.length, rec.annulus_kind == "shrink")])
    out = _kernels.buffer("i", sum(map(_annulus_size, cycles, cycles[1:])), 3)
    _kernels.library().filling_rows(table, len(cycles), out)
    return out


def annulus_triangles(outer: LayerRecord, inner: LayerRecord) -> memoryview:
    """The ``(k, 3)`` int32 triangles of the annulus between two consecutive ledger cycles.

    An equal-length annulus emits the 2m triangles (U_i, U_{i+1}, V_i) and
    (U_{i+1}, V_i, V_{i+1}); every slanted edge has circular displacement
    exactly n/(2m).  A shrink to length M runs the staircase: each outer edge
    contributes one triangle when its staircase index stays put and two when
    it advances, m + M triangles in all, and every slanted edge has circular
    displacement at most n/M.  An inner cycle of one vertex is an apex, and
    the annulus onto it the cone's fan.  The rows are a new int32 buffer
    (see :func:`_filling_rows`).
    """
    return _filling_rows([outer, inner], cone=False)


def cone_triangles(innermost: LayerRecord) -> memoryview:
    """The int32 fan (apex, V_i, V_{i+1}) closing the innermost cycle with one apex, the id after the cycle's."""
    return _filling_rows([innermost], cone=True)


# The defects of the compiled strip_annuli, by its codes 2 to 7 (1 is a wrong row count).
_DEFECTS = ("an id off its two cycles", "three ids on one cycle", "a pair not adjacent on its cycle",
            "a cycle edge in two rows", "rungs that wind other than once", "a wrong far vertex")


def strip_drifts(t, ledger: list[LayerRecord]) -> tuple[list[Fraction | None], list[str]]:
    """Each annulus's largest rung displacement, None if it is no strip of ``ledger``, and a line per defect.

    One call of the compiled ``strip_annuli`` checks every strip.  Its
    counting pass gives each row of ``t`` to the cycle of its first,
    smallest, id.  The builder writes annulus r's m + M rows after annulus
    r - 1's, and the cone's fan last, and build files keep that order: rows
    so grouped are checked in place, each annulus one slice of the triangle
    array.  Rows in any other order make the kernel return before any strip,
    and the second call sorts them by counting into an index of one int32 a
    row, and reads them through it.  Each annulus takes one linear pass with
    2 (m + M) int32 of scratch.  It passes a *cyclic strip*: each row holds one
    edge of one cycle and one vertex of the other, each cycle edge lies in
    exactly one row, and the far vertices over consecutive outer edges
    advance around the inner cycle once, each inner edge on the way having
    the outer vertex between those edges as its far vertex.  The rungs,
    the edges between the cycles, then follow a monotone cyclic lattice
    path in the m x M torus, the structure of a contour band (Fuchs, Kedem
    and Uselton, "Optimal surface reconstruction from planar contours",
    CACM 1977).

    *Soundness.*  If every annulus passes, and the cone is the fan over the
    innermost cycle, ``t`` is a disk bounded by C_n, so
    :func:`ringfill.validate_disk` reports no failure.  A cyclic strip's
    m + M triangles, each one cycle edge, are distinct, and consecutive
    ones share a rung.  No step along the path is a whole turn, so its m +
    M points, the rungs, are distinct, and the triangles on each vertex are
    one run of consecutive ones that spans less than a turn of the other
    cycle: the vertex's link in the strip is a simple path between its two
    neighbours on its own cycle (distinct, as m, M >= 3), so every rung
    lies in 2 triangles and every cycle edge in 1.  The strip is thus a connected surface with
    V - E + F = (m + M) - 2(m + M) + (m + M) = 0 and two boundary cycles:
    an annulus bounded by its two ledger cycles, with no chord.  Strips of
    consecutive annuli share exactly the cycle between them, since every
    row's ids lie on its own two cycles, and the fan is a disk bounded by
    the innermost cycle; gluing an annulus to a disk along a whole boundary
    cycle gives a disk.  Every edge is then a cycle edge, a rung or an apex
    edge, in 2 triangles except those of the outer cycle 0..n-1; each link
    is the union of the two paths from either side, a cycle, or one path on
    the boundary; the rows cover every vertex, and V - E + F = 1.

    An annulus's rungs are exactly its slanted edges, measured exactly in
    the units 1/S of its :func:`_pair_terms`.  A defect is ``annulus r
    (kind) is not a strip: <defect> at row f (a, b, c)``, the cone's ``the
    cone over cycle r is not a fan: ...``, or a row whose first id lies on
    no cycle; or, before any strip, a ledger that does not tile ``0..apex``
    from C_n in cycles of at least 3 vertices, an apex id beyond
    ``MAX_ID``, or a vertex count other than the ledger's, so that every id
    the kernel reads is in range.  A row too many or too few is a defect of
    the annulus it is missing from or added to.  No defect means a disk.
    Raises ValueError, before the kernel runs, unless the rows are a
    C-contiguous ``(F, 3)`` int32 buffer and every annulus's terms keep the
    kernel's arithmetic within int64.
    """
    lengths = [rec.length for rec in ledger]
    apex, depth = ledger[-1].first_vertex + lengths[-1], len(ledger)
    sizes = [m + M for m, M in zip(lengths, lengths[1:])] + [lengths[-1]]
    tiled = (
        ledger[0].first_vertex == 0
        and all(rec.first_vertex + rec.length == nxt.first_vertex for rec, nxt in zip(ledger, ledger[1:]))
        and min(lengths) >= 3
        and lengths[0] == t.n
    )
    lines = [
        line
        for bad, line in (
            (not tiled, f"ledger cycles do not tile the ids 0..{apex - 1} in order from C_{t.n}, each of 3 or more "
                        "vertices"),
            (apex > _kernels.MAX_ID, f"the apex id {apex} is past {_kernels.MAX_ID}"),
            (t.num_vertices != apex + 1, f"{t.num_vertices} vertices, not the ledger's {apex + 1}"),
        )
        if bad
    ]
    if lines:
        return [None] * (depth - 1), lines
    pairs = [_pair_terms(t.n, rec, M) for rec, M in zip(ledger, lengths[1:])]
    terms = array("q")
    for (scale, a, b, c), m, M in zip(pairs, lengths, lengths[1:]):
        period = t.n * scale
        if not (2 * period < 2**63 and 0 <= a < period and 0 <= b * (m - 1) < period and 0 <= c * (M - 1) < period):
            raise ValueError(f"drift terms {(a, b, c)} exceed the int64 period {period}")
        terms.extend((a, b, c, period))
    terms.extend((0, 0, 0, 0))  # the cone's fan, inward of the last cycle, has none
    tri, lib, index = _kernels.checked(t.triangles, _kernels.INT32, (None, 3), "triangles"), _kernels.library(), None
    start = array("i", [*(rec.first_vertex for rec in ledger), apex])
    count, out = _kernels.buffer("i", depth + 1), _kernels.buffer("q", depth, 2)
    scratch = _kernels.buffer("i", 2 * max(sizes) + 2)
    if lib.strip_annuli(t.triangles, len(tri), start, depth, terms, count, None, scratch, out):
        index = _kernels.buffer("i", len(tri))
        lib.strip_annuli(t.triangles, len(tri), start, depth, terms, count, index, scratch, out)

    def row(f: int) -> str:
        return f"row {f} ({tri[f, 0]}, {tri[f, 1]}, {tri[f, 2]})"

    for r, (rec, size) in enumerate(zip(ledger, sizes)):
        code, f = -out[r, 0], out[r, 1]
        if code > 0:
            cause = f"{_DEFECTS[code - 2]} at {row(f)}" if code > 1 else f"{count[r]} rows, not {size}"
            what = (f"annulus {r} ({rec.annulus_kind}) is not a strip" if r + 1 < depth
                    else f"the cone over cycle {r} is not a fan")
            lines.append(f"{what}: {cause}")
    if count[depth]:  # the rows on no cycle come last
        top = len(tri) - count[depth]
        lines.append(f"{row(top if index is None else index[top])} starts on no cycle")
    return [None if out[r, 0] < 0 else Fraction(out[r, 0], scale) for r, (scale, *_) in enumerate(pairs)], lines
