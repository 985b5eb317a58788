"""Validation and drift audit annulus by annulus along the ledger, against the whole complex.

A chunk is one annulus's rows, or the cone's fan closing it.
``certify(build)`` checks a built or loaded filling one chunk at a time,
each annulus as a cyclic strip between two ledger cycles and the cone as a
fan, and ``drift_audit(build)`` is its audit.  Rows go to the chunk of the
cycle of their first id, in place where they come grouped, as built, and
through a row index otherwise, so valid disks in any row order pass.  A
chunk that is no strip is a named defect: the audit fails, listing it,
and the report is the whole complex's ``validate_disk``.  Either way the
verdict, the report and, when it passes, the drift rows must be what the
whole complex gives: ``validate_disk`` and ``reference_impl.drift_audit``
over the sorted edge table (``reference_impl.assert_certificate``), on
built fillings, whatever the order of their rows, and on corrupted ones.
A complex with no defect builds no edge table.
"""
import copy
from fractions import Fraction

import numpy as np
import pytest
import reference_impl as ref
from hypothesis import assume, given, settings, strategies as st

from ringfill import (
    BuildResult,
    Params,
    ScheduleError,
    Triangulation,
    build_filling,
    certify,
    drift_audit,
    layer_ledger,
    validate_disk,
)
from ringfill import _kernels, annuli, simplicial
from ringfill.annuli import annulus_triangles, cone_triangles, strip_drifts

_PARAMS = [("1/10", "1/4"), ("1/5", "1/3"), ("1/100", "1/20"), ("1/3", "1/2")]
_SEEDS = [1, 40, 300, None]  # rows shuffled within each chunk by this seed, or as built (None)


def _chunk_sizes(ledger) -> list[int]:
    """The rows of each annulus, m + M, and of the cone's fan, in ledger order."""
    lengths = [rec.length for rec in ledger]
    return [m + M for m, M in zip(lengths, lengths[1:])] + [lengths[-1]]


def _shuffled(build: BuildResult, seed: int | None) -> BuildResult:
    """``build`` with its rows shuffled within each chunk by ``seed``, or as built for None, in a new complex."""
    tri = np.array(build.triangulation.triangles)
    if seed is not None:
        rng, top = np.random.default_rng(seed), 0
        for size in _chunk_sizes(build.ledger):
            tri[top : top + size] = rng.permutation(tri[top : top + size])
            top += size
    return _fresh(build, tri)


def _fresh(build: BuildResult, rows) -> BuildResult:
    """``build`` with a new complex of ``rows``."""
    t = build.triangulation
    fresh = copy.copy(build)
    fresh.triangulation = Triangulation(t.n, t.num_vertices, rows)
    return fresh


def _edge_tables(call):
    """``call()`` and the number of edge tables it sorted, counted by a wrapped ``simplicial._edge_table``."""
    calls = []
    sort = simplicial._edge_table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplicial, "_edge_table", lambda tri: calls.append(len(tri)) or sort(tri))
        return call(), len(calls)


def _checked(build: BuildResult):
    """``certify`` of ``build``, checked against the whole complex.

    It sorts one edge table exactly when it finds a defect, for the report
    of ``validate_disk``, and none otherwise; unless it passes it names a
    failure.
    """
    cert, tables = _edge_tables(lambda: certify(build))
    ref.assert_certificate(cert, build)
    assert tables == (1 if cert.audit.defects else 0)
    assert cert.ok or cert.report.failures or cert.audit.defects or cert.audit.failures()
    return cert


@pytest.mark.parametrize("n, rho, eta", [(25, "1/10", "1/4"), (64, "1/5", "1/3"), (384, "1/10", "1/4"),
                                         (1024, "1/100", "1/20")])
@pytest.mark.parametrize("seed", _SEEDS)
def test_built_fillings_pass_chunk_by_chunk(n, rho, eta, seed):
    build = _shuffled(build_filling(Params(n, Fraction(rho), Fraction(eta))), seed)
    cert = _checked(build)
    assert cert.ok and cert.audit.defects == []
    t = build.triangulation
    assert cert.report.counts["edges"] == len(t.edges) == t.num_vertices + t.num_triangles - 1


def _canonical(rows) -> list[tuple]:
    """``rows`` each rotated so its smallest id comes first, as a sorted list."""
    rows = np.asarray(rows)
    turn = (np.argmin(rows, axis=1)[:, None] + np.arange(3)) % 3
    return sorted(map(tuple, np.take_along_axis(rows, turn, axis=1).tolist()))


@pytest.mark.parametrize("seed", _SEEDS)
def test_chunks_are_runs_of_whole_annuli_and_slices_of_the_rows(seed, medium_build):
    # Each annulus's rows, as the builder writes them, are one slice of the
    # triangle array after the previous annulus's, and the fan closes it;
    # the strips pass whatever the order within a slice, and through the
    # row index once a row crosses to the next slice.
    build = _shuffled(medium_build, seed)
    ledger, tri, top = build.ledger, np.asarray(build.triangulation.triangles), 0
    for r, size in enumerate(_chunk_sizes(ledger)):
        want = annulus_triangles(ledger[r], ledger[r + 1]) if r + 1 < len(ledger) else cone_triangles(ledger[r])
        assert _canonical(tri[top : top + size]) == _canonical(want)
        top += size
    assert top == len(tri)
    rows, _ = ref.drift_audit(medium_build)
    assert _edge_tables(lambda: strip_drifts(build.triangulation, ledger)) == ((rows, []), 0)
    assert [row.max_observed for row in drift_audit(build).rows] == rows
    first = _chunk_sizes(ledger)[0]
    crossed = tri.copy()
    crossed[[first - 1, first]] = crossed[[first, first - 1]]  # a row of each of the first two annuli swapped
    crossed = _fresh(build, crossed)
    assert strip_drifts(crossed.triangulation, ledger) == (rows, [])
    assert _edge_tables(lambda: drift_audit(crossed)) == (drift_audit(build), 0)


# Corruptions that keep every row where it is, or add one beside or at the end:
# an edge flip, a dropped or duplicated triangle, a chord of a cycle, an id
# moved to a cycle at least two layers away, and an id moved along its cycle.
_KINDS = ["flip", "drop", "duplicate", "append", "chord", "skip", "move"]


def _cycle_of(ledger, v: int) -> int:
    return next((r for r, rec in enumerate(ledger) if v < rec.first_vertex + rec.length), len(ledger))


def _corrupt(build: BuildResult, changes) -> np.ndarray:
    tri = np.array(build.triangulation.triangles)
    ledger, apex = build.ledger, build.apex
    for kind, f, k, pick in changes:
        f %= len(tri)
        row = tri[f]
        a, b = row[k], row[(k + 1) % 3]
        if kind == "flip":  # the edge (a, b) of rows f and g becomes (c, d), both rows kept in place
            g = [h for h in np.flatnonzero((tri == a).any(axis=1) & (tri == b).any(axis=1)) if h != f]
            if g:
                c, d = row[(k + 2) % 3], int(sum(tri[g[0]])) - a - b
                tri[f], tri[g[0]] = (a, d, c), (d, b, c)
        elif kind == "drop" and len(tri) > 1:
            tri = np.delete(tri, f, axis=0)
        elif kind == "duplicate":
            tri = np.insert(tri, f, row, axis=0)
        elif kind == "append":
            tri = np.vstack([tri, row[[1, 2, 0]]])
        elif kind == "chord":  # b moves to a's cycle, at least two steps from a
            r = _cycle_of(ledger, a)
            if r < len(ledger) and ledger[r].length > 3:
                rec = ledger[r]
                i = a - rec.first_vertex
                tri[f, (k + 1) % 3] = rec.vertex(i + 2 + pick % (rec.length - 3))
        elif kind == "skip":  # a moves to a cycle (or the apex) at least two layers from its own
            r = _cycle_of(ledger, a)
            far = [s for s in range(len(ledger) + 1) if abs(s - r) >= 2]
            if far:
                s = far[pick % len(far)]
                tri[f, k] = apex if s == len(ledger) else ledger[s].vertex(pick)
        else:  # move: a moves along its own cycle
            r = _cycle_of(ledger, a)
            if r < len(ledger):
                tri[f, k] = ledger[r].vertex(a - ledger[r].first_vertex + 1 + pick % (ledger[r].length - 1))
    return tri


_changes = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 10**6)),
    min_size=1,
    max_size=3,
)


@given(n=st.integers(12, 64), params=st.sampled_from(_PARAMS), changes=_changes)
@settings(max_examples=150, deadline=None)
def test_corrupted_fillings_give_the_whole_complex_report_and_audit(n, params, changes):
    try:
        build = build_filling(Params(n, Fraction(params[0]), Fraction(params[1])))
    except ScheduleError:
        assume(False)
    _checked(_fresh(build, _corrupt(build, changes)))


def _fails_as_the_whole_complex(build: BuildResult) -> tuple:
    """``build``'s report and audit, checked against the whole complex after a defect."""
    cert = _checked(build)
    assert cert.audit.defects and not cert.ok
    return cert.report, cert.audit


def test_every_staircase_shape_is_a_strip_within_its_bound():
    # The staircase lemma, for every shape with 3 <= M <= m <= 200: the
    # shrink from m to M is a cyclic strip whose rungs stay within its
    # drift bound n/M, reaching it only where M = m, and the equal annulus
    # of m is one with every rung at n/(2m).  Rungs scale with n and do not
    # depend on the ids, so the lemma holds at every n.
    for m in range(3, 201):
        for kind, M in [("equal", m), *(("shrink", M) for M in range(3, m + 1))]:
            ledger = layer_ledger(m, [(kind, M)])
            t = Triangulation(m, m + M + 1, annuli._filling_rows(ledger, cone=True), own=True)
            (drift,), lines = strip_drifts(t, ledger)
            bound = ledger[0].drift_bound
            assert lines == [] and drift <= bound and (drift == bound) == (kind == "equal" or M == m), (kind, m, M)


def _shared_chord():
    """Two annuli that each hold the chord (8, 10) of the cycle between them, and their ledger.

    Cycles 0, 1 and 2 of four vertices each (ids 0..3, 4..7 and 8..11) and
    the apex 12.  0..3 ring 4, 5, 6, which ring 8, 10, 11, and 7 fills the
    triangle 8, 9, 10; the cone is the disk of 8..11 cut by the chord, with
    the apex in the half 8, 10, 11.
    """
    outer = [(0, 1, 4), (1, 5, 4), (1, 2, 5), (2, 6, 5), (2, 3, 6), (3, 4, 6), (3, 0, 4),
             (4, 5, 8), (5, 10, 8), (5, 6, 10), (6, 11, 10), (6, 4, 11), (4, 8, 11),
             (7, 8, 9), (7, 9, 10), (7, 8, 10)]
    inner = [(8, 9, 10), (12, 8, 10), (12, 10, 11), (12, 11, 8)]
    ledger = layer_ledger(4, [("collar", 4), ("shrink", 4)])  # 8 triangles an annulus
    return outer, inner, ledger


def test_two_chunks_sharing_a_chord_fail_as_the_whole_complex():
    outer, inner, ledger = _shared_chord()
    build = BuildResult(Triangulation(4, 13, outer + inner), ledger, None, None)
    report, audit = _fails_as_the_whole_complex(build)
    assert "edge (8, 10) lies in 4 triangles (expected 1 or 2)" in report.failures
    assert audit.defects == [
        "annulus 0 (collar) is not a strip: a pair not adjacent on its cycle at row 5 (3, 4, 6)",
        "annulus 1 (shrink) is not a strip: a pair not adjacent on its cycle at row 8 (5, 10, 8)",
        "the cone over cycle 2 is not a fan: three ids on one cycle at row 16 (8, 9, 10)",
    ]


@pytest.mark.parametrize("seed", [1, 300])
def test_a_valid_disk_off_the_ledger_falls_back_and_passes(seed, medium_build):
    # Rows in reverse order and the two collar annuli's rows swapped, each
    # from the rows shuffled within their chunks: valid disks whose rows do
    # not come grouped, which the strips read through the row index and
    # pass.  An edge flipped in place between cycles 2 and 4 leaves a valid
    # disk with an edge of no annulus: annulus 2 holds a row off its cycles.
    build = _shuffled(medium_build, seed)
    tri = np.array(build.triangulation.triangles)
    size = 2 * build.params.n  # rows of a collar annulus
    swapped = np.concatenate([tri[size : 2 * size], tri[:size], tri[2 * size :]])
    for rows in (tri[::-1], swapped):
        cert = _checked(_fresh(build, rows))
        assert cert.ok and cert.audit == drift_audit(medium_build)
    a, b = build.ledger[3].vertex(5), build.ledger[3].vertex(6)
    skipped = _fresh(build, _corrupt(build, [("flip", _row_with(build, a, b), _corner(build, a, b), 0)]))
    report, audit = _fails_as_the_whole_complex(skipped)
    row = {1: 259, 300: 367}[seed]
    assert report.ok and audit.defects == [
        f"annulus 2 (collar) is not a strip: an id off its two cycles at row {row} (134, 197, 261)",
        "annulus 3 (collar) is not a strip: 127 rows, not 128",
    ]


def test_an_id_moved_inside_an_annulus_fails_as_the_whole_complex(medium_build):
    # (U_5, U_6, W_5) of the equal annulus from cycle 2 becomes (U_5, U_6, W_7):
    # every cycle edge still lies in one row, but the far vertices jump
    ledger = medium_build.ledger
    tri = np.array(medium_build.triangulation.triangles)
    f = _row_with(medium_build, ledger[2].vertex(5), ledger[3].vertex(5), ledger[2].vertex(6))
    tri[f][tri[f] == ledger[3].vertex(5)] = ledger[3].vertex(7)
    report, audit = _fails_as_the_whole_complex(_fresh(medium_build, tri))
    assert not report.ok
    assert audit.defects == ["annulus 2 (collar) is not a strip: a wrong far vertex at row 267 (134, 197, 198)"]


def test_a_strip_whose_far_vertices_wind_twice_fails_as_the_whole_complex():
    # Cycles 0..5 and 6..8 and the apex 9: outer edge i has the far vertex
    # W_(i mod 3), so the far vertices go twice around the inner cycle, whose
    # edges have one row each
    ledger = layer_ledger(6, [("shrink", 3)])
    strip = [(i, (i + 1) % 6, 6 + i % 3) for i in range(6)] + [(6 + j, 6 + (j + 1) % 3, j + 1) for j in range(3)]
    cone = [(6, 7, 9), (7, 8, 9), (8, 6, 9)]
    report, audit = _fails_as_the_whole_complex(BuildResult(Triangulation(6, 10, strip + cone), ledger, None, None))
    assert not report.ok
    assert audit.defects == ["annulus 0 (shrink) is not a strip: rungs that wind other than once at row 3 (3, 4, 6)"]


# The equal annulus between cycles 0..3 and 4..7, as the builder writes it,
# and the fan closing 4..7 with the apex 8; each case breaks one rule of a
# strip that the others leave standing, and names it: one case for each of
# strip_annuli's defects.
_OUTER = [(i, (i + 1) % 4, 4 + i) for i in range(4)]
_INNER = [(4 + j, 4 + (j + 1) % 4, (j + 1) % 4) for j in range(4)]
_STRIPS = {
    "a wrong far vertex": (_OUTER + [(4, 5, 3)] + _INNER[1:], "a wrong far vertex at row 4 (3, 4, 5)"),  # not U_1
    "far vertices that never advance": (
        [(i, (i + 1) % 4, 4) for i in range(4)] + [(4 + j, 4 + (j + 1) % 4, 0) for j in range(4)],
        "rungs that wind other than once at row 3 (0, 4, 3)",
    ),
    "an outer edge in two rows": ([_OUTER[0], (0, 1, 5)] + _OUTER[2:] + _INNER, "a cycle edge in two rows at row 1 (0, 1, 5)"),
    "an inner edge missing": (_OUTER + _INNER[1:], "7 rows, not 8"),
    "an apex in the annulus": (_OUTER[:3] + [(3, 0, 8)] + _INNER, "an id off its two cycles at row 3 (0, 8, 3)"),
    "a triangle of the outer cycle": ([(0, 1, 2)] + _OUTER[1:] + _INNER, "three ids on one cycle at row 0 (0, 1, 2)"),
    "a chord of the outer cycle": ([(0, 2, 4)] + _OUTER[1:] + _INNER, "a pair not adjacent on its cycle at row 0 (0, 2, 4)"),
}


@pytest.mark.parametrize("case", sorted(_STRIPS))
def test_a_strip_breaking_one_rule_fails_as_the_whole_complex(case):
    ledger = layer_ledger(4, [("collar", 4)])
    cone = [(4, 5, 8), (5, 6, 8), (6, 7, 8), (7, 4, 8)]
    assert strip_drifts(Triangulation(4, 9, _OUTER + _INNER + cone), ledger) == ([Fraction(1, 2)], [])  # n/(2m)
    rows, defect = _STRIPS[case]
    lines = [f"annulus 0 (collar) is not a strip: {defect}"]
    if len(rows) < 8:  # a row off every cycle keeps the row count, and names itself
        rows, lines = rows + [(8, 8, 8)], lines + ["row 7 (8, 8, 8) starts on no cycle"]
    report, audit = _fails_as_the_whole_complex(BuildResult(Triangulation(4, 9, rows + cone), ledger, None, None))
    assert not report.ok and audit.defects == lines


def test_a_cone_missing_a_fan_row_fails_as_the_whole_complex(medium_build):
    rows = np.array(medium_build.triangulation.triangles)[:-1]
    report, audit = _fails_as_the_whole_complex(_fresh(medium_build, rows))
    assert not report.ok and audit.defects == ["the cone over cycle 23 is not a fan: 15 rows, not 16"]
    assert [row.max_observed for row in audit.rows] == ref.drift_audit(medium_build)[0]


def _refuse_strips(monkeypatch):
    def refuse(*args):
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr(_kernels.library(), "strip_annuli", refuse)


def test_an_irregular_ledger_or_complex_falls_back_before_the_kernel(monkeypatch, medium_build):
    # a ledger that stops one cycle short or starts one cycle in, a complex
    # of one vertex too many, and a ledger whose ids pass int32 are refused,
    # each with its defects, without a strip checked
    _refuse_strips(monkeypatch)
    t, ledger = medium_build.triangulation, medium_build.ledger
    past = [copy.copy(rec) for rec in ledger]
    for rec in past[1:]:
        rec.first_vertex += 2**31
    past[0].length += 2**31
    cases = (
        (ledger[:-1], t.num_vertices, ["1235 vertices, not the ledger's 1219"]),
        (ledger[1:], t.num_vertices, ["ledger cycles do not tile the ids 0..1233 in order from C_64, each of 3 or more "
                                      "vertices"]),
        (ledger, t.num_vertices + 1, ["1236 vertices, not the ledger's 1235"]),
        (past, t.num_vertices, ["ledger cycles do not tile the ids 0..2147484881 in order from C_64, each of 3 or "
                                "more vertices", "the apex id 2147484882 is past 2147483647",
                                "1235 vertices, not the ledger's 2147484883"]),
    )
    for records, nv, lines in cases:
        complex_ = Triangulation(t.n, nv, t.triangles)
        assert strip_drifts(complex_, records) == ([None] * (len(records) - 1), lines)
        cert = certify(BuildResult(complex_, records, None, None))
        assert cert.report == validate_disk(Triangulation(t.n, nv, t.triangles))
        assert cert.audit.defects == lines and cert.audit.rows == [] and not cert.ok


def _row_with(build: BuildResult, *ids: int) -> int:
    tri = np.asarray(build.triangulation.triangles)
    return int(np.flatnonzero(np.all([(tri == v).any(axis=1) for v in ids], axis=0))[0])


def _corner(build: BuildResult, a: int, b: int) -> int:
    """The corner k of ``a``'s row whose edge to corner k + 1 is (a, b) or (b, a)."""
    row = list(np.asarray(build.triangulation.triangles)[_row_with(build, a, b)])
    return next(k for k in range(3) if {row[k], row[(k + 1) % 3]} == {a, b})
