"""Validation and drift audit chunk by chunk along the ledger, against the whole-complex path.

A chunk is one annulus's slice of the triangle array, or the cone's fan
closing it.  ``certify(build)`` checks a built or loaded filling one chunk
at a time, each annulus as a cyclic strip between two ledger cycles and the
cone as a fan, and ``drift_audit(build)`` is its audit.  Both must give
exactly what the whole complex gives: the same ``ValidationReport``
(failures, witnesses, counts) and ``DriftAudit`` (rows and stray-edge
lines), or the same error, on built fillings, whatever the order of rows
within each chunk, and on corrupted ones.  A strip that passes builds no
edge table; anything irregular falls back to the whole complex, valid disks
whose rows do not follow the ledger among them.
"""
import copy
from fractions import Fraction

import numpy as np
import pytest
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
from ringfill import _kernels
from ringfill.annuli import annulus_triangles, cone_triangles, strip_drifts
from ringfill.verify import _drift_audit

_PARAMS = [("1/10", "1/4"), ("1/5", "1/3"), ("1/100", "1/20"), ("1/3", "1/2")]
_SEEDS = [1, 40, 300, None]  # rows shuffled within each chunk by this seed, or as built (None)


def _chunk_sizes(ledger) -> list[int]:
    """The rows of each annulus, m + M, and of the cone's fan, in ledger order."""
    lengths = [rec.length for rec in ledger]
    return [m + M for m, M in zip(lengths, lengths[1:])] + [lengths[-1]]


def _shuffled(build: BuildResult, seed: int | None) -> BuildResult:
    """``build`` with its rows shuffled within each chunk by ``seed``, or as built for None; no edge table cached."""
    tri = np.array(build.triangulation.triangles)
    if seed is not None:
        rng, top = np.random.default_rng(seed), 0
        for size in _chunk_sizes(build.ledger):
            tri[top : top + size] = rng.permutation(tri[top : top + size])
            top += size
    return _fresh(build, tri)


def _fresh(build: BuildResult, rows=None, num_vertices=None) -> BuildResult:
    """``build`` with a new complex of ``rows`` (its own by default), no edge table cached."""
    t = build.triangulation
    fresh = copy.copy(build)
    nv = t.num_vertices if num_vertices is None else num_vertices
    fresh.triangulation = Triangulation(t.n, nv, t.triangles if rows is None else rows)
    return fresh


def _whole_audit(build: BuildResult):
    """The audit of ``build``'s whole complex, or its error as text."""
    try:
        return _drift_audit(build)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _zeros(ledger) -> list[tuple]:
    """Zero drift terms for each annulus of ``ledger``: :func:`strip_drifts` then checks the strips alone."""
    return [(0, 0, 0, 0)] * (len(ledger) - 1)


def _certified(build: BuildResult):
    """``certify(build)``'s report and audit; if it raises, the whole complex's report, which it ran, and the error."""
    try:
        cert = certify(build)
    except ValueError as exc:
        return validate_disk(build.triangulation), f"ValueError: {exc}"
    return cert.report, cert.audit


def _both_ways(build: BuildResult):
    """Validation and audit of ``build`` along its ledger, and of the whole complex.

    Returns ``(stripped, whole, passed)``: the report and audit of
    :func:`certify`, the whole-complex ones, and whether every strip passed,
    in which case it built no edge table.
    """
    stripped = _fresh(build)
    t = stripped.triangulation
    passed = strip_drifts(t, stripped.ledger, _zeros(stripped.ledger)) is not None
    report, audit = _certified(stripped)
    assert passed == ("_edge_table" not in t.__dict__)
    whole = _fresh(build)
    want = validate_disk(whole.triangulation)
    return (report, audit), (want, _whole_audit(whole)), passed


@pytest.mark.parametrize("n, rho, eta", [(25, "1/10", "1/4"), (64, "1/5", "1/3"), (384, "1/10", "1/4"),
                                         (1024, "1/100", "1/20")])
@pytest.mark.parametrize("seed", _SEEDS)
def test_built_fillings_pass_chunk_by_chunk(n, rho, eta, seed):
    build = _shuffled(build_filling(Params(n, Fraction(rho), Fraction(eta))), seed)
    stripped, whole, passed = _both_ways(build)
    assert passed and stripped == whole and stripped[0].ok and stripped[1].ok
    t = build.triangulation
    assert stripped[0].counts["edges"] == len(t.edges) == t.num_vertices + t.num_triangles - 1


def _canonical(rows) -> list[tuple]:
    """``rows`` each rotated so its smallest id comes first, as a sorted list."""
    rows = np.asarray(rows)
    turn = (np.argmin(rows, axis=1)[:, None] + np.arange(3)) % 3
    return sorted(map(tuple, np.take_along_axis(rows, turn, axis=1).tolist()))


@pytest.mark.parametrize("seed", _SEEDS)
def test_chunks_are_runs_of_whole_annuli_and_slices_of_the_rows(seed, medium_build):
    # Each annulus's rows, as the builder writes them, are one slice of the
    # triangle array after the previous annulus's, and the fan closes it;
    # the strips pass whatever the order within a slice, and not once a row
    # crosses to the next slice.
    build = _shuffled(medium_build, seed)
    ledger, tri, top = build.ledger, np.asarray(build.triangulation.triangles), 0
    for r, size in enumerate(_chunk_sizes(ledger)):
        want = annulus_triangles(ledger[r], ledger[r + 1]) if r + 1 < len(ledger) else cone_triangles(ledger[r])
        assert _canonical(tri[top : top + size]) == _canonical(want)
        top += size
    assert top == len(tri)
    assert strip_drifts(build.triangulation, ledger, _zeros(ledger)) == [0] * (len(ledger) - 1)
    assert "_edge_table" not in build.triangulation.__dict__
    assert drift_audit(build) == _drift_audit(_fresh(medium_build))
    first = _chunk_sizes(ledger)[0]
    crossed = tri.copy()
    crossed[[first - 1, first]] = crossed[[first, first - 1]]  # a row of each of the first two annuli swapped
    assert strip_drifts(_fresh(build, crossed).triangulation, ledger, _zeros(ledger)) is None


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
    stripped, whole, _ = _both_ways(_fresh(build, _corrupt(build, changes)))
    assert stripped[0] == whole[0]  # failures, witnesses and counts
    assert stripped[1] == whole[1]  # rows and stray-edge lines, or the same error


def _fails_as_the_whole_complex(build: BuildResult) -> tuple:
    """``build``'s report and audit, checked to be the whole complex's after every strip did not pass."""
    stripped, whole, passed = _both_ways(build)
    assert not passed and stripped == whole
    return stripped


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
    assert "edge (8, 10) is a chord of cycle 2" in audit.stray_edges


@pytest.mark.parametrize("seed", [1, 300])
def test_a_valid_disk_off_the_ledger_falls_back_and_passes(seed, medium_build, flipped_builds):
    # Rows in reverse order, the two collar annuli's rows swapped, and an
    # edge flipped in place between cycles 2 and 4, each from the rows
    # shuffled within their chunks: each a valid disk whose triangles do
    # not follow the ledger's annuli, so the strips fail and the whole
    # complex is checked.
    build = _shuffled(medium_build, seed)
    tri = np.array(build.triangulation.triangles)
    size = 2 * build.params.n  # rows of a collar annulus
    swapped = np.concatenate([tri[size : 2 * size], tri[:size], tri[2 * size :]])
    a, b = build.ledger[3].vertex(5), build.ledger[3].vertex(6)
    skipped = _corrupt(build, [("flip", _row_with(build, a, b), _corner(build, a, b), 0)])
    for rows in (tri[::-1], swapped, skipped):
        report, audit = _fails_as_the_whole_complex(_fresh(build, rows))
        assert report.ok
    assert audit.stray_edges == [flipped_builds["layer-skipping"][1]]


def test_an_id_moved_inside_an_annulus_fails_as_the_whole_complex(medium_build):
    # (U_5, U_6, W_5) of the equal annulus from cycle 2 becomes (U_5, U_6, W_7):
    # every cycle edge still lies in one row, but the far vertices jump
    ledger = medium_build.ledger
    tri = np.array(medium_build.triangulation.triangles)
    f = _row_with(medium_build, ledger[2].vertex(5), ledger[3].vertex(5), ledger[2].vertex(6))
    tri[f][tri[f] == ledger[3].vertex(5)] = ledger[3].vertex(7)
    report, audit = _fails_as_the_whole_complex(_fresh(medium_build, tri))
    assert not report.ok and not audit.ok


def test_a_strip_whose_far_vertices_wind_twice_fails_as_the_whole_complex():
    # Cycles 0..5 and 6..8 and the apex 9: outer edge i has the far vertex
    # W_(i mod 3), so the far vertices go twice around the inner cycle, whose
    # edges have one row each
    ledger = layer_ledger(6, [("shrink", 3)])
    strip = [(i, (i + 1) % 6, 6 + i % 3) for i in range(6)] + [(6 + j, 6 + (j + 1) % 3, j + 1) for j in range(3)]
    cone = [(6, 7, 9), (7, 8, 9), (8, 6, 9)]
    report, _ = _fails_as_the_whole_complex(BuildResult(Triangulation(6, 10, strip + cone), ledger, None, None))
    assert not report.ok


# The equal annulus between cycles 0..3 and 4..7, as the builder writes it,
# and the fan closing 4..7 with the apex 8; each case breaks one rule of a
# strip that the others leave standing.
_OUTER = [(i, (i + 1) % 4, 4 + i) for i in range(4)]
_INNER = [(4 + j, 4 + (j + 1) % 4, (j + 1) % 4) for j in range(4)]
_STRIPS = {
    "a wrong far vertex": _OUTER + [(4, 5, 3)] + _INNER[1:],  # inner edge 0 should have U_1
    "far vertices that never advance": [(i, (i + 1) % 4, 4) for i in range(4)]
    + [(4 + j, 4 + (j + 1) % 4, 0) for j in range(4)],
    "an outer edge in two rows": [_OUTER[0], (0, 1, 5)] + _OUTER[2:] + _INNER,
}


@pytest.mark.parametrize("case", sorted(_STRIPS))
def test_a_strip_breaking_one_rule_fails_as_the_whole_complex(case):
    ledger = layer_ledger(4, [("collar", 4)])
    cone = [(4, 5, 8), (5, 6, 8), (6, 7, 8), (7, 4, 8)]
    assert strip_drifts(Triangulation(4, 9, _OUTER + _INNER + cone), ledger, _zeros(ledger)) == [0]
    report, _ = _fails_as_the_whole_complex(BuildResult(Triangulation(4, 9, _STRIPS[case] + cone), ledger, None, None))
    assert not report.ok


def test_a_cone_missing_a_fan_row_fails_as_the_whole_complex(medium_build):
    rows = np.array(medium_build.triangulation.triangles)[:-1]
    report, audit = _fails_as_the_whole_complex(_fresh(medium_build, rows))
    assert not report.ok and audit.ok


def _refuse_strips(monkeypatch):
    def refuse(*args):
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr(_kernels.library(), "strip_rows", refuse)


def test_an_irregular_ledger_or_complex_falls_back_before_the_kernel(monkeypatch, medium_build):
    # a ledger that stops one cycle short or starts one cycle in, and a
    # complex of one vertex too many, are refused without a strip checked
    _refuse_strips(monkeypatch)
    t, ledger = medium_build.triangulation, medium_build.ledger
    other = Triangulation(t.n, t.num_vertices + 1, t.triangles)
    for complex_, records in ((t, ledger[:-1]), (t, ledger[1:]), (other, ledger)):
        assert strip_drifts(complex_, records, _zeros(records)) is None
        build = BuildResult(Triangulation(t.n, complex_.num_vertices, t.triangles), records, None, None)
        assert _certified(build)[0] == validate_disk(Triangulation(t.n, complex_.num_vertices, t.triangles))
    audit = drift_audit(_fresh(medium_build, num_vertices=t.num_vertices + 1))
    assert audit == _drift_audit(_fresh(medium_build)) and audit.ok  # the audit reads no vertex count


def _row_with(build: BuildResult, *ids: int) -> int:
    tri = np.asarray(build.triangulation.triangles)
    return int(np.flatnonzero(np.all([(tri == v).any(axis=1) for v in ids], axis=0))[0])


def _corner(build: BuildResult, a: int, b: int) -> int:
    """The corner k of ``a``'s row whose edge to corner k + 1 is (a, b) or (b, a)."""
    row = list(np.asarray(build.triangulation.triangles)[_row_with(build, a, b)])
    return next(k for k in range(3) if {row[k], row[(k + 1) % 3]} == {a, b})
