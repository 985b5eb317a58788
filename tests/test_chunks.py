"""Validation and drift audit chunk by chunk along the ledger, against the whole-complex path.

``validate_disk(t, ledger)`` checks a built or loaded filling one run of
annuli at a time, each capped by a temporary cone vertex, and
``drift_audit(build)`` reads each chunk's own edge table.  Both must give
exactly what the whole complex gives: the same ``ValidationReport``
(failures, witnesses, counts) and ``DriftAudit`` (rows and stray-edge
lines), or the same error, on built fillings and on corrupted ones, with
chunks of one annulus up to the default size.  Two cases show why the
fallback and the chord check are needed: a valid disk whose rows do not
follow the ledger, and two chunks that each pass while sharing a chord.
"""
import copy
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ringfill.chunks as chunks
from ringfill.chunks import validated_drift_audit
from ringfill.verify import DriftAudit
from ringfill import (
    BuildResult,
    Params,
    ScheduleError,
    Triangulation,
    build_filling,
    drift_audit,
    layer_ledger,
    validate_disk,
)

_PARAMS = [("1/10", "1/4"), ("1/5", "1/3"), ("1/100", "1/20"), ("1/3", "1/2")]
_SIZES = [1, 40, 300, None]  # triangles per chunk: one annulus each, up to the default (None)


@contextmanager
def _chunks_of(size: int | None):
    """Chunks of at least ``size`` triangles, whatever their caps, or the default chunks for None."""
    with pytest.MonkeyPatch.context() as patch:
        if size is not None:
            patch.setattr(chunks, "_CHUNK", size)
            patch.setattr(chunks, "_CAP_SHARE", 0)
        yield


def _fresh(build: BuildResult, rows=None) -> BuildResult:
    """``build`` with a new complex of ``rows`` (its own by default), no edge table cached."""
    t = build.triangulation
    fresh = copy.copy(build)
    fresh.triangulation = Triangulation(t.n, t.num_vertices, t.triangles if rows is None else rows)
    return fresh


def _audit(build: BuildResult):
    """``drift_audit``'s result, or its error as text."""
    try:
        return drift_audit(build)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _both_ways(build: BuildResult, size: int):
    """Validation and audit of ``build`` along its ledger in chunks of ``size``, and of the whole complex.

    Returns ``(chunked, whole, cached)``: the chunked report and audit, the
    whole-complex ones, and whether the chunked path left an edge table.
    The one pass of ``ringfill audit`` gives the same audit, or None where
    the whole complex is no disk.
    """
    chunked, joint = _fresh(build), _fresh(build)
    t = chunked.triangulation
    with _chunks_of(size):
        report = validate_disk(t, chunked.ledger)
        passed = report.ok and "_edge_table" not in t.__dict__  # every chunk passed
        audit = _audit(chunked)
        both = validated_drift_audit(joint)
    cached = "_edge_table" in t.__dict__
    assert "_edge_table" not in joint.triangulation.__dict__
    whole = _fresh(build)
    want = validate_disk(whole.triangulation)
    assert "_edge_table" in whole.triangulation.__dict__  # so the audit reads the whole table
    whole_audit = _audit(whole)
    assert both == (whole_audit if passed and isinstance(whole_audit, DriftAudit) else None)
    return (report, audit), (want, whole_audit), cached


@pytest.mark.parametrize("n, rho, eta", [(25, "1/10", "1/4"), (64, "1/5", "1/3"), (384, "1/10", "1/4"),
                                         (1024, "1/100", "1/20")])
@pytest.mark.parametrize("size", _SIZES)
def test_built_fillings_pass_chunk_by_chunk(n, rho, eta, size):
    build = build_filling(Params(n, Fraction(rho), Fraction(eta)))
    with _chunks_of(size):
        assert chunks.chunks_are_disks(build.triangulation, build.ledger)
    chunked, whole, cached = _both_ways(build, size)
    assert chunked == whole and chunked[0].ok and chunked[1].ok
    assert not cached  # neither validation nor the audit built the whole edge table
    t = build.triangulation
    assert chunked[0].counts["edges"] == len(t.edges) == t.num_vertices + t.num_triangles - 1


@pytest.mark.parametrize("size", _SIZES)
def test_chunks_are_runs_of_whole_annuli_and_slices_of_the_rows(size, medium_build):
    ledger, t = medium_build.ledger, medium_build.triangulation
    with _chunks_of(size):
        starts = chunks.chunk_starts(ledger)
        found = [(layers, count, np.array(rows)) for layers, _, count, rows in chunks.chunks(t, ledger)]
    assert [layers.start for layers, _, _ in found] == starts and found[-1][0].stop == len(ledger)
    tri, top = np.asarray(t.triangles), 0
    for layers, count, rows in found:
        shift = ledger[layers.start].first_vertex
        assert (rows[:count] == tri[top : top + count] - shift).all()  # a relabelled slice
        cap = rows[count:]
        if layers.stop < len(ledger):  # a cone over the inner cycle, in ledger order
            inner = ledger[layers.stop]
            assert len(cap) == inner.length and (cap.max(axis=1) == inner.first_vertex + inner.length - shift).all()
        else:
            assert len(cap) == 0
        top += count
    assert top == len(tri)


# Corruptions that keep every row where it is, or add one beside or at the end:
# an edge flip, a dropped or duplicated triangle, a chord of a cycle, and an id
# moved to a cycle at least two layers away.
_KINDS = ["flip", "drop", "duplicate", "append", "chord", "skip"]


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
        else:  # skip: a moves to a cycle (or the apex) at least two layers from its own
            r = _cycle_of(ledger, a)
            far = [s for s in range(len(ledger) + 1) if abs(s - r) >= 2]
            if far:
                s = far[pick % len(far)]
                tri[f, k] = apex if s == len(ledger) else ledger[s].vertex(pick)
    return tri


_changes = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 10**6)),
    min_size=1,
    max_size=3,
)


@given(n=st.integers(12, 64), params=st.sampled_from(_PARAMS), size=st.sampled_from(_SIZES), changes=_changes)
@settings(max_examples=120, deadline=None)
def test_corrupted_fillings_give_the_whole_complex_report_and_audit(n, params, size, changes):
    try:
        build = build_filling(Params(n, Fraction(params[0]), Fraction(params[1])))
    except ScheduleError:
        assume(False)
    broken = _fresh(build, _corrupt(build, changes))
    chunked, whole, _ = _both_ways(broken, size)
    assert chunked[0] == whole[0]  # failures, witnesses and counts
    assert chunked[1] == whole[1]  # rows and stray-edge lines, or the same error


def _shared_chord():
    """Two chunks that each pass, capped, while both hold the chord (8, 10) of their shared cycle.

    Cycles 0, 1 and 2 of four vertices each (ids 0..3, 4..7 and 8..11) and
    the apex 12; the first chunk holds layers 0 and 1, the second layer 2
    and the apex.  In the first, 0..3 ring 4, 5, 6, which ring 8, 10, 11,
    and 7 fills the triangle 8, 9, 10 outside the cap; the second is the
    disk of 8..11 cut by the chord, with the apex in the half 8, 10, 11.
    """
    outer = [(0, 1, 4), (1, 5, 4), (1, 2, 5), (2, 6, 5), (2, 3, 6), (3, 4, 6), (3, 0, 4),
             (4, 5, 8), (5, 10, 8), (5, 6, 10), (6, 11, 10), (6, 4, 11), (4, 8, 11),
             (7, 8, 9), (7, 9, 10), (7, 8, 10)]
    inner = [(8, 9, 10), (12, 8, 10), (12, 10, 11), (12, 11, 8)]
    ledger = layer_ledger(4, [("collar", 4), ("shrink", 4)])  # 8 triangles an annulus
    return outer, inner, ledger


def test_two_chunks_sharing_a_chord_fail_as_the_whole_complex():
    outer, inner, ledger = _shared_chord()
    cap = [(12, 8, 9), (12, 9, 10), (12, 10, 11), (12, 11, 8)]  # the cone the chunk check puts on cycle 2
    # each chunk, capped and relabelled from its outer cycle, is a disk bounded by that cycle
    assert validate_disk(Triangulation(4, 13, outer + cap)).ok
    assert validate_disk(Triangulation(4, 5, [[v - 8 for v in row] for row in inner])).ok
    t = Triangulation(4, 13, outer + inner)
    want = validate_disk(Triangulation(4, 13, outer + inner))
    assert "edge (8, 10) lies in 4 triangles (expected 1 or 2)" in want.failures
    with _chunks_of(16):
        assert chunks.chunk_starts(ledger) == [0, 2]
        assert validate_disk(t, ledger) == want
        assert not chunks.chunks_are_disks(t, ledger)  # the chord check stops the first chunk
        audit = drift_audit(BuildResult(Triangulation(4, 13, outer + inner), ledger, None, None))
    t.edges  # cached by the whole-complex validation, so this audit reads the whole table
    assert audit == drift_audit(BuildResult(t, ledger, None, None))
    assert "edge (8, 10) is a chord of cycle 2" in audit.stray_edges


@pytest.mark.parametrize("size", [1, 300])
def test_a_valid_disk_off_the_ledger_falls_back_and_passes(size, medium_build, flipped_builds):
    # Rows in reverse order, and an edge flipped in place between cycles 2
    # and 4: each a valid disk whose triangles do not follow the ledger's
    # layers, so the chunks fail and the whole complex is checked.
    reverse = np.array(medium_build.triangulation.triangles)[::-1]
    a, b = medium_build.ledger[3].vertex(5), medium_build.ledger[3].vertex(6)
    skipped = _corrupt(medium_build, [("flip", _row_with(medium_build, a, b), _corner(medium_build, a, b), 0)])
    for rows in (reverse, skipped):
        build = _fresh(medium_build, rows)
        with _chunks_of(size):
            assert not chunks.chunks_are_disks(build.triangulation, build.ledger)
        chunked, whole, _ = _both_ways(build, size)
        assert chunked == whole and chunked[0].ok
    assert chunked[1].stray_edges == [flipped_builds["layer-skipping"][1]]


def _row_with(build: BuildResult, a: int, b: int) -> int:
    tri = np.asarray(build.triangulation.triangles)
    return int(np.flatnonzero((tri == a).any(axis=1) & (tri == b).any(axis=1))[0])


def _corner(build: BuildResult, a: int, b: int) -> int:
    """The corner k of ``a``'s row whose edge to corner k + 1 is (a, b) or (b, a)."""
    row = list(np.asarray(build.triangulation.triangles)[_row_with(build, a, b)])
    return next(k for k in range(3) if {row[k], row[(k + 1) % 3]} == {a, b})
