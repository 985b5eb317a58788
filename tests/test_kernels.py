"""The compiled kernels against the Python and numpy code they replaced.

The edge table, the corner-graph link check, connectivity, the witness
marks of validation and the CSR of ``_kernels.c`` must give exactly the
arrays and failure lists of the numpy bodies kept in ``reference_impl``:
on built complexes, on the oracle's stacks and on corrupted complexes.
They must also take time and memory linear in the triangles, whatever the
ids, and be safe to call from several threads at once.  The oracle's
isometry test must give the reference's verdicts, the file must compile
without warnings, and each function it exports must be a declared kernel
that the package calls.
"""
import copy
import ctypes
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_impl as ref
from hypothesis import example, given, settings, strategies as st

import ringfill._reader as reader
import ringfill.annuli as annuli
import ringfill.serialize as serialize
import ringfill.simplicial as simplicial
import ringfill.verify as verify
from ringfill import (
    BuildResult,
    EnumerationBudget,
    LayerRecord,
    Params,
    Triangulation,
    annulus_triangles,
    build_filling,
    cone_over_cycle,
    cone_triangles,
    layer_ledger,
    separation_lower_bounds,
    validate_disk,
    verify_filling,
)
from ringfill import _kernels, oracle
from ringfill.oracle import is_isometric_filling, validate_disk_batch
from ringfill.simplicial import _edge_table

def _reference_report(t: Triangulation):
    return ref.check_disk(t)


def _assert_table_and_report_match(t: Triangulation) -> None:
    edges, slot = _edge_table(t.triangles)
    got = (edges, simplicial._incidence(t.triangles, slot, len(edges)), slot)
    for a, b in zip(got, ref.edge_table(t.triangles), strict=True):
        a = np.asarray(a)
        assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)
    report, reference = validate_disk(t), _reference_report(t)
    assert report.failures == reference.failures
    assert report.counts == reference.counts


def test_built_complexes_match_the_references(small_build, medium_build, flipped_builds):
    builds = [small_build, medium_build, *(build for build, *_ in flipped_builds.values())]
    for t in [build.triangulation for build in builds] + [cone_over_cycle(k) for k in (3, 4, 9)]:
        _assert_table_and_report_match(t)
        for a, b in zip(verify._graph_csr(t), ref.graph_csr(t)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "num_vertices, rows",
    [
        (3, [(0, 0, 0)]),
        (3, [(0, 1, 2)]),
        (3, [(0, 1, 2), (0, 2, 1), (1, 2, 0)]),
        (4, [(0, 1, 2), (0, 1, 2**31 - 1), (2**31 - 1, 2**31 - 2, 2**31 - 1)]),
        (2**16 + 3, [(0, 1, 2), (2**16, 2**16 + 1, 2**16 + 2), (0, 2, 2**16)]),
    ],
    ids=["all-zero", "triangle", "repeated", "int32-maximum", "two-digit-ids"],
)
def test_small_complexes_match_the_references(num_vertices, rows):
    _assert_table_and_report_match(Triangulation(3, num_vertices, rows))


@given(st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_dense_complexes_match_the_references(rows):
    # Six ids in up to 30 rows: edges lie in many triangles, and one vertex
    # set comes in several rows, in either orientation, beside other vertex
    # sets that share its smallest edge.
    _assert_table_and_report_match(Triangulation(3, 6, rows))


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3)])
def test_oracle_stacks_match_the_references(n, k):
    # The stack kernel checks each complex on its own, so its verdicts are
    # compared with validate_disk on the numpy reference bodies, complex by
    # complex; validate_disk also runs on the stack's disjoint union, whose
    # union-find labels span many components.
    nv = n + k
    for chunk in [np.asarray(c) for c in oracle._stacks(EnumerationBudget(n, k))][:4]:
        union = Triangulation(n, len(chunk) * (nv + 1), chunk.reshape(-1, 3) + np.repeat(
            np.arange(len(chunk), dtype=np.int32) * (nv + 1), chunk.shape[1])[:, None])
        _assert_table_and_report_match(union)
        broken = chunk.copy()
        broken[::7, 0, 2] = broken[::7, 0, 0]  # degenerate
        broken[3::7, 0, 2] = broken[3::7, 1, 0]  # a corner moved: another triangle, or a degenerate one
        for stack, valid in ((chunk, True), (broken, False)):
            got = validate_disk_batch(n, nv, stack)
            want = [_reference_report(Triangulation(n, nv, rows)).ok for rows in stack]
            assert got.tolist() == want and all(got) is valid


_corruptions = st.lists(
    st.tuples(
        st.sampled_from(["drop", "flip", "add", "copy", "stray", "degenerate", "torus"]),
        st.integers(0, 10**6),
        st.lists(st.integers(0, 40), min_size=3, max_size=3),
    ),
    min_size=1,
    max_size=4,
)


def _corrupted(t: Triangulation, corruptions) -> Triangulation:
    tris = t.triangles.tolist()
    nv = t.num_vertices
    for kind, k, ids in corruptions:
        i = k % len(tris)
        a, b, c = tris[i]
        if kind == "drop" and len(tris) > 1:
            del tris[i]
        elif kind == "flip":
            tris[i] = [a, c, b]
        elif kind == "add":  # ids up to one past the last vertex
            tris.append([x % (nv + 1) for x in ids])
        elif kind == "copy":
            tris.append([b, c, a])
        elif kind == "stray":
            tris[i] = [a, b, np.iinfo(np.int32).max]
        elif kind == "degenerate":
            tris[i] = [a, a, c]
        else:  # a disjoint octahedron surface on ids past the disk's
            top = nv + k % 5
            octahedron = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
            tris += [[top + x for x in face] for face in octahedron]
            nv = top + 6
    return Triangulation(t.n, nv, tris)


@given(corruptions=_corruptions, base=st.sampled_from(["n25", "cone7", "oracle73"]))
@settings(max_examples=80, deadline=None)
def test_corrupted_complexes_match_the_references(small_build, corruptions, base):
    if base == "oracle73":  # the oracle's first (7, 3) filling, of the size it validates: F = 11
        t = Triangulation(7, 10, np.asarray(next(oracle._fillings(EnumerationBudget(7, 3), 1)))[0])
    else:
        t = small_build.triangulation if base == "n25" else cone_over_cycle(7)
    broken = _corrupted(t, corruptions)
    _assert_table_and_report_match(broken)
    # validate_disk_batch, on a stack of one, gives validate_disk's verdict:
    # from the bitset kernel on the oracle73 and cone7 bases, whose
    # corruptions stay within its 64 vertices, and from validate_disk past them
    assert base == "n25" or broken.num_vertices <= oracle._MAX_BITSET
    verdicts = validate_disk_batch(broken.n, broken.num_vertices, np.asarray(broken.triangles)[None])
    assert verdicts.tolist() == [validate_disk(broken).ok]


@pytest.mark.parametrize("stray", [-1, -(2**31), 4, 2**31 - 1])
def test_verdict_kernel_never_takes_a_stray_id_for_a_vertex(stray):
    # validate_disk_batch refuses negative ids before the call; the kernel
    # itself must still give any id outside 0..nv-1 a False verdict.  With
    # the apex of the wheel renamed, the boundary and Euler's formula still
    # hold, so only the id check stands between the stray id and an index.
    wheel = cone_over_cycle(3).triangles
    stack = np.stack([wheel, wheel, wheel])
    stack[1][stack[1] == 3] = stray
    ok = np.zeros(3, dtype=bool)
    _kernels.library().disk_verdicts(3, 4, stack, 3, 3, _verdict_scratch(4), ok)
    assert ok.tolist() == [True, False, True]


def _verdict_scratch(nv: int) -> np.ndarray:
    """The uint64 scratch of disk_verdicts on nv vertices: the once and twice bitsets, then 2 nv^2 apex bytes."""
    return np.zeros(2 * nv + -(-nv * nv // 4), dtype=np.uint64)


def _fan(size: int) -> Triangulation:
    """``size`` triangles ``(0, i, i + 1)`` on vertex 0: a disk whose every vertex is on the boundary."""
    i = np.arange(1, size + 1, dtype=np.int32)
    return Triangulation(size + 2, size + 2, np.stack([np.zeros_like(i), i, i + 1], axis=1))


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_fan_of_200k_triangles_validates_in_linear_time(order):
    # Vertex 0 has 200,001 neighbours and its link is one path through as
    # many nodes of the corner graph.  Listed in descending order, the
    # triangles hook each root under the next, a chain of 200,000 parents,
    # which the finishing pass must not walk once per node.  Validation
    # takes about 0.1 s either way on a 2-vCPU host.
    t = _fan(200_000)
    if order == "descending":
        t = Triangulation(t.n, t.num_vertices, np.asarray(t.triangles)[::-1])
    start = time.perf_counter()
    report = validate_disk(t)
    assert report.ok and report.counts["triangles"] == 200_000
    assert time.perf_counter() - start < 5.0


def _validation_peak(t: Triangulation) -> int:
    tracemalloc.start()
    try:
        validate_disk(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_stray_id_at_the_int32_maximum_costs_no_memory(medium_build):
    t = medium_build.triangulation
    nv = t.num_vertices
    near, far = (np.vstack([t.triangles, [(0, 1, stray)]]) for stray in (nv, np.iinfo(np.int32).max))
    near, far = Triangulation(t.n, nv, near), Triangulation(t.n, nv, far)
    report = validate_disk(far)
    assert f"triangle (0, 1, {np.iinfo(np.int32).max}) references a vertex id outside 0..{nv - 1}" in report.failures
    assert report.failures == _reference_report(far).failures
    assert _validation_peak(far) <= _validation_peak(near) + 4096


def test_two_threads_validate_at_once(medium_build, flipped_builds):
    # The kernels keep no state and release the GIL, so two threads run them
    # at once; each round's complexes are shared, so both threads read the
    # same rows at once, each sorting an edge table of its own.
    complexes = [medium_build.triangulation, _corrupted(medium_build.triangulation, [("stray", 5, [0, 0, 0])])]
    complexes += [build.triangulation for build, *_ in flipped_builds.values()]
    want = [(r.failures, r.counts) for r in map(validate_disk, complexes)]
    rounds = [complexes] * 5
    start = threading.Barrier(2, timeout=60)
    results, errors = [[], []], []

    def run(k: int) -> None:
        try:
            start.wait()
            for shared in rounds:
                for t in shared[k:] + shared[:k]:
                    report = validate_disk(t)
                    results[k].append((report.failures, report.counts))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert errors == []
    assert results[0] == want * 5
    assert results[1] == (want[1:] + want[:1]) * 5


def test_two_threads_enumerate_at_once():
    # Each search keeps its state in its own arrays, so two searches of the
    # same budget running at once give the same stacks as one alone.
    budget = EnumerationBudget(6, 2)
    want = np.concatenate(list(oracle._fillings(budget, 7)))
    start = threading.Barrier(2, timeout=60)
    results, errors = [None, None], []

    def run(k: int) -> None:
        try:
            start.wait()
            results[k] = np.concatenate([chunk for _ in range(5) for chunk in oracle._fillings(budget, 7)])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert errors == []
    for got in results:
        assert np.array_equal(got, np.concatenate([want] * 5))


@pytest.mark.parametrize("k", range(3, 9))
def test_isometry_of_cones_matches_the_reference(k):
    # The cone over C_k is isometric up to k = 5; from k = 6 the apex is a shortcut.
    t = cone_over_cycle(k)
    assert is_isometric_filling(t) is ref.reference_is_isometric(t) is (k <= 5)


@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (6, 3)])
def test_isometry_of_corrupted_stacks_matches_the_reference(n, k):
    # Take the first stack holding an isometric filling, in eight copies.
    # In each complex one corner moves to a random vertex; that adds a chord
    # or a spoke, which may be a shortcut, and it may drop an edge.
    # Complexes left disconnected have no reference verdict and are skipped.
    nv = n + k
    rng = np.random.default_rng(n * 10 + k)
    chunk = next(c for c in oracle._stacks(EnumerationBudget(n, k))
                 if any(oracle._isometric_rows(n, nv, c, *c.shape[:2])))
    chunk = np.repeat(chunk, 8, axis=0)
    broken = chunk.copy()
    rows = np.arange(len(broken))
    broken[rows, rng.integers(0, broken.shape[1], len(rows)), rng.integers(1, 3, len(rows))] = rng.integers(
        0, nv, len(rows))
    got = oracle._isometric_rows(n, nv, broken, *broken.shape[:2])
    compared = flipped = 0
    for b, tri in enumerate(broken):
        try:
            want = ref.reference_is_isometric(Triangulation(n, nv, tri))
        except ValueError:  # disconnected
            continue
        assert got[b] == want, b
        compared += 1
        flipped += want != ref.reference_is_isometric(Triangulation(n, nv, chunk[b]))
    assert compared > len(broken) // 2 and flipped > 0


def test_isometry_test_refuses_ids_beyond_its_vertices(monkeypatch):
    _refuse_kernels(monkeypatch, "isometric_rows")
    with pytest.raises(ValueError, match="vertex id 5, beyond the 4 vertices"):
        is_isometric_filling(Triangulation(3, 4, [(0, 1, 2), (0, 2, 5)]))
    wide = copy.copy(cone_over_cycle(5))
    wide.triangles = np.array(wide.triangles, dtype=np.int64)
    with pytest.raises(ValueError, match=r"triangles must be a C-contiguous \(\*, 3\) int32 numpy array"):
        is_isometric_filling(wide)


def _latitude(n: int):
    """The naive latitude filling of C_n: shrink annuli to round(n cos(2 pi h / n)), then the cone; delta < 1."""
    annuli, h = [], 1
    while (m := round(n * math.cos(2 * math.pi * h / n))) >= 3:
        annuli.append(("shrink", min(m, annuli[-1][1] if annuli else n)))
        h += 1
    return layer_ledger(n, annuli)


def _blocks(ledger, annulus, cone):
    return [*map(annulus, ledger, ledger[1:]), cone(ledger[-1])]


_SCHEDULES = [
    (25, "1/10", "1/4"), (32, "1/5", "1/3"), (64, "1/10", "1/4"), (100, "1/100", "1/20"), (257, "1/20", "1/5"),
]


@pytest.mark.parametrize("n, rho, eta", _SCHEDULES)
def test_built_triangle_bytes_match_the_reference(n, rho, eta):
    # Each annulus and the cone row for row, then the whole complex: the
    # reference's stacked blocks, concatenated and rotated by numpy masks.
    build = build_filling(Params(n, Fraction(rho), Fraction(eta)))
    for ledger in (build.ledger, _latitude(n)):
        got = _blocks(ledger, annulus_triangles, cone_triangles)
        want = _blocks(ledger, ref.annulus_triangles, ref.cone_triangles)
        assert [bytes(block) for block in got] == [block.astype(np.int32).tobytes() for block in want]
    want = ref.rotated(np.concatenate(_blocks(build.ledger, ref.annulus_triangles, ref.cone_triangles)))
    assert bytes(build.triangulation.triangles) == want.tobytes()


@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), max_size=40))
@settings(max_examples=60, deadline=None)
def test_canonical_rotation_matches_the_reference(rows):
    # ids 0..3 make ties frequent: the first smallest id comes first, as argmin picks it
    assert Triangulation(3, 4, rows).triangles.tolist() == ref.rotated(rows).tolist()
    owned = np.array(rows, dtype=np.int32).reshape(-1, 3)
    assert Triangulation(3, 4, owned, own=True).triangles is owned
    assert owned.tolist() == ref.rotated(rows).tolist()


@pytest.mark.parametrize("n, rho, eta", [(64, "1/10", "1/4"), (320, "1/10", "1/4"), (2048, "1/100", "1/20")])
def test_separation_table_matches_the_reference(n, rho, eta):
    build = build_filling(Params(n, Fraction(rho), Fraction(eta)))
    assert separation_lower_bounds(build) == ref.separation_table(build)
    for rec in build.ledger[:-1]:  # drift bounds four times as large: rows from deeper layers reach further
        rec.drift_bound *= 4
    assert separation_lower_bounds(build) == ref.separation_table(build)


@pytest.mark.parametrize("jobs", [1, 2])
def test_worst_pair_and_witness_of_a_shortcut_match_the_reference(jobs):
    # The latitude filling of C_64 has delta = 7/8: its worst pair is the
    # float scan's, and the witness a shortest path of the reference BFS.
    ledger = _latitude(64)
    t = Triangulation(64, ledger[-1].first_vertex + ledger[-1].length + 1,
                      np.concatenate(_blocks(ledger, annulus_triangles, cone_triangles)))
    assert validate_disk(t).ok
    report = verify_filling(t, jobs=jobs)
    x, y, d_k, d_c = report.worst_pair
    assert report.delta == Fraction(7, 8) == Fraction(d_k, d_c)
    assert (x, y) == ref.worst_pair(report.boundary_distances, 64)
    adj = ref.skeleton_graph(t)
    path = report.witness_path
    assert path[0] == x and path[-1] == y and len(path) - 1 == d_k == ref.bfs_distances(adj, x)[y]
    assert all(b in adj[a] for a, b in zip(path, path[1:]))


def _refuse_kernels(monkeypatch, *names):
    def refuse(*args):
        raise AssertionError("the kernel was reached")

    for name in names:
        monkeypatch.setattr(_kernels.library(), name, refuse)


def test_annulus_and_cone_rows_refuse_ids_and_buffers_before_the_kernel(monkeypatch):
    _refuse_kernels(monkeypatch, "filling_rows")
    outer = LayerRecord(0, 4, 2**31 - 4, "equal", Fraction(1, 2))
    far = LayerRecord(1, 4, 2**31 - 3)
    with pytest.raises(ValueError, match=r"cycle 1 of 4 vertices from id 2147483645 needs ids in 0..2147483647"):
        annulus_triangles(outer, far)  # the inner cycle would run past the int32 maximum
    with pytest.raises(ValueError, match=r"cycle 1 of 4 vertices from id 2147483644 needs ids in 0..2147483647"):
        cone_triangles(LayerRecord(1, 4, 2**31 - 4))  # the apex would be 2**31


def test_canonical_rotation_refuses_ids_and_formats(monkeypatch):
    with pytest.raises(ValueError, match=r"must lie in 0..2147483647"):
        Triangulation(3, 3, np.array([(0, 1, 2), (2, -7, 1)], dtype=np.int32), own=True)
    with pytest.raises(ValueError, match=r"must lie in 0..2147483647"):
        Triangulation(3, 3, np.array([(0, 1, 2**31)], dtype=np.int64))
    _refuse_kernels(monkeypatch, "canonical_rows")
    with pytest.raises(ValueError, match=r"must be integers, got format '\?'"):
        Triangulation(3, 3, np.ones((1, 3), dtype=bool))


def test_edge_table_refuses_other_formats_before_the_kernel(monkeypatch):
    _refuse_kernels(monkeypatch, "top_id", "edge_slots", "edge_ends")
    with pytest.raises(ValueError, match=r"triangles must be a C-contiguous \(\*, 3\) int32 numpy array or writable "
                                         r"buffer, got format 'l'"):
        _edge_table(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match=r"triangles must be a C-contiguous \(\*, 3\) int32 .*, not C-contiguous"):
        _edge_table(np.zeros((3, 6), dtype=np.int32)[:, ::2])
    with pytest.raises(ValueError, match=r"triangles must be a C-contiguous \(\*, 3\) int32 .*, read-only"):
        _edge_table(memoryview(bytes(24)).cast("i", (2, 3)))  # read-only, so ctypes has no address for it


def test_disk_marks_refuse_a_table_that_does_not_fit_before_the_kernel(monkeypatch):
    t = cone_over_cycle(5)
    edges, slot = _edge_table(t.triangles)
    _refuse_kernels(monkeypatch, "disk_marks", "edge_ends")
    report = simplicial.ValidationReport()
    stray = np.array(slot)
    stray[2, 1] = len(edges)  # an edge id past the edge table
    with pytest.raises(ValueError, match=r"slot edge ids must lie in 0..9"):
        simplicial._disk_failures(t.n, t.num_vertices, t.triangles, (edges, stray), report)
    wide, strided, column = np.asarray(slot, np.int64), np.asarray(edges)[:, ::-1], np.asarray(edges)[:, 0]
    for table, message in (
        ((edges, wide), r"slot edge ids must be a C-contiguous \(5, 3\) int32 .*, got format 'l'"),
        ((strided, slot), r"edges must be a C-contiguous \(\*, 2\) int32 .*, not C-contiguous"),
        ((column, slot), r"edges must be a C-contiguous \(\*, 2\) int32 .* shape \(10,\)"),
    ):
        with pytest.raises(ValueError, match=message):
            simplicial._disk_failures(t.n, t.num_vertices, t.triangles, table, report)
    assert report.failures == []


def test_disk_verdicts_refuse_other_stacks_before_the_kernel(monkeypatch):
    wheel = np.asarray(cone_over_cycle(3).triangles)
    frozen = np.stack([wheel, wheel])
    frozen.flags.writeable = False  # a read-only numpy stack is taken, by its address
    assert validate_disk_batch(3, 4, frozen).tolist() == [True, True]
    _refuse_kernels(monkeypatch, "disk_verdicts")
    for stack, message in (
        (wheel, r"\(B, F, 3\) array with B, F >= 1, got shape \(3, 3\)"),
        (np.zeros((1, 2, 4), dtype=np.int32), r"\(B, F, 3\) array with B, F >= 1, got shape \(1, 2, 4\)"),
        (np.zeros((0, 1, 3), dtype=np.int32), r"\(B, F, 3\) array with B, F >= 1, got shape \(0, 1, 3\)"),
        (np.zeros((1, 0, 3), dtype=np.int32), r"\(B, F, 3\) array with B, F >= 1, got shape \(1, 0, 3\)"),
        (np.asarray(frozen, dtype=np.int64), r"stack must be a C-contiguous \(\*, \*, 3\) int32 .*, got format 'l'"),
        (np.full((1, 1, 3), 2**31, dtype=np.int64), r"stack must be a C-contiguous .*, got format 'l'"),
        (np.ones((1, 1, 3), dtype=bool), r"stack must be a C-contiguous .*, got format '\?'"),
        (np.zeros((1, 2, 6), dtype=np.int32)[:, :, ::2], r"stack must be .*, got format 'i' .*, not C-contiguous"),
        (np.asarray([[(0, 1, -2)]], dtype=np.int32), r"triangle vertex ids must lie in 0..2147483647"),
        (np.asarray([wheel, wheel - 1]), r"triangle vertex ids must lie in 0..2147483647"),
        # read-only and no numpy array, so ctypes has no address for it
        (memoryview(wheel.tobytes()).cast("i", (1, 3, 3)), r"stack must be .* numpy array or writable .*, read-only"),
        # a broadcast view has the length without the memory
        (np.broadcast_to(wheel[0], (1, simplicial.MAX_TRIANGLES + 1, 3)), r"357913942 triangles have too many edges"),
    ):
        with pytest.raises(ValueError, match=message):
            validate_disk_batch(3, 4, stack)
    with pytest.raises(TypeError):  # a list exports no buffer
        validate_disk_batch(3, 4, wheel[None].tolist())
    # With no boundary cycle, the 6-vertex projective plane, a closed
    # surface with V - E + F = 1 and every link a cycle, would pass.
    rp2 = np.asarray([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                      (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)], dtype=np.int32)
    for n, nv, stack in ((0, 6, rp2[None]), (2, 6, rp2[None]), (-1, 4, frozen), (-(10**30), 4, frozen)):
        with pytest.raises(ValueError, match=rf"boundary length must be >= 3, got {n}"):
            validate_disk_batch(n, nv, stack)
    # a vertex count outside 1..3F, or below n, fails every complex without a call
    for n, nv in ((3, 0), (3, 10), (3, 10**30), (4, 3)):
        assert validate_disk_batch(n, nv, frozen).tolist() == [False, False], (n, nv)


def test_strip_annuli_refuse_other_buffers_ids_and_terms_before_the_kernel(monkeypatch, small_build):
    t, ledger = small_build.triangulation, small_build.ledger
    drifts = ref.reference_drift_audit(small_build)
    assert drifts[0] == Fraction(1, 2)  # the collar's n/(2m), in units of 1/S of its _pair_terms
    assert annuli.strip_drifts(t, ledger) == (drifts, [])
    backwards = Triangulation(25, t.num_vertices, np.asarray(t.triangles)[::-1])
    assert annuli.strip_drifts(backwards, ledger) == (drifts, [])
    # rows out of order need an index: without one the kernel returns 1 and
    # checks no strip; with one it sorts the rows into it and checks them all
    lib, depth, rows = _kernels.library(), len(ledger), backwards.triangles
    start = np.array([rec.first_vertex for rec in ledger] + [small_build.apex], dtype=np.int32)
    terms = np.zeros((depth, 4), dtype=np.int64)
    for r, (rec, inner) in enumerate(zip(ledger, ledger[1:])):
        scale, a, b, c = annuli._pair_terms(25, rec, inner.length)
        terms[r] = a, b, c, 25 * scale
    count, scratch, index = (np.zeros(k, dtype=np.int32) for k in (depth + 1, 2 * 50 + 2, len(rows)))
    out = np.full((depth, 2), 7, dtype=np.int64)
    assert lib.strip_annuli(rows, len(rows), start, depth, terms, count, None, scratch, out) == 1
    sizes = [rec.length + inner.length for rec, inner in zip(ledger, ledger[1:])] + [ledger[-1].length, 0]
    assert (out == 7).all() and count.tolist() == sizes  # and no row on no cycle
    assert lib.strip_annuli(rows, len(rows), start, depth, terms, count, index, scratch, out) == 0
    assert index.tolist() == sorted(range(len(rows)), key=lambda f: (np.searchsorted(start, rows[f, 0], "right"), f))
    assert out[:, 1].tolist() == [0] * depth and out[0, 0] == 25  # n/(2m) = 25/50
    _refuse_kernels(monkeypatch, "strip_annuli")
    # rows of another format or layout
    for wrong in (np.asarray(t.triangles, dtype=np.int64), np.zeros((531, 6), dtype=np.int32)[:, ::2],
                  np.zeros((531, 2), dtype=np.int32)):
        shaped = copy.copy(t)
        shaped.triangles = wrong
        with pytest.raises(ValueError, match=r"triangles must be a C-contiguous \(\*, 3\) int32 numpy array"):
            annuli.strip_drifts(shaped, ledger)
    # ids off the int32 range, or cycles too short to be strips, are defects of the ledger, before any strip
    cases = {
        "from id -1": ([LayerRecord(0, 25, -1, "equal", Fraction(1, 2)), LayerRecord(1, 25, 24)], 50),
        "a cycle of 2": ([LayerRecord(0, 25, 0, "shrink", Fraction(25, 2)), LayerRecord(1, 2, 25)], 28),
        "an empty cycle": ([LayerRecord(0, 25, 0, "shrink", Fraction(25, 2)), LayerRecord(1, 0, 25)], 26),
        "an apex past int32": ([LayerRecord(0, 25, 0, "equal", Fraction(1, 2)), LayerRecord(1, 2**31 - 25, 25)],
                               2**31 + 1),
    }
    for name, (records, nv) in cases.items():
        drifts, lines = annuli.strip_drifts(Triangulation(25, nv, t.triangles[:50]), records)
        assert drifts == [None] and lines, name
    # terms that take the kernel's arithmetic past int64: C_(2^21) shrinking
    # to 2^20, 2 n S = 2^63, and an equal annulus of C_4 to a cycle of 10,
    # whose c (M - 1) passes the period
    for n, records, message in (
        (2**21, layer_ledger(2**21, [("shrink", 2**20)]), rf"\(0, {2**41}, {2**42}\) exceed the int64 period {2**62}"),
        (4, [LayerRecord(0, 4, 0, "equal", Fraction(1, 2)), LayerRecord(1, 10, 4)], r"\(28, 8, 8\) exceed the int64 period 32"),
    ):
        apex = records[-1].first_vertex + records[-1].length
        with pytest.raises(ValueError, match=rf"drift terms {message}"):
            annuli.strip_drifts(Triangulation(n, apex + 1, [(0, 1, n)]), records)


def test_disk_verdicts_fail_every_vertex_count_but_the_disks():
    # A vertex count outside n..min(64, 3F), or a boundary cycle too short,
    # fails every complex without an index: those calls get an empty
    # scratch, which the sanitizers' rerun of this test would see touched.
    lib = _kernels.library()
    for t in (cone_over_cycle(7), Triangulation(3, 3, [(0, 1, 2)]), cone_over_cycle(63)):
        n, nv, rows, nf = t.n, t.num_vertices, t.triangles, t.num_triangles
        ok = np.zeros(1, dtype=bool)
        lib.disk_verdicts(n, nv, rows, 1, nf, _verdict_scratch(nv), ok)
        assert ok[0]
        # no disk bounded by C_n: one vertex too few or too many, or a boundary cycle too short
        for m, count in ((n, nv + 1), (n, nv - 1), (2, nv), (n, 3 * nf + 1), (n, 65)):
            checked = 3 <= m <= count <= min(64, 3 * nf)
            ok[0] = True
            lib.disk_verdicts(m, count, rows, 1, nf, _verdict_scratch(count if checked else 0), ok)
            assert not ok[0], (m, count)
    # the wheel over C_64 is a disk on 65 vertices, past the bitsets
    wheel = cone_over_cycle(64)
    ok[0] = True
    lib.disk_verdicts(64, 65, wheel.triangles, 1, 64, _verdict_scratch(0), ok)
    assert not ok[0]


# Distance matrices the judgement refuses for C_4, each with the end of its refusal.
_WIDE = np.zeros((4, 8), dtype=np.int64)
_OTHER_MATRICES = [
    (np.zeros((4, 4), dtype=np.int32), r"format 'i' and shape \(4, 4\)$"),
    (np.zeros((4, 5), dtype=np.int64), r"format '[lq]' and shape \(4, 5\)$"),
    (_WIDE[:, :5], r"shape \(4, 5\), not C-contiguous$"),
    (_WIDE[:, ::2], r"shape \(4, 4\), not C-contiguous$"),
    # read-only, so ctypes has no address for it
    (memoryview(bytes(128)).cast("q", (4, 4)), r"format 'q' and shape \(4, 4\), read-only$"),
]
_MATRIX_REFUSAL = r"^distances must be a C-contiguous \(4, 4\) int64 numpy array or writable buffer, got .*"


def test_worst_ratio_refuses_other_matrices_before_the_kernel(monkeypatch):
    # The judgement without a table, as plain verify runs it.
    _refuse_kernels(monkeypatch, "judge_pairs")
    for dist, got in _OTHER_MATRICES:
        with pytest.raises(ValueError, match=_MATRIX_REFUSAL + got):
            verify._judgement(dist, 4, None)


def test_bound_violation_refuses_other_tables_and_matrices_before_the_kernel(monkeypatch):
    # The judgement with a separation table, as verify --check-bound runs it.
    _refuse_kernels(monkeypatch, "judge_pairs")
    table = [0, 1, 2]
    with pytest.raises(ValueError, match=r"the separation table of C_4 needs 3 bounds, got 2"):
        verify._judgement(np.zeros((4, 4), dtype=np.int64), 4, table[:2])
    with pytest.raises(ValueError, match=r"the separation table of C_5 needs 3 bounds, got 4"):
        verify._judgement(np.zeros((5, 5), dtype=np.int64), 5, table + [3])
    for dist, got in _OTHER_MATRICES:
        with pytest.raises(ValueError, match=_MATRIX_REFUSAL + got):
            verify._judgement(dist, 4, table)


def _judged_cases(request, case) -> list[tuple[Triangulation, list[int]]]:
    """Complexes and separation tables for the judgement's tests, named by ``case``.

    An int or None: the n = 64 build with its table raised at that
    separation, or as it is.  ``flipped``: each of ``conftest.flipped_builds``
    with its table.  ``cones``: the cone over C_k, k = 6..11 (delta < 1),
    with the table of cycle distances, which each shortcut violates.
    """
    if case == "cones":
        return [(cone_over_cycle(k), list(range(k // 2 + 1))) for k in range(6, 12)]
    if case == "flipped":
        flipped = request.getfixturevalue("flipped_builds").values()
        return [(build.triangulation, separation_lower_bounds(build)) for build, _, _ in flipped]
    build = request.getfixturevalue("medium_build")
    table = separation_lower_bounds(build)
    if case is not None:
        table[case] = case + 1
    return [(build.triangulation, table)]


@pytest.mark.parametrize("raise_at", [None, 0, 1, 5, 12, "flipped", "cones"])
def test_bound_violation_is_the_first_pair_in_row_major_order(request, raise_at):
    # The compiled judgement gives the per-pair loop's first violation and
    # first least ratio over all n^2 entries, and the same worst pair,
    # delta, violation and matrix bytes at every jobs.
    for t, table in _judged_cases(request, raise_at):
        n = t.n
        reports = [verify_filling(t, jobs=jobs, table=table) for jobs in (1, 2, 3)]
        dist = reports[0].boundary_distances
        want = next(
            ((x, y) for x in range(n) for y in range(n) if table[verify.cycle_dist(x, y, n)] > dist[x, y]), None
        )
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        x, y = min(pairs, key=lambda p: Fraction(dist[p], verify.cycle_dist(*p, n)))
        assert (want is None) == (raise_at is None or raise_at == "flipped")
        for report in reports:
            assert report.violation == want
            assert report.worst_pair == (x, y, dist[x, y], verify.cycle_dist(x, y, n))
            assert report.delta == reports[0].delta
            assert bytes(report.boundary_distances) == bytes(dist)
        assert verify_filling(t).violation is None


def test_row_writer_refuses_other_buffers_before_the_kernel(monkeypatch):
    _refuse_kernels(monkeypatch, "rows_text")
    out = []
    wanted = r"rows must be a C-contiguous \(\*, \*\) int32 numpy array or writable buffer"
    for rows, message in (
        (np.zeros((2, 3), dtype=np.int64), wanted),
        (np.zeros((0, 3), dtype=np.int32), r"rows must be non-empty, got shape \(0, 3\)"),
        (np.zeros(6, dtype=np.int32), wanted),
        (np.zeros((3, 6), dtype=np.int32)[:, ::2], wanted),
        (memoryview(bytes(24)).cast("i", (2, 3)), wanted),  # read-only, so ctypes has no address for it
    ):
        with pytest.raises(ValueError, match=message):
            serialize._write_rows(out.append, rows)
    assert out == []


def test_row_kernel_refuses_non_ascii_bytes():
    out, used = _kernels.buffer("i", 4, 3), _kernels.buffer("q", 2)
    # a no-break space and an Arabic-Indic digit, each refused where its ASCII twin is read
    for text, ascii in (("[0, 1, 2],\u00a0[1, 2, 3]]", " "), ("[0, 1, \u0662]]", "2")):
        assert reader._parse_rows(text.encode("utf-8"), out, used) == -1
        assert reader._parse_rows(re.sub("[^\x00-\x7f]", ascii, text).encode(), out, used) == text.count("[")


def test_row_reader_refuses_other_buffers_before_the_kernel(monkeypatch):
    _refuse_kernels(monkeypatch, "parse_rows")
    out, used = _kernels.buffer("i", 4, 3), _kernels.buffer("q", 2)
    for text in ("[0, 1, 2]]", bytearray(b"[0, 1, 2]]"), memoryview(b"[0, 1, 2]]"), None):
        with pytest.raises(ValueError, match=r"parse_rows reads bytes, got"):
            reader._parse_rows(text, out, used)
    for rows in (
        np.zeros((4, 3), dtype=np.int64),
        np.zeros(12, dtype=np.int32),
        np.zeros((4, 6), dtype=np.int32)[:, ::2],
        memoryview(bytes(48)).cast("i", (4, 3)),  # read-only
    ):
        with pytest.raises(ValueError, match=r"rows must be a writable C-contiguous \(\*, 3\) int32 buffer"):
            reader._parse_rows(b"[0, 1, 2]]", rows, used)
    for ends in (_kernels.buffer("q", 1), _kernels.buffer("i", 2), _kernels.buffer("Q", 2), bytes(16)):
        with pytest.raises(ValueError, match=r"used must be a writable C-contiguous \(2\) int64 buffer"):
            reader._parse_rows(b"[0, 1, 2]]", out, ends)


def _ledger_build(ledger):
    """The filling a ledger's annuli and cone assemble to, with no schedule or params."""
    n = ledger[0].length
    t = Triangulation(n, ledger[-1].first_vertex + ledger[-1].length + 1,
                      np.concatenate(_blocks(ledger, annulus_triangles, cone_triangles)))
    return BuildResult(t, ledger, None, None)


@pytest.mark.parametrize("n, rho, eta", _SCHEDULES)
def test_drift_pass_matches_the_numpy_audit(n, rho, eta):
    build = build_filling(Params(n, Fraction(rho), Fraction(eta)))
    for audited in (build, _ledger_build(_latitude(n))):
        cert = verify.certify(audited)
        ref.assert_certificate(cert, audited)
        assert cert.audit.defects == [] and len(cert.audit.rows) == len(audited.ledger) - 1


@st.composite
def _kind_sequences(draw):
    """A boundary length and a list of annuli ``(kind, inner length)`` that ``layer_ledger`` accepts."""
    n = draw(st.integers(3, 40))
    sequence, length = [], n
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("collar", "equal", "transition-equal", "shrink")))
        length = draw(st.integers(3, length)) if kind == "shrink" else length
        sequence.append((kind, length))
    return n, sequence


@given(_kind_sequences())
@example((9, [("collar", 9), ("transition-equal", 9), ("shrink", 9), ("shrink", 5), ("equal", 5), ("shrink", 3)]))
@settings(max_examples=80, deadline=None)
def test_drift_pass_matches_the_numpy_audit_on_any_kind_sequence(case):
    # certify's drift terms come from each annulus's kind alone; the
    # references audit the rungs at phases summed inward from the boundary
    n, sequence = case
    build = _ledger_build(layer_ledger(n, sequence))
    cert = verify.certify(build)
    ref.assert_certificate(cert, build)
    assert cert.ok and [row.max_observed for row in cert.audit.rows] == ref.reference_drift_audit(build)


def test_a_fan_row_with_the_apex_twice_is_no_fan(small_build):
    # Row 524, the first of the cone's fan, becomes (271, 278, 278): the
    # apex twice beside a vertex of the innermost cycle.  Only cycle_edge's
    # demand of a cycle of 3 or more vertices keeps the pair (278, 278) from
    # reading as an edge of the apex's one-vertex cycle, and the fan keeps
    # its m rows.
    tri = np.array(small_build.triangulation.triangles)
    assert tri[524].tolist() == [271, 272, 278] and small_build.apex == 278
    tri[524] = (271, 278, 278)
    broken = copy.copy(small_build)
    broken.triangulation = Triangulation(25, small_build.triangulation.num_vertices, tri)
    cert = verify.certify(broken)
    assert not cert.ok
    assert cert.audit.defects == [
        "the cone over cycle 13 is not a fan: a pair not adjacent on its cycle at row 524 (271, 278, 278)"
    ]
    # the kernel alone, over a ledger of the innermost cycle, whose one strip is the fan
    out, count = np.zeros((1, 2), dtype=np.int64), np.zeros(2, dtype=np.int32)
    cone, start, terms = tri[524:], np.array([271, 278], dtype=np.int32), np.zeros((1, 4), dtype=np.int64)
    assert _kernels.library().strip_annuli(cone, 7, start, 1, terms, count, None, np.zeros(16, dtype=np.int32), out) == 0
    assert out.tolist() == [[-4, 0]] and count.tolist() == [7, 0]


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 10**6)), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_drift_pass_matches_the_numpy_audit_on_corrupted_complexes(medium_build, changes):
    # Any id of any row replaced by any vertex: chords, degenerate rows,
    # edges that skip cycles or join the apex to any cycle, in any number.
    tri = np.array(medium_build.triangulation.triangles)
    nv = medium_build.triangulation.num_vertices
    for f, j, v in changes:
        tri[f % len(tri), j] = v % nv
    broken = copy.copy(medium_build)
    broken.triangulation = Triangulation(medium_build.params.n, nv, tri)
    cert = verify.certify(broken)
    ref.assert_certificate(cert, broken)
    assert cert.ok or cert.audit.defects or cert.audit.failures()


def test_drift_pass_raises_the_int64_error_where_the_numpy_audit_did(monkeypatch):
    # C_(2^21) shrinking to M: the numpy audit measures the rungs of the row
    # (0, 1, n) in units of 1/(mM), the strip pass in the same units, and
    # both need 2 n m M < 2^63.  At M = 2^20 that is 2^63, and both refuse,
    # the strip pass before its kernel; one vertex fewer and both measure.
    n = 2**21

    def one_row(inner):
        build = _ledger_build(layer_ledger(n, [("shrink", inner)]))
        build.triangulation = Triangulation(n, n + inner + 1, [(0, 1, n)])
        return build

    below = one_row(2**20 - 1)
    rows, lines = ref.drift_audit(below)
    assert rows == [1] and lines == []  # the rung (1, n) joins thetas 1 and 0
    cert = verify.certify(below)
    assert not cert.ok and cert.audit.defects and cert.audit.rows == []  # one row is no strip
    at = one_row(2**20)
    _refuse_kernels(monkeypatch, "strip_annuli")
    with pytest.raises(ValueError, match=rf"drift audit of cycles 0 and 1 needs positions in units of 1/{2**41}: "
                                         r"exceeds int64 arithmetic"):
        ref.drift_audit(at)
    with pytest.raises(ValueError, match=rf"drift terms \(0, {2**41}, {2**42}\) exceed the int64 period {2**62}"):
        verify.certify(at)


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs the C compiler")
def test_kernels_compile_without_warnings(tmp_path):
    done = subprocess.run(
        ["cc", "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"), str(_kernels._SOURCE)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_every_kernel_is_declared_and_called():
    # The exported functions of _kernels.c are exactly the kernels with a
    # ctypes signature and the kernels its header lists, and the package
    # calls each of them.
    source = _kernels._SOURCE.read_text()
    exported = re.findall(r"^(?!static\b)[A-Za-z_][\w\s*]*?\b(\w+)\(", source, re.M)
    assert sorted(exported) == sorted(_kernels.signatures())
    listed = re.findall(r"^ \* {3}(\w+(?:, \w+)*)", source[: source.index("*/")], re.M)
    assert sorted(name for names in listed for name in names.split(", ")) == sorted(exported)
    package = "".join(path.read_text() for path in _kernels._SOURCE.parent.glob("*.py"))
    assert [name for name in exported if f".{name}(" not in package] == []


_POINTERS = [
    pytest.param(name, k, id=f"{name}-{k}")
    for name, (_, argtypes) in _kernels.signatures().items()
    for k, argtype in enumerate(argtypes)
    if isinstance(argtype, _kernels._Buffer)
]
_OTHER_KIND = {"i": "I", "l": "L", "q": "Q", "L": "l", "Q": "q", "?": "B", "B": "b"}  # same item size, another type


@pytest.mark.parametrize("name, position", _POINTERS)
def test_pointer_arguments_take_what_ndpointer_took(name, position):
    # A pointer argument takes a C-contiguous numpy array of its item type
    # and ndim, read-only or not, and the same layout in a bytearray or an
    # array.array; anything else is an ArgumentError before the kernel runs.
    argtypes = _kernels.signatures()[name][1]
    pointer = argtypes[position]
    code = min(pointer.codes)
    shape = (2, 3) if pointer.ndim == 2 else (6,)
    dtype = np.dtype(code)
    wrong = [
        np.zeros(shape, dtype=_OTHER_KIND[code]),
        np.zeros(shape, dtype=np.float64),
        np.zeros((shape[0], 2 * shape[-1]), dtype=dtype)[..., ::2] if pointer.ndim else np.zeros(12, dtype=dtype)[::2],
        array("d", [0.0] * 6),
        [0] * 6,
    ]
    if pointer.ndim:
        wrong.append(np.zeros(6, dtype=dtype))
    function = getattr(_kernels.library(), name)
    # every other argument is valid, so the call fails in the conversion of this one, before the kernel runs
    args = [
        np.zeros((1,) * (t.ndim or 1), dtype=min(t.codes)) if isinstance(t, _kernels._Buffer) else t() for t in argtypes
    ]
    for value in wrong:
        with pytest.raises(ctypes.ArgumentError, match=f"argument {position + 1}:"):
            function(*args[:position], value, *args[position + 1 :])
    frozen = np.ones(shape, dtype=dtype)
    frozen.flags.writeable = False
    assert pointer.from_param(frozen).value == frozen.ctypes.data
    assert pointer.from_param(memoryview(bytearray(6 * dtype.itemsize)).cast(code, shape)) is not None
    if code != "?" and not pointer.ndim:
        assert pointer.from_param(array(code, range(6))) is not None


def _frozen(array):
    array.flags.writeable = False
    return array


# Buffers of int32 ids, each with whether a 1-d and a 2-d int32 pointer take it.
_BUFFERS = {
    "numpy": (lambda: np.zeros((2, 3), dtype=np.int32), True, True),
    "numpy-read-only": (lambda: _frozen(np.zeros((2, 3), dtype=np.int32)), True, True),
    "bytearray": (lambda: memoryview(bytearray(24)).cast("i", (2, 3)), True, True),
    "array": (lambda: array("i", range(6)), True, False),
    "bytes": (lambda: memoryview(bytes(24)).cast("i", (2, 3)), False, False),
    "slice": (lambda: np.zeros((2, 6), dtype=np.int32)[:, ::2], False, False),
    "format": (lambda: np.zeros((2, 3), dtype=np.int64), False, False),
    "ndim": (lambda: np.zeros(6, dtype=np.int32), True, False),
}


@pytest.mark.parametrize("name", _BUFFERS)
def test_callers_refuse_exactly_what_the_pointers_refuse(name):
    # The callers' check and the ctypes pointers apply one rule: read-only
    # buffers are taken where the kernel only reads, and only from numpy.
    make, flat, rows = _BUFFERS[name]
    for ndim, want in ((None, flat), (2, rows)):
        pointer, obj = _kernels._Buffer(_kernels.INT32, ndim), make()
        try:
            pointer.from_param(obj)
        except TypeError:
            taken = False
        else:
            taken = True
        assert taken == want == (_kernels.takes(obj, pointer.codes, pointer.shape) is not None), ndim
        writable = _kernels.takes(obj, pointer.codes, pointer.shape, writable=True) is not None
        assert writable == (want and not memoryview(obj).readonly), ndim
        if not want:
            with pytest.raises(ValueError, match=r"^ids must be a C-contiguous .*int32 numpy array or writable buffer"):
                _kernels.checked(obj, pointer.codes, pointer.shape, "ids")


def test_callers_hand_read_only_numpy_arrays_to_the_kernels(small_build):
    # What the rule takes reaches the kernel as it was given: a read-only
    # numpy array, whose address ctypes takes, and not a read-only view of it.
    t, n = small_build.triangulation, small_build.params.n
    dist = verify_filling(t).boundary_distances
    table = separation_lower_bounds(small_build)
    table[3] += 1
    rows, frozen = _frozen(np.array(t.triangles)), _frozen(np.array(dist))
    edges, slot = _edge_table(t.triangles)
    assert [bytes(x) for x in _edge_table(rows)] == [bytes(edges), bytes(slot)]
    report = simplicial.ValidationReport()
    simplicial._disk_failures(n, t.num_vertices, rows, (_frozen(np.array(edges)), _frozen(np.array(slot))), report)
    assert report == validate_disk(t)
    shaped = copy.copy(t)
    shaped.triangles = rows
    assert annuli.strip_drifts(shaped, small_build.ledger) == annuli.strip_drifts(t, small_build.ledger)
    assert verify._judgement(frozen, n, table) == verify._judgement(dist, n, table)
    assert verify._judgement(dist, n, table)[1] is not None
    cone = cone_over_cycle(7)  # within the isometry test's 255 vertices, as small_build is not
    shaped = copy.copy(cone)
    shaped.triangles = _frozen(np.array(cone.triangles))
    assert is_isometric_filling(shaped) is is_isometric_filling(cone) is False


# ROADMAP's standing rule from item 13: each kernel's caller refuses bad
# buffers in a test that monkeypatches the kernel to fail, or the kernel is
# only handed buffers its caller made, for the reason given.
_REFUSED_IN = {
    "filling_rows": "test_kernels.py::test_annulus_and_cone_rows_refuse_ids_and_buffers_before_the_kernel",
    "top_id": "test_kernels.py::test_edge_table_refuses_other_formats_before_the_kernel",
    "canonical_rows": "test_kernels.py::test_canonical_rotation_refuses_ids_and_formats",
    "edge_slots": "test_kernels.py::test_edge_table_refuses_other_formats_before_the_kernel",
    "edge_ends": "test_kernels.py::test_edge_table_refuses_other_formats_before_the_kernel",
    "disk_marks": "test_kernels.py::test_disk_marks_refuse_a_table_that_does_not_fit_before_the_kernel",
    "graph_csr": "test_verify.py::test_out_of_range_ids_are_refused_before_the_kernel",
    "bfs_tree": "test_verify.py::test_out_of_range_ids_are_refused_before_the_kernel",
    "boundary_tree": "test_verify.py::test_out_of_range_ids_are_refused_before_the_kernel",
    "boundary_rows": "test_verify.py::test_out_of_range_ids_are_refused_before_the_kernel",
    "judge_pairs": "test_kernels.py::test_bound_violation_refuses_other_tables_and_matrices_before_the_kernel",
    "disk_verdicts": "test_kernels.py::test_disk_verdicts_refuse_other_stacks_before_the_kernel",
    "strip_annuli": "test_kernels.py::test_strip_annuli_refuse_other_buffers_ids_and_terms_before_the_kernel",
    "isometric_rows": "test_kernels.py::test_isometry_test_refuses_ids_beyond_its_vertices",
    "rows_text": "test_kernels.py::test_row_writer_refuses_other_buffers_before_the_kernel",
    "parse_rows": "test_kernels.py::test_row_reader_refuses_other_buffers_before_the_kernel",
}
_NEEDS_NO_REFUSAL = {
    "grow_state_size": "it takes two counts and no buffer",
    "grow_fillings": "oracle._fillings hands it only the state, path and stack buffers it made for the search",
}


def test_every_kernel_has_a_refused_before_call_test_or_a_reason():
    assert sorted([*_REFUSED_IN, *_NEEDS_NO_REFUSAL]) == sorted(_kernels.signatures())
    for name, where in _REFUSED_IN.items():
        path, test = where.split("::")
        body = re.search(rf"^def {test}\(.*?(?=^\S)", (Path(__file__).parent / path).read_text() + "\n.", re.M | re.S)
        # the test names the kernel, as it does to patch it to fail
        assert body is not None and f'"{name}"' in body[0], where


_SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=undefined", "-g")
_UNDER_SANITIZERS = """
import functools, sys
from pathlib import Path
import pytest
from ringfill import _kernels

def refuse(source, path):
    raise RuntimeError(f"no sanitized kernel library at {path}")

_kernels._compile = refuse
_kernels.library = functools.cache(lambda: _kernels.load(Path(sys.argv[1])))
sys.exit(pytest.main(sys.argv[2:]))
"""


def test_kernels_pass_their_tests_under_sanitizers(tmp_path):
    # The kernels take raw int32 pointers and ids: a missing bound would be a
    # silent wrong answer, so the kernel, oracle, validation, verification
    # and acceptance tests run once more on a library built with
    # AddressSanitizer and UndefinedBehaviorSanitizer, which stop at the
    # first bad read, write or overflow.
    if "libasan" in os.environ.get("LD_PRELOAD", ""):
        pytest.skip("already running under the sanitizers")
    source = _kernels._SOURCE.read_bytes()
    library = tmp_path / _kernels._library_name(source)
    built = None
    if shutil.which("cc"):
        built = subprocess.run([*_kernels._CC, *_SANITIZE, "-x", "c", "-o", str(library), "-"], input=source,
                               capture_output=True)
    if built is None or built.returncode:
        pytest.skip("cc cannot link a sanitized object")
    runtimes = [
        subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    ]
    tests = Path(__file__).parent
    env = {
        **os.environ,
        "LD_PRELOAD": " ".join(runtimes),
        "ASAN_OPTIONS": "detect_leaks=0",
        "PYTHONPATH": os.pathsep.join([str(Path(_kernels.__file__).parents[1]), str(tests)]),
    }
    argv = [
        str(tmp_path), "-q", "-p", "no:cacheprovider", "--capture=sys",  # a sanitizer's report goes to fd 2
        *(str(tests / f"test_{name}.py")
          for name in ("kernels", "oracle", "simplicial", "chunks", "verify", "acceptance", "load_json", "serialize")),
        str(tests / "test_cli.py::test_a_built_filling_is_stripped_once"),  # the strip kernel's one call a command
        # the loader's tests compile libraries of their own, which the patched loader refuses
        "-k", "not under_sanitizers and not first_builds_share and not unwritable_cache and not edited_source"
              " and not compiler_flags",
    ]
    done = subprocess.run([sys.executable, "-c", _UNDER_SANITIZERS, *argv], env=env, capture_output=True, text=True,
                          cwd=tmp_path, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert " passed" in done.stdout.splitlines()[-1] and "failed" not in done.stdout.splitlines()[-1]
