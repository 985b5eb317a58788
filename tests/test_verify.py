import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_impl as ref
from hypothesis import assume, given, settings, strategies as st
from reference_impl import bfs_distances, reference_drift_audit, reference_separation_lower_bounds, skeleton_graph
from reference_impl import drift_audit as numpy_drift_audit

from ringfill import (
    Params,
    ScheduleError,
    Triangulation,
    boundary_distance_matrix,
    build_filling,
    certify,
    cone_over_cycle,
    cycle_dist,
    drift_audit,
    separation_lower_bounds,
    step_profile_eps,
    validate_disk,
    verify_filling,
)


def floyd_warshall(t):
    """Independent all-pairs oracle: O(V^3) relaxation, no BFS involved."""
    big = 10**6
    d = np.full((t.num_vertices, t.num_vertices), big, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for u, v in t.edges.tolist():
        d[u, v] = d[v, u] = 1
    for k in range(t.num_vertices):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def test_bfs_on_wheel():
    adj = skeleton_graph(cone_over_cycle(4))
    assert bfs_distances(adj, 0) == [0, 1, 2, 1, 1]


def test_bfs_single_triangle():
    t = Triangulation(3, 3, [(0, 1, 2)])
    for src in range(3):
        assert max(bfs_distances(skeleton_graph(t), src)) <= 1


def test_bfs_raises_on_disconnected():
    t = Triangulation(3, 6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ValueError, match="unreachable"):
        bfs_distances(skeleton_graph(t), 0)
    with pytest.raises(ValueError, match="disconnected"):
        boundary_distance_matrix(t)


def test_bfs_agrees_with_floyd_warshall(small_build):
    for t in (cone_over_cycle(5), cone_over_cycle(6), small_build.triangulation):
        fw = floyd_warshall(t)
        adj = skeleton_graph(t)
        for src in (0, t.n // 2):
            assert bfs_distances(adj, src) == fw[src].tolist()
        assert (np.asarray(boundary_distance_matrix(t)) == fw[: t.n, : t.n]).all()


def test_verify_cone_c5_isometric():
    report = verify_filling(cone_over_cycle(5))
    assert report.delta == 1
    assert report.is_isometric
    assert report.witness_path is None


def test_verify_cone_c6_shortcut():
    report = verify_filling(cone_over_cycle(6))
    assert report.delta == Fraction(2, 3)
    assert not report.is_isometric
    x, y, d_k, d_c = report.worst_pair
    assert cycle_dist(x, y, 6) == 3 and d_k == 2 and d_c == 3
    # the witness is a real path through the apex realizing the shortcut
    assert report.witness_path[0] == x and report.witness_path[-1] == y
    assert len(report.witness_path) - 1 == d_k
    assert 6 in report.witness_path


@pytest.mark.parametrize("block", [1, 40, 1 << 16])
def test_worst_pair_is_the_first_exact_minimum(small_build, block):
    # The compiled scan against the float scan it replaced, in blocks of one
    # entry (one row), of a few rows with a short last block, and of all rows.
    # Many pairs meet the build's delta = 1, and several meet each cone's delta < 1 from C_6 on.
    for t in [cone_over_cycle(k) for k in range(3, 12)] + [small_build.triangulation]:
        report = verify_filling(t)
        d = report.boundary_distances
        pairs = [(x, y) for x in range(t.n) for y in range(t.n) if x != y]
        x, y = min(pairs, key=lambda p: Fraction(d[p], cycle_dist(*p, t.n)))
        assert report.worst_pair == (x, y, d[x, y], cycle_dist(x, y, t.n))
        assert report.delta == Fraction(d[x, y], cycle_dist(x, y, t.n))
        assert ref.worst_pair(d, t.n, block) == (x, y)


@pytest.mark.parametrize("block", [6, 1 << 16])
def test_missing_cycle_edge_is_named(block):
    # C_6 coned off without its triangle on edge (3, 4): that edge is gone.
    # The float scan it replaced, in blocks of one row and of all rows, names the same pair.
    t = Triangulation(6, 7, [(6, i, (i + 1) % 6) for i in range(6) if i != 3])
    message = r"graph distance 2 exceeds cycle distance 1 for pair \(3, 4\)"
    with pytest.raises(ValueError, match=message):
        verify_filling(t)
    with pytest.raises(ValueError, match=message):
        ref.worst_pair(boundary_distance_matrix(t), 6, block)


def test_verify_matrix_is_symmetric_with_triangle_inequality(small_build):
    d = np.asarray(verify_filling(small_build.triangulation).boundary_distances)
    assert (d == d.T).all()
    n = small_build.params.n
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert d[a, c] <= d[a, b] + d[b, c]


def test_verify_jobs_deterministic(medium_build):
    t = medium_build.triangulation
    serial = verify_filling(t, jobs=1)
    threaded = verify_filling(t, jobs=4)
    assert serial.delta == threaded.delta
    assert serial.worst_pair == threaded.worst_pair
    assert serial.boundary_distances.tolist() == threaded.boundary_distances.tolist()
    # uneven spans of 22, 22 and 20 sources
    assert boundary_distance_matrix(t, jobs=3).tolist() == serial.boundary_distances.tolist()


@pytest.mark.parametrize("cpus", [1, 2, 64, None])
def test_bfs_threads_are_capped_by_spans_and_cpus(monkeypatch, cpus):
    import ringfill.verify as verify

    # only the arithmetic: no thread is started.  One thread takes one span;
    # more take four spans each, since sources in the first half of the
    # boundary cost far more than those in the second.
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    threads = cpus or 1
    for n, jobs, sizes in [
        (64, 3, {1: [64], 2: [8] * 8, 64: [6] * 10 + [4]}),
        (25, 1, {1: [25], 2: [25], 64: [25]}),
        (7, 7, {1: [7], 2: [1] * 7, 64: [1] * 7}),
        (4096, 100_000, {1: [4096], 2: [512] * 8, 64: [16] * 256}),
    ]:
        spans, workers = verify._bfs_plan(n, jobs)
        assert [len(span) for span in spans] == sizes[threads]
        assert [i for span in spans for i in span] == list(range(n))
        assert workers == min(jobs, n, threads)


def test_running_spans_never_share_scratch(monkeypatch):
    # Eight threads on however few cores, switching as often as the
    # interpreter allows: two running spans given one scratch pair would
    # garble each other's searches.
    import sys

    import ringfill.verify as verify

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    t = build_filling(Params(320, Fraction(1, 10), Fraction(1, 4))).triangulation
    want = boundary_distance_matrix(t, jobs=1).tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert boundary_distance_matrix(t, jobs=8).tolist() == want
    finally:
        sys.setswitchinterval(interval)


def test_jobs_beyond_n_ask_the_pool_for_the_cpus_only(monkeypatch, medium_build):
    import concurrent.futures

    import ringfill.verify as verify

    asked = []

    class SerialPool:
        """Records ``max_workers`` and runs the spans in this thread."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            return map(fn, spans)

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    t = medium_build.triangulation
    dist = boundary_distance_matrix(t, jobs=10**6)
    assert asked == [4]
    assert dist.tolist() == boundary_distance_matrix(t, jobs=1).tolist()


def test_jobs_below_one_is_an_error(small_build, monkeypatch):
    import ringfill.analysis as analysis
    import ringfill.builder

    t = small_build.triangulation
    monkeypatch.setattr(ringfill.builder, "build_filling", None)  # the sweep refuses before any build
    for jobs in (0, -2):
        with pytest.raises(ValueError, match=f"jobs must be a positive integer, got {jobs}"):
            verify_filling(t, jobs=jobs)
        with pytest.raises(ValueError, match=f"jobs must be a positive integer, got {jobs}"):
            analysis.run_sweep([25], "1/10", "1/4", jobs=jobs)


def test_witness_path_helper():
    # cones over C_k for k >= 6 have shortcuts through the apex
    for k in range(6, 11):
        t = cone_over_cycle(k)
        report = verify_filling(t)
        x, y, d_k, _ = report.worst_pair
        path = report.witness_path
        adj = skeleton_graph(t)
        assert path[0] == x and path[-1] == y
        assert all(b in adj[a] for a, b in zip(path, path[1:]))
        assert len(path) - 1 == d_k == bfs_distances(adj, x)[y]


def test_verify_builds_the_graph_once(monkeypatch):
    # The witness BFS reuses the CSR that the boundary distances were
    # computed on, instead of building it a second time.
    import ringfill.verify as verify

    calls = []

    def counting(t):
        calls.append(t)
        return graph_csr(t)

    graph_csr = verify._graph_csr
    monkeypatch.setattr(verify, "_graph_csr", counting)
    report = verify_filling(cone_over_cycle(7))
    assert len(calls) == 1
    assert report.delta == Fraction(2, 3)
    assert report.worst_pair == (0, 3, 2, 3)
    assert report.witness_path == [0, 7, 3]


def test_checks_leave_the_complex_as_it_was(small_build):
    # The complex keeps nothing beside its rows: validation, the certificate
    # and verification each sort their own edge table and drop it, so none
    # changes vars(t) or t's edges, and a second verification gives the
    # same report.  The cone over C_9 has a shortcut, so a witness.
    built = small_build.triangulation
    for t, checks in (
        (built, (validate_disk, lambda t: certify(small_build), verify_filling)),
        (cone_over_cycle(9), (validate_disk, verify_filling)),
    ):
        state, edges = dict(vars(t)), bytes(t.edges)
        first = [check(t) for check in checks][-1]
        assert vars(t) == state and bytes(t.edges) == edges
        second = verify_filling(t)
        assert bytes(second.boundary_distances) == bytes(first.boundary_distances)
        assert (second.delta, second.worst_pair, second.witness_path) == (
            first.delta, first.worst_pair, first.witness_path
        )
        assert (first.witness_path is None) == (t.n == built.n)


@pytest.mark.parametrize("jobs", [1, 3])
def test_kernel_distances_and_witness_match_the_references(flipped_builds, jobs):
    import ringfill.verify as verify

    # the flipped n = 64 builds are valid disks with delta = 1; the cones over
    # C_6..C_11 have delta < 1, so their reports carry a witness from the
    # kernel's BFS tree
    for build, *_ in flipped_builds.values():
        t = build.triangulation
        adj = skeleton_graph(t)
        graph = verify._graph_csr(t)
        ref = [bfs_distances(adj, src) for src in range(t.n)]
        assert boundary_distance_matrix(t, jobs=jobs).tolist() == [row[: t.n] for row in ref]
        for src in range(0, t.n, 7):
            for dst in (src, (src + t.n // 2) % t.n, t.num_vertices - 1):
                path = verify._witness(graph, src, dst)
                assert path[0] == src and path[-1] == dst and len(path) - 1 == ref[src][dst]
                assert all(b in adj[a] for a, b in zip(path, path[1:]))
    for k in range(6, 12):
        t = cone_over_cycle(k)
        fw = floyd_warshall(t)
        report = verify_filling(t, jobs=jobs)
        assert (np.asarray(report.boundary_distances) == fw[:k, :k]).all()
        x, y, d_k, _ = report.worst_pair
        path = report.witness_path
        assert report.delta < 1 and path[0] == x and path[-1] == y
        assert len(path) - 1 == d_k == fw[x, y]
        assert all(fw[a, b] == 1 for a, b in zip(path, path[1:]))


def _reference_rows(t):
    adj = skeleton_graph(t)
    return [bfs_distances(adj, src)[: t.n] for src in range(t.n)]


def _plans(monkeypatch, jobs):
    """The plan of ``jobs`` threads, however many CPUs run the tests, or each source a span of its own ("each")."""
    import ringfill.verify as verify

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    if jobs == "each":
        monkeypatch.setattr(verify, "_bfs_plan", lambda n, jobs: ([range(x, x + 1) for x in range(n)], 1))
        return 1
    return jobs


@pytest.mark.parametrize("jobs", [1, 2, 3, "each"])
def test_confined_searches_give_the_per_source_matrix(flipped_builds, monkeypatch, jobs):
    # Each search from x >= 1 skips one side of the tree path from 0 to x and
    # every vertex too deep to lie on a shortest path to a target y > x; every
    # span of sources starts with its own flood.  The matrix must still be the
    # plain searches', byte for byte: on the cones (delta < 1 from C_6 on), on
    # valid disks with a stray edge, and on the latitude filling of C_64
    # (delta = 7/8), whose worst pair and witness must not change either.
    from test_kernels import _latitude, _ledger_build

    jobs = _plans(monkeypatch, jobs)
    for t in [cone_over_cycle(k) for k in range(3, 13)] + [b.triangulation for b, *_ in flipped_builds.values()]:
        assert boundary_distance_matrix(t, jobs=jobs).tolist() == _reference_rows(t)
    t = _ledger_build(_latitude(64)).triangulation
    want = _reference_rows(t)
    report = verify_filling(t, jobs=jobs)
    assert report.boundary_distances.tolist() == want
    x, y, d_k, d_c = report.worst_pair
    assert report.delta == Fraction(7, 8) and (x, y) == ref.worst_pair(np.array(want), 64)
    path = report.witness_path
    adj = skeleton_graph(t)
    assert path[0] == x and path[-1] == y and len(path) - 1 == d_k == want[x][y]
    assert all(b in adj[a] for a, b in zip(path, path[1:]))


@given(st.integers(12, 64), st.sampled_from([Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)]),
       st.sampled_from([Fraction(1, 5), Fraction(1, 4), Fraction(2, 5)]), st.sampled_from([1, 2, 3, "each"]))
@settings(max_examples=12, deadline=None)
def test_confined_searches_match_the_reference_on_builds(n, rho, eta, jobs):
    assume(eta * eta < rho)
    try:
        t = build_filling(Params(n, rho, eta)).triangulation
    except ScheduleError:
        assume(False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert boundary_distance_matrix(t, jobs=_plans(monkeypatch, jobs)).tolist() == _reference_rows(t)


def _with_triangles(t, rows, extra=0):
    return Triangulation(t.n, t.num_vertices + extra, np.vstack([np.asarray(t.triangles), rows]))


@pytest.mark.parametrize("jobs", [1, 2, 3, "each"])
def test_hostile_inputs_give_the_reference_or_the_named_error(small_build, monkeypatch, jobs):
    jobs = _plans(monkeypatch, jobs)
    t = small_build.triangulation
    v = t.num_vertices
    # without boundary edge (3, 4) the depth cut does not hold: the searches
    # keep the side cut alone, and the worst pair scan names the edge
    gap = Triangulation(25, v, [row for row in t.triangles.tolist() if not {3, 4} <= set(row)])
    assert boundary_distance_matrix(gap, jobs=jobs).tolist() == _reference_rows(gap)
    with pytest.raises(ValueError, match=r"for pair \(0, 4\): boundary cycle edges are missing"):
        verify_filling(gap, jobs=jobs)
    # a stray triangle leaves three vertices that no search reaches
    with pytest.raises(ValueError, match="graph is disconnected"):
        boundary_distance_matrix(_with_triangles(t, [(v, v + 1, v + 2)], 3), jobs=jobs)
    # Shortcuts through a new vertex across the disk, or between boundary
    # vertices, are no planar disk: the flood from one side of a tree path
    # crosses them and reaches a target, so the rest of the span runs
    # without the side cut and must still give the plain searches' matrix.
    cycle = small_build.ledger[1]
    for ends in [(cycle.vertex(2), cycle.vertex(14)), (cycle.vertex(20), cycle.vertex(5)), (0, 12), (24, 6)]:
        shortcut = _with_triangles(t, [(*ends, v)], 1)
        assert boundary_distance_matrix(shortcut, jobs=jobs).tolist() == _reference_rows(shortcut)
    both = _with_triangles(t, [(24, 6, v), (1, 8, v + 1)], 2)
    assert boundary_distance_matrix(both, jobs=jobs).tolist() == _reference_rows(both)


@pytest.mark.parametrize("jobs", [1, 3])
def test_two_components_without_a_cycle_edge_between_are_disconnected(jobs):
    # the search from the whole boundary reaches every vertex, but the one
    # from vertex 0 does not: the cycle edges that would join the two
    # triangles are missing, and the graph is disconnected
    t = Triangulation(6, 6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ValueError, match="graph is disconnected"):
        boundary_distance_matrix(t, jobs=jobs)
    with pytest.raises(ValueError, match="graph is disconnected"):
        verify_filling(t, jobs=jobs)


def test_witness_of_a_disconnected_graph_is_refused():
    import ringfill.verify as verify

    graph = verify._graph_csr(Triangulation(6, 6, [(0, 1, 2), (3, 4, 5)]))
    assert verify._witness(graph, 0, 2) == [0, 2]
    with pytest.raises(ValueError, match="graph is disconnected: vertex 4 is unreachable from 1"):
        verify._witness(graph, 1, 4)


def test_out_of_range_ids_are_refused_before_the_kernel(monkeypatch):
    from array import array

    import ringfill.verify as verify
    from ringfill import _kernels

    def _refuse(*args):
        raise AssertionError("the kernel was reached")

    indptr, indices = verify._graph_csr(cone_over_cycle(4))
    for entry in ("graph_csr", "bfs_tree", "boundary_tree", "boundary_rows"):
        monkeypatch.setattr(_kernels.library(), entry, _refuse)
    for x, y in [(5, 0), (0, 5), (-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match=f"a witness from {x} to {y} needs two of the CSR's 5 vertices"):
            verify._witness((indptr, indices), x, y)
    # Triangulation takes ids up to the int32 maximum whatever its vertex count
    with pytest.raises(ValueError, match="vertex id 5, beyond the 3 vertices"):
        boundary_distance_matrix(Triangulation(3, 3, [(0, 1, 2), (0, 1, 5)]))
    with pytest.raises(ValueError, match="2147483648 vertices are more than the BFS kernel's int32 ids hold"):
        boundary_distance_matrix(Triangulation(3, 2**31, [(0, 1, 2)]))
    # the boundary driver's caller checks the CSR it is handed against its vertex count and n
    past_end, beyond, negative = array("i", indptr), array("i", indices), array("i", indptr)
    past_end[2], beyond[3], negative[1] = 17, 5, -1
    for graph, n in [((indptr, indices), 6), ((indptr, indices), 0), ((past_end, indices), 4),
                     ((indptr, beyond), 4), ((negative, indices), 4), ((indptr, indices[:-1]), 4)]:
        with pytest.raises(ValueError, match=f"a CSR of 5 vertices and 1[56] neighbours cannot hold {n} boundary"):
            verify._boundary_distances(graph, n, 1)


def _use_kernel(monkeypatch, library):
    from ringfill import _kernels

    monkeypatch.setattr(_kernels, "library", lambda: library)


def test_concurrent_first_builds_share_one_cache(tmp_path, monkeypatch):
    import threading

    from ringfill import _kernels

    cache = tmp_path / "cache"
    start = threading.Barrier(2, timeout=60)
    kernels, errors = [], []

    def build():
        try:
            start.wait()
            kernels.append(_kernels.load(cache))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert errors == [] and len(kernels) == 2
    (library,) = cache.iterdir()  # one library, no temporary left
    assert library.suffix == ".so" and library.stat().st_mode & 0o777 == 0o755
    for kernel in kernels:
        _use_kernel(monkeypatch, kernel)
        assert verify_filling(cone_over_cycle(6)).delta == Fraction(2, 3)


@pytest.mark.parametrize("where", ["read-only directory", "below a file"])
def test_unwritable_cache_builds_a_private_kernel(tmp_path, monkeypatch, where):
    import os
    import tempfile

    from ringfill import _kernels

    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    if where == "read-only directory":
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o555)
    else:
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    try:
        _use_kernel(monkeypatch, _kernels.load(cache))
        writable = os.access(cache, os.W_OK)  # root may write a read-only directory
    finally:
        if cache.is_dir():
            cache.chmod(0o755)
    report = verify_filling(cone_over_cycle(6))
    assert report.delta == Fraction(2, 3) and len(report.witness_path) == 3
    assert list(private.iterdir()) == []  # the private directory is gone once the kernel is loaded
    if cache.is_dir() and not writable:
        assert list(cache.iterdir()) == []


def test_edited_source_gets_a_new_library(tmp_path, monkeypatch):
    from ringfill import _kernels

    cache = tmp_path / "cache"
    first = _kernels.load(cache)
    edited = tmp_path / "_kernels.c"
    edited.write_text(_kernels._SOURCE.read_text() + "/* edited */\n")
    monkeypatch.setattr(_kernels, "_SOURCE", edited)
    # a compile under way in another process, and a library of another platform
    kept = {Path(first._name).name + ".x1y2.tmp", "_kernels.0123456789abcdef.other-platform.so"}
    for name in kept:
        (cache / name).write_bytes(b"")
    _use_kernel(monkeypatch, _kernels.load(cache))
    names = {p.name for p in cache.iterdir()}  # the new library replaced the first, and nothing else
    assert names == {_kernels._library_name(edited.read_bytes()), *kept}
    assert verify_filling(cone_over_cycle(7)).delta == Fraction(2, 3)
    _use_kernel(monkeypatch, first)  # still mapped, so it still runs
    assert verify_filling(cone_over_cycle(7)).delta == Fraction(2, 3)


def test_changed_compiler_flags_get_a_new_library(tmp_path, monkeypatch):
    from ringfill import _kernels

    cache = tmp_path / "cache"
    first = _kernels.load(cache)
    flags = (*_kernels._CC, "-DRINGFILL_FLAGS_CHANGED")
    monkeypatch.setattr(_kernels, "_CC", flags)
    built = []
    compile_ = _kernels._compile
    monkeypatch.setattr(_kernels, "_compile", lambda source, path: built.append(path) or compile_(source, path))
    _use_kernel(monkeypatch, _kernels.load(cache))
    names = [p.name for p in cache.iterdir()]
    assert [path.name for path in built] == [_kernels._library_name(_kernels._SOURCE.read_bytes())]
    assert names == [built[0].name] and first._name != str(built[0])
    assert verify_filling(cone_over_cycle(7)).delta == Fraction(2, 3)
    _use_kernel(monkeypatch, first)  # removed from the cache but still mapped
    assert verify_filling(cone_over_cycle(7)).delta == Fraction(2, 3)


def test_drift_audit_passes_and_equal_annuli_are_tight(medium_build):
    audit = drift_audit(medium_build)
    assert audit.ok and audit.defects == []
    assert len(audit.rows) == len(medium_build.ledger) - 1
    for row in audit.rows:
        if row.kind != "shrink":
            assert row.tight, f"annulus {row.layer} ({row.kind}) not at its bound"
        assert row.max_observed <= row.bound


def test_drift_audit_detects_corruption(small_build):
    import copy

    broken = copy.copy(small_build)
    broken.ledger = [copy.copy(rec) for rec in small_build.ledger]
    broken.ledger[0].drift_bound = Fraction(1, 10**9)
    audit = drift_audit(broken)
    assert not audit.ok
    assert audit.failures()[0].layer == 0


def test_drift_audit_matches_fraction_reference(small_build, medium_build):
    import copy

    # a tampered copy: one slanted edge's inner end moved three steps along its cycle
    tampered = copy.copy(medium_build)
    t = medium_build.triangulation
    cycle = medium_build.ledger[5]
    tris = np.array(t.triangles)
    hits = np.argwhere((tris >= cycle.first_vertex) & (tris < cycle.first_vertex + cycle.length))
    f, j = next((f, j) for f, j in hits if tris[f].min() < cycle.first_vertex)
    tris[f, j] = cycle.first_vertex + (tris[f, j] - cycle.first_vertex + 3) % cycle.length
    tampered.triangulation = Triangulation(t.n, t.num_vertices, tris)
    for build in (small_build, medium_build):
        rows = drift_audit(build).rows
        assert [row.max_observed for row in rows] == reference_drift_audit(build)
    # annulus 4 is no strip, and has no row; every other annulus has the reference's
    audit = drift_audit(tampered)
    assert audit.defects == ["annulus 4 (collar) is not a strip: a wrong far vertex at row 519 (260, 323, 324)"]
    want = reference_drift_audit(tampered)
    assert {row.layer: row.max_observed for row in audit.rows} == {r: d for r, d in enumerate(want) if r != 4}


@pytest.mark.parametrize("flip", ["layer-skipping", "chord", "apex"])
def test_drift_audit_refuses_an_edge_of_no_annulus(flipped_builds, flip):
    build, line, defects = flipped_builds[flip]
    assert validate_disk(build.triangulation).ok
    ref.assert_certificate(certify(build), build)
    audit = drift_audit(build)
    assert not audit.ok
    assert audit.defects == defects
    rows, lines = numpy_drift_audit(build)
    assert lines == [line] and rows == reference_drift_audit(build)
    assert {row.layer: row.max_observed for row in audit.rows} == {row.layer: rows[row.layer] for row in audit.rows}


def test_drift_audit_refuses_int64_overflow(monkeypatch, small_build):
    # Every ledger of layer_ledger measures an annulus in units of 1/S with
    # S <= n^2, so 2 n S <= 2 n^3 fits int64 below n = 1.6 million.  Past
    # that, a hand-made ledger of C_(2^21) shrinking to 2^20 has S = m M =
    # 2^41 and 2 n S = 2^63, which strip_drifts refuses before the strip
    # kernel runs.
    import copy

    from test_kernels import _refuse_kernels

    from ringfill import layer_ledger

    n = 2**21
    huge = copy.copy(small_build)
    huge.ledger = layer_ledger(n, [("shrink", 2**20)])
    huge.triangulation = Triangulation(n, huge.apex + 1, [(0, 1, n)])
    _refuse_kernels(monkeypatch, "strip_annuli")
    message = rf"drift terms \(0, {2**41}, {2**42}\) exceed the int64 period {2**62}"
    with pytest.raises(ValueError, match=message):
        certify(huge)
    with pytest.raises(ValueError, match=message):
        drift_audit(huge)


def test_separation_bounds_follow_the_ledger():
    from ringfill import Params, build_filling

    build = build_filling(Params(25, Fraction(1, 10), Fraction(1, 4)))
    before = separation_lower_bounds(build)
    for rec in build.ledger[:-1]:
        rec.drift_bound *= 4
    after = separation_lower_bounds(build)
    assert after == reference_separation_lower_bounds(build)
    assert after != before
    assert all(a <= b for a, b in zip(after, before))


def test_cone_term_from_the_ledger_is_the_schedules():
    # the table's cone term counts the ledger's collar and equal annuli;
    # the reference takes it from the schedule's formula
    checked = 0
    for rho in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 5), Fraction(1, 300)):
        for eta in (Fraction(1, 4), Fraction(1, 20), Fraction(2, 5)):
            for n in (8, 25, 49, 64, 100, 121, 160, 256, 400):
                try:
                    build = build_filling(Params(n, rho, eta))
                except ScheduleError:
                    continue
                sched = build.schedule
                cone = sched.collar_layers + sched.num_blocks * sched.layers_per_block
                assert sum(rec.annulus_kind in ("collar", "equal") for rec in build.ledger) == cone
                assert separation_lower_bounds(build) == reference_separation_lower_bounds(build)
                checked += 1
    assert checked == 52


def test_drift_lower_bound_trivia(medium_build):
    n = medium_build.params.n
    table = separation_lower_bounds(medium_build)
    assert table[0] == 0
    # in the collar the bound per separation is the separation itself,
    # up to where deeper layers take over
    w = medium_build.schedule.collar_layers
    for sep in range(min(w, len(table))):
        assert table[sep] <= sep
    # antipodal: never more than the cycle distance, met exactly by BFS here
    d = verify_filling(medium_build.triangulation).boundary_distances
    assert table[n // 2] <= n // 2
    assert d[0, n // 2] == n // 2
    # The one-entry lemma: where every cycle length m_h is at most n, each
    # row rises by at most 1 from s to s + 1, since ceil(a + m_h / n) <=
    # ceil(a) + 1, and max(0, .), the constant cone term and the minimum over
    # rows keep that.  So table[s] - s never rises, and its least value is
    # the antipodal entry's: the bound's margin is read at s = n // 2 alone.
    assert min(v - s for s, v in enumerate(table)) == table[n // 2] - n // 2


def test_drift_lower_bound_sound_exhaustively(small_build, medium_build):
    for build in (small_build, medium_build):
        n = build.params.n
        d = verify_filling(build.triangulation).boundary_distances
        table = separation_lower_bounds(build)
        assert table == reference_separation_lower_bounds(build)
        for x in range(n):
            for y in range(x + 1, n):
                assert table[cycle_dist(x, y, n)] <= d[x, y]


def test_collar_only_ledger_bound_is_separation(small_build):
    # Restricting the bound to collar depths gives exactly the separation:
    # each collar crossing costs 2 and frees one unit of drift.
    build = small_build
    n = build.params.n
    w = build.schedule.collar_layers
    drift = [Fraction(0)]
    for rec in build.ledger[:w]:
        drift.append(drift[-1] + 2 * rec.drift_bound)
    import math

    for sep in range(n // 2 + 1):
        vals = []
        for h in range(w + 1):
            slack = sep - drift[h]
            vals.append(2 * h + (math.ceil(slack) if slack > 0 else 0))
        assert min(vals) == sep


def test_step_profile_eps_positive_and_small(medium_build):
    eps = step_profile_eps(medium_build)
    assert 0 < eps < 1
