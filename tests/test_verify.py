import random
from fractions import Fraction

import numpy as np
import pytest
from reference_impl import bfs_distances, reference_drift_audit, reference_separation_lower_bounds, skeleton_graph

from ringfill import (
    Triangulation,
    boundary_distance_matrix,
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
    for u, v in t.edges:
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
        assert (boundary_distance_matrix(t) == fw[: t.n, : t.n]).all()


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
def test_worst_pair_is_the_first_exact_minimum(small_build, monkeypatch, block):
    import ringfill.verify

    # blocks of one row, of a few rows with a short last block, and of all rows
    monkeypatch.setattr(ringfill.verify, "_BLOCK", block)
    # many pairs meet the build's delta = 1, and several meet each cone's delta < 1 from C_6 on
    for t in [cone_over_cycle(k) for k in range(3, 12)] + [small_build.triangulation]:
        report = verify_filling(t)
        d = report.boundary_distances
        pairs = [(x, y) for x in range(t.n) for y in range(t.n) if x != y]
        x, y = min(pairs, key=lambda p: Fraction(int(d[p]), cycle_dist(*p, t.n)))
        assert report.worst_pair == (x, y, d[x, y], cycle_dist(x, y, t.n))
        assert report.delta == Fraction(int(d[x, y]), cycle_dist(x, y, t.n))


@pytest.mark.parametrize("block", [6, 1 << 16])
def test_missing_cycle_edge_is_named(monkeypatch, block):
    import ringfill.verify

    monkeypatch.setattr(ringfill.verify, "_BLOCK", block)
    # C_6 coned off without its triangle on edge (3, 4): that edge is gone
    t = Triangulation(6, 7, [(6, i, (i + 1) % 6) for i in range(6) if i != 3])
    with pytest.raises(ValueError, match=r"graph distance 2 exceeds cycle distance 1 for pair \(3, 4\)"):
        verify_filling(t)


def test_verify_matrix_is_symmetric_with_triangle_inequality(small_build):
    d = verify_filling(small_build.triangulation).boundary_distances
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
    assert (serial.boundary_distances == threaded.boundary_distances).all()
    # uneven spans of 22, 22 and 20 sources
    assert (boundary_distance_matrix(t, jobs=3) == serial.boundary_distances).all()


def test_jobs_below_one_is_an_error(small_build, monkeypatch):
    import ringfill.analysis as analysis

    t = small_build.triangulation
    monkeypatch.setattr(analysis, "build_filling", None)  # the sweep refuses before any build
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


def test_level_recovery_rejects_non_fifo_order(monkeypatch):
    import scipy.sparse.csgraph as csgraph

    real = csgraph.breadth_first_order

    def swapped(*args, **kwargs):
        # from 0 on the cone over C_6 the order is 0 1 5 6 2 4 3; visiting 4
        # (child of 5) before 2 (child of 1) is no FIFO order
        order, pred = real(*args, **kwargs)
        order[-3], order[-2] = order[-2], order[-3]
        return order, pred

    monkeypatch.setattr(csgraph, "breadth_first_order", swapped)
    with pytest.raises(ValueError, match="not a FIFO order"):
        boundary_distance_matrix(cone_over_cycle(6))


def test_drift_audit_passes_and_equal_annuli_are_tight(medium_build):
    audit = drift_audit(medium_build)
    assert audit.ok and audit.stray_edges == []
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
    tris = t.triangles.copy()
    hits = np.argwhere((tris >= cycle.first_vertex) & (tris < cycle.first_vertex + cycle.length))
    f, j = next((f, j) for f, j in hits if tris[f].min() < cycle.first_vertex)
    tris[f, j] = cycle.first_vertex + (tris[f, j] - cycle.first_vertex + 3) % cycle.length
    tampered.triangulation = Triangulation(t.n, t.num_vertices, tris)
    for build in (small_build, medium_build, tampered):
        rows = drift_audit(build).rows
        assert [row.max_observed for row in rows] == reference_drift_audit(build)
    assert not drift_audit(tampered).rows[4].ok


@pytest.mark.parametrize("flip", ["layer-skipping", "chord", "apex"])
def test_drift_audit_refuses_an_edge_of_no_annulus(flipped_builds, flip):
    build, line = flipped_builds[flip]
    assert validate_disk(build.triangulation).ok
    audit = drift_audit(build)
    assert not audit.ok
    assert audit.stray_edges == [line]
    assert [row.max_observed for row in audit.rows] == reference_drift_audit(build)


def test_drift_audit_refuses_int64_overflow(small_build):
    import copy

    huge = copy.copy(small_build)
    huge.ledger = [copy.copy(rec) for rec in small_build.ledger]
    huge.ledger[3].phase = Fraction(1, 2**61 + 1)
    with pytest.raises(ValueError, match="exceeds int64"):
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
