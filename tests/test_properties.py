"""Property-based checks of the exact arithmetic and combinatorial invariants."""
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from reference_impl import (
    bfs_distances,
    circ_dist,
    reference_separation_lower_bounds,
    reference_validate_disk,
    skeleton_graph,
)

from ringfill import (
    Params,
    ScheduleError,
    Triangulation,
    boundary_distance_matrix,
    build_filling,
    canonical_triangle,
    ceil_sqrt,
    compute_schedule,
    cycle_dist,
    layer_ledger,
    separation_lower_bounds,
    staircase_indices,
    validate_disk,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)
circumferences = st.integers(min_value=3, max_value=97)


@given(rationals, rationals, circumferences)
def test_circ_dist_symmetric_and_bounded(a, b, n):
    d = circ_dist(a, b, n)
    assert isinstance(d, Fraction)
    assert d == circ_dist(b, a, n)
    assert 0 <= d <= Fraction(n, 2)
    assert circ_dist(a, a, n) == 0


@given(rationals, rationals, rationals, circumferences)
def test_circ_dist_triangle_inequality(a, b, c, n):
    assert circ_dist(a, c, n) <= circ_dist(a, b, n) + circ_dist(b, c, n)


@given(rationals, circumferences, st.integers(min_value=-3, max_value=3))
def test_circ_dist_invariant_under_full_turns(a, n, k):
    assert circ_dist(a + k * n, a, n) == 0


@given(st.integers(0, 10**6), st.integers(0, 10**6), circumferences)
def test_cycle_dist_matches_exact_circle(i, j, n):
    assert cycle_dist(i, j, n) == circ_dist(i % n, j % n, n)


@given(st.tuples(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)))
def test_canonical_triangle_rotation_invariant(tri):
    a, b, c = tri
    assume(len({a, b, c}) == 3)  # triangles have pairwise distinct vertices
    forms = {canonical_triangle(a, b, c), canonical_triangle(b, c, a), canonical_triangle(c, a, b)}
    assert len(forms) == 1
    canon = forms.pop()
    assert canon[0] == min(tri)
    assert sorted(canon) == sorted(tri)


@given(st.integers(3, 80), st.integers(3, 80))
def test_staircase_properties(m, M):
    assume(M <= m)
    ks = staircase_indices(m, M)
    assert ks[0] == 0 and ks[-1] == M
    assert all(ks[i + 1] - ks[i] in (0, 1) for i in range(m))
    assert sum(ks[i + 1] - ks[i] for i in range(m)) == M


@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**4))
def test_ceil_sqrt_is_exact_ceiling(f):
    k = ceil_sqrt(f)
    assert k * k >= f
    if k > 0:
        assert (k - 1) * (k - 1) < f


@given(st.integers(0, 2000))
def test_ceil_sqrt_of_perfect_squares(a):
    assert ceil_sqrt(Fraction(a * a)) == a


small_rhos = st.sampled_from([Fraction(1, 10), Fraction(1, 8), Fraction(1, 5), Fraction(3, 10)])
small_etas = st.sampled_from([Fraction(1, 5), Fraction(1, 4), Fraction(3, 10), Fraction(2, 5)])


@given(st.integers(25, 140), small_rhos, small_etas)
@settings(max_examples=40, deadline=None)
def test_schedule_invariants(n, rho, eta):
    assume(eta * eta < rho)
    try:
        s = compute_schedule(Params(n, rho, eta))
    except ScheduleError:
        assume(False)
    assert s.block_lengths[0] == n
    assert s.block_lengths[-1] == math.ceil(eta * n)
    assert all(a >= b for a, b in zip(s.block_lengths, s.block_lengths[1:]))
    assert min(s.block_lengths) >= 3
    assert s.num_blocks == math.ceil(math.sqrt(n)) or s.num_blocks**2 >= n > (s.num_blocks - 1) ** 2
    assert s.layers_per_block >= 1
    assert len(s.block_times) == s.num_blocks + 1
    assert s.block_times[-1] == s.stop_time


@given(st.integers(25, 64), small_rhos, small_etas)
@settings(max_examples=10, deadline=None)
def test_built_complexes_are_valid_disks(n, rho, eta):
    assume(eta * eta < rho)
    try:
        build = build_filling(Params(n, rho, eta))
    except ScheduleError:
        assume(False)
    assert validate_disk(build.triangulation).ok
    assert build.schedule.predicted_vertex_count == build.triangulation.num_vertices
    assert build.schedule.predicted_triangle_count == build.triangulation.num_triangles


@given(st.integers(12, 64), small_rhos, small_etas)
@settings(max_examples=15, deadline=None)
def test_boundary_matrix_matches_pure_python_bfs(n, rho, eta):
    assume(eta * eta < rho)
    try:
        t = build_filling(Params(n, rho, eta)).triangulation
    except ScheduleError:
        assume(False)
    adj = skeleton_graph(t)
    expected = [bfs_distances(adj, src)[:n] for src in range(n)]
    assert boundary_distance_matrix(t, jobs=1).tolist() == expected
    assert boundary_distance_matrix(t, jobs=4).tolist() == expected
    # a stray triangle off the disk leaves three vertices no boundary BFS reaches
    v = t.num_vertices
    broken = Triangulation(n, v + 3, np.vstack([t.triangles, [(v, v + 1, v + 2)]]))
    with pytest.raises(ValueError, match="disconnected"):
        boundary_distance_matrix(broken)


@given(
    st.integers(25, 48),
    small_rhos,
    small_etas,
    st.sampled_from(["none", "drop", "flip", "add", "copy"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_validator_matches_reference_on_mutated_builds(n, rho, eta, mutation, data):
    assume(eta * eta < rho)
    try:
        t = build_filling(Params(n, rho, eta)).triangulation
    except ScheduleError:
        assume(False)
    tris = t.triangles.tolist()
    i = data.draw(st.integers(0, len(tris) - 1), label="triangle")
    a, b, c = tris[i]
    if mutation == "drop":
        del tris[i]
    elif mutation == "flip":
        tris[i] = [a, c, b]
    elif mutation == "add":
        # ids up to one past the last vertex, so out-of-range ids occur too
        ids = st.integers(0, t.num_vertices)
        tris.append(data.draw(st.lists(ids, min_size=3, max_size=3), label="added"))
    elif mutation == "copy":
        tris.append(data.draw(st.sampled_from([[b, c, a], [a, c, b]]), label="copy"))
    mutated = Triangulation(n, t.num_vertices, tris)
    got, want = validate_disk(mutated), reference_validate_disk(mutated)
    assert got.ok == want.ok, (got.failures, want.failures)
    assert got.counts == want.counts
    assert got.ok == (mutation in ("none", "flip"))


@given(
    st.integers(16, 600),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(9, 10), max_denominator=1000),
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 2), max_denominator=1000),
    st.booleans(),
    st.data(),
)
@settings(max_examples=15, deadline=None)
def test_separation_bounds_match_the_reference(n, eta, extra, scaled, data):
    # rho = eta^2 + extra keeps eta^2 < rho; no triangles are assembled
    try:
        params = Params(n, eta * eta + extra, eta)
        sched = compute_schedule(params)
    except ScheduleError:
        assume(False)
    build = SimpleNamespace(params=params, schedule=sched, ledger=layer_ledger(n, sched.annuli))
    if scaled:  # non-integer accumulated drifts with large denominators
        scales = st.fractions(min_value=Fraction(1, 10), max_value=4, max_denominator=10**6)
        for rec in build.ledger[:-1]:
            rec.drift_bound *= data.draw(scales, label="scale")
    assert separation_lower_bounds(build) == reference_separation_lower_bounds(build)


@given(st.integers(3, 600), st.data())
@settings(max_examples=60, deadline=None)
def test_separation_bounds_match_the_reference_on_any_ledger(n, data):
    # Cycle lengths, drift bounds and annulus kinds need not follow any
    # schedule here, so layers other than the shallowest decide the table
    # far more often.  The code counts the cone term from the ledger's
    # kinds, the reference from the schedule, which holds the same count.
    lengths = data.draw(st.lists(st.integers(3, n), min_size=1, max_size=60), label="lengths")
    ledger = [SimpleNamespace(length=m, drift_bound=None, annulus_kind=None) for m in (n, *lengths)]
    kinds = st.sampled_from(["collar", "equal", "shrink", "transition-equal"])
    for rec in ledger[:-1]:
        bounds = st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(n, rec.length), max_denominator=10**6)
        rec.drift_bound = data.draw(bounds, label="drift bound")
        rec.annulus_kind = data.draw(kinds, label="kind")
    cone_half = sum(rec.annulus_kind in ("collar", "equal") for rec in ledger)
    sched = SimpleNamespace(collar_layers=cone_half, num_blocks=0, layers_per_block=0)
    build = SimpleNamespace(params=SimpleNamespace(n=n), schedule=sched, ledger=ledger)
    assert separation_lower_bounds(build) == reference_separation_lower_bounds(build)
