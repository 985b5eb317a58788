"""Acceptance suite.

One test per criterion, each printing a single PASS line with the measured
numbers when it holds (run with ``pytest tests/test_acceptance.py -v -s``).
Builds are shared across criteria through module-scoped fixtures.
"""
from fractions import Fraction

import numpy as np
import pytest

from ringfill import (
    Params,
    build_filling,
    certify,
    check_core_inequality,
    cone_over_cycle,
    constants_report,
    drift_audit,
    min_isometric_vertices,
    predict_density,
    profile_integral,
    separation_lower_bounds,
    step_profile_eps,
    validate_disk,
    verify_filling,
    vertex_count_lower_bound,
)

RHO_A, ETA_A = Fraction(1, 10), Fraction(1, 4)  # structural / isometry family
SIZES_A = (64, 128, 256, 512)
RHO_B, ETA_B = Fraction(1, 20), Fraction(1, 5)  # density family
DENSITY_CHAIN = (512, 1024, 2048)
EPS_CHAIN = (128, 256, 512, 1024)


@pytest.fixture(scope="module")
def builds_a():
    return {n: build_filling(Params(n, RHO_A, ETA_A)) for n in SIZES_A}


@pytest.fixture(scope="module")
def builds_a_extended(builds_a):
    extended = dict(builds_a)
    extended[1024] = build_filling(Params(1024, RHO_A, ETA_A))
    return extended


@pytest.fixture(scope="module")
def reports_a(builds_a):
    return {n: verify_filling(b.triangulation) for n, b in builds_a.items()}


@pytest.fixture(scope="module")
def builds_b():
    return {n: build_filling(Params(n, RHO_B, ETA_B)) for n in DENSITY_CHAIN}


def test_c01_structural(builds_a):
    for n in SIZES_A:
        report = validate_disk(builds_a[n].triangulation)
        assert report.ok, f"n={n}: {report.failures[:5]}"
    counts = {n: builds_a[n].triangulation.num_vertices for n in SIZES_A}
    print(f"\nPASS 1 structural: all disk invariants hold at n={list(SIZES_A)}, |V|={counts}")


def test_c02_drift_audit(builds_a):
    for n in SIZES_A:
        audit = drift_audit(builds_a[n])
        assert audit.ok, f"n={n}: {audit.failures()[:3]}"
        for row in audit.rows:
            assert row.max_observed <= row.bound  # exact rationals, zero tolerance
            if row.kind != "shrink":
                assert row.tight, f"n={n}: equal annulus {row.layer} below its bound"
    total = sum(len(drift_audit(builds_a[n]).rows) for n in SIZES_A)
    print(f"\nPASS 2 drift audit: every slanted edge within its exact bound ({total} annuli audited)")


def test_c03_isometry_threshold(reports_a):
    deltas = {n: reports_a[n].delta for n in SIZES_A}
    threshold = None
    for n in SIZES_A:
        if deltas[n] == 1 and all(deltas[m] == 1 for m in SIZES_A if m >= n):
            threshold = n
            break
    assert threshold is not None, f"no isometric tail among tested sizes: {deltas}"
    below = [n for n in SIZES_A if n < threshold]
    shortfalls = [1 - deltas[n] for n in below]
    assert all(a >= b for a, b in zip(shortfalls, shortfalls[1:])), (
        f"1 - delta not non-increasing below the threshold: {shortfalls}"
    )
    for n in SIZES_A:
        if n >= threshold:
            assert deltas[n] == 1
    print(
        f"\nPASS 3 isometry: delta={ {n: str(d) for n, d in deltas.items()} }, "
        f"empirical threshold N0(0.1, 0.25) = {threshold}"
    )


def test_c04_density_convergence(builds_b):
    bound = predict_density(Params(DENSITY_CHAIN[0], RHO_B, ETA_B))
    gaps = [float(builds_b[n].density - bound) for n in DENSITY_CHAIN]
    assert all(gap > 0 for gap in gaps)  # the count approaches the bound from above
    assert all(a > b for a, b in zip(gaps, gaps[1:])), f"gap not shrinking along doubling: {gaps}"
    largest = DENSITY_CHAIN[-1]
    assert largest >= 512
    assert float(builds_b[largest].density) <= float(bound) + 0.02
    print(
        f"\nPASS 4 density: bound={float(bound):.6f}, gaps along n={list(DENSITY_CHAIN)} = "
        f"{[round(g, 6) for g in gaps]} (final <= 0.02)"
    )


def test_c05_core_inequality():
    report = check_core_inequality(eta=float(ETA_A))
    assert report.min_slack >= -1e-12, report
    assert report.boundary_max_abs <= 1e-12, report
    print(
        f"\nPASS 5 core inequality: min slack {report.min_slack} exact, "
        f"|slack| at s=1/2 <= {report.boundary_max_abs} exact"
    )


def test_c06_profile_integral():
    checks = {}
    for eta in ("0", "0.2", "0.5", "0.9"):
        check = profile_integral(eta)
        assert check.error <= 1e-10, (eta, check)
        checks[eta] = check.error
    assert profile_integral("0").closed_form == Fraction(1, 6)
    print(f"\nPASS 6 profile integral: closed form vs quadrature errors {checks}, eta=0 gives exactly 1/6")


def test_c07_lower_bound_soundness(builds_a, reports_a):
    # every boundary pair, one numpy comparison per n
    for n in (128, 512):
        table = np.asarray(separation_lower_bounds(builds_a[n]))
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        bad = np.argwhere(table[np.minimum(gap, n - gap)] > reports_a[n].boundary_distances)
        assert not len(bad), bad[:5].tolist()
    print("\nPASS 7 lower-bound soundness: bound <= BFS on all 8128 pairs at n=128 and all 130816 pairs at n=512")


def test_c08_oracle_ground_truth():
    minima = {n: min_isometric_vertices(n).min_vertices for n in range(3, 8)}
    assert minima == {3: 3, 4: 5, 5: 6, 6: 9, 7: 11}
    report = verify_filling(cone_over_cycle(6))
    assert report.delta == Fraction(2, 3)
    print(
        f"\nPASS 8 oracle: exact minimum isometric vertex counts D(n; 0) for n = 3..7: {minima} "
        "(n = 7 settled after 38154 candidates), cone over C_6 has delta = 2/3 exactly"
    )


def test_c09_sanity_bounds(builds_a_extended, builds_b):
    checked = 0
    for build in list(builds_a_extended.values()) + list(builds_b.values()):
        n = build.params.n
        assert build.triangulation.num_vertices >= vertex_count_lower_bound(n, 1.0)
        checked += 1
    rep = constants_report()
    assert rep.ordering_ok
    assert abs(rep.hemisphere_density - 0.18377) < 1e-5
    print(
        f"\nPASS 9 sanity: {checked} builds above the universal lower bound; "
        f"1/8 <= 1/6 < 1/(pi*sqrt3) = {rep.hemisphere_density:.5f}"
    )


def test_c10_uniform_estimates(builds_a_extended):
    eps = [step_profile_eps(builds_a_extended[n]) for n in EPS_CHAIN]
    assert all(a > b for a, b in zip(eps, eps[1:])), f"eps not strictly decreasing: {eps}"
    print(
        f"\nPASS 10 uniform estimates: eps strictly decreasing along n={list(EPS_CHAIN)}: "
        f"{[round(e, 6) for e in eps]}"
    )


def test_c11_beats_the_hemisphere():
    # An isometric filling below the triangulated hemisphere's rate
    # 1/(pi*sqrt3) > 196/1067 (exact, see ConstantsReport.ordering_ok).
    # The separation table does not reach delta = 1 here, so delta rests
    # on the BFS, which judges the table on every pair in the same pass.
    n = 1024
    build = build_filling(Params(n, Fraction(1, 100), Fraction(1, 20)))
    vertices = build.triangulation.num_vertices
    assert vertices == 190_357
    assert Fraction(vertices, n**2) < Fraction(196, 1067)
    assert certify(build).ok
    report = verify_filling(build.triangulation, jobs=2, table=separation_lower_bounds(build))
    assert report.delta == 1 and report.worst_pair[:2] == (0, 1)
    assert report.violation is None
    print(
        f"\nPASS 11 beats the hemisphere: K_{n} at (1/100, 1/20) is isometric (delta = 1 by BFS, "
        f"certified disk) with V/n^2 = {vertices}/{n**2} = {vertices / n**2:.5f} < 196/1067"
    )
