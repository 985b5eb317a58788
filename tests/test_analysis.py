import math
from fractions import Fraction

import pytest

from ringfill import (
    check_core_inequality,
    constants_report,
    drift_integral,
    profile,
    profile_integral,
    run_sweep,
    stop_time,
    vertex_count_lower_bound,
)
from ringfill import analysis
from ringfill.analysis import SWEEP_CSV_HEADER


def test_profile_endpoints():
    assert profile(0.0) == 1.0
    assert abs(profile(stop_time(0.5)) - 0.5) < 1e-15  # q at the stop time is eta
    assert drift_integral(0.0) == 0.0


def test_core_inequality_grid():
    rep = check_core_inequality(eta=0.25)
    assert rep.ok
    assert rep.min_slack >= -1e-12
    assert rep.boundary_max_abs <= 1e-12


def test_core_inequality_zero_time_and_small_s():
    # t = 0: q = 1 and the drift integral vanishes, slack is identically 0.
    for s in (0.0, 0.1, 0.3, 0.5):
        assert 2 * 0 + profile(0.0) * max(s - drift_integral(0.0), 0.0) - s == 0.0
    # s below the drift integral: slack reduces to 2t - s >= q(1-q)/2 >= 0
    for t in (0.05, 0.1, 0.2):
        q = profile(t)
        s = drift_integral(t) * 0.9
        slack = 2 * t - s
        assert slack >= q * (1 - q) / 2 - 1e-15
        assert slack >= 0


@pytest.mark.parametrize("eta", [Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(9, 10)])
def test_core_inequality_exact_grid_cross_check(eta):
    # Independent of the certificate: the original slack 2t + q(s - I)_+ - s,
    # t = (1 - q^2)/4, I = (1 - q)/2, in Fractions on a 41 x 41 rational grid.
    qs = [eta + (1 - eta) * Fraction(i, 40) for i in range(41)]
    ss = [Fraction(j, 80) for j in range(41)]
    values = {}
    for q in qs:
        t = (1 - q * q) / 4
        integ = (1 - q) / 2
        for s in ss:
            values[q, s] = 2 * t + q * max(s - integ, 0) - s
    assert all(v >= 0 for v in values.values())
    assert all(values[q, Fraction(1, 2)] == 0 for q in qs)
    rep = check_core_inequality(eta)
    assert rep.min_slack == min(values.values()) == 0
    assert rep.boundary_max_abs == 0
    assert isinstance(rep.min_slack, Fraction) and isinstance(rep.boundary_max_abs, Fraction)
    assert rep.eta == eta and rep.ok


def test_core_inequality_rejects_a_perturbed_slack(monkeypatch):
    exact = analysis._core_slack
    monkeypatch.setattr(analysis, "_core_slack", lambda q, s: exact(q, s) + Fraction(1, 10**12) * s * s)
    with pytest.raises(RuntimeError, match="q=1/4, s=3/8 is not its closed form"):
        check_core_inequality(Fraction(1, 4))


@pytest.mark.parametrize("eta", [-1, 2, Fraction(3, 2)])
def test_core_inequality_rejects_eta_outside_unit_interval(eta):
    with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
        check_core_inequality(eta)


@pytest.mark.parametrize(
    "eta,expected",
    [
        ("0", Fraction(1, 6)),
        ("0.2", Fraction(62, 375)),
        ("0.5", Fraction(7, 48)),
        ("0.9", Fraction(271, 6000)),
        ("1", Fraction(0)),
        ("1/4", Fraction(21, 128)),
    ],
)
def test_profile_integral_closed_forms(eta, expected):
    check = profile_integral(eta)
    assert check.closed_form == expected
    assert isinstance(check.quadrature, Fraction) and isinstance(check.error, Fraction)
    assert check.quadrature == expected and check.error == 0


def test_profile_integral_rejects_a_perturbed_substitution(monkeypatch):
    exact = analysis._depth
    monkeypatch.setattr(analysis, "_depth", lambda q: exact(q) + Fraction(1, 10**12) * q**3)
    with pytest.raises(RuntimeError, match=r"eta=1/4: the substitution t = \(1 - q\^2\)/4 fails at q=0"):
        profile_integral(Fraction(1, 4))


def test_profile_integral_rejects_a_quadrature_off_the_closed_form(monkeypatch):
    # zero at the q where the identities are checked, so only the comparison with (1 - eta^3)/6 catches it
    exact = analysis._slope
    monkeypatch.setattr(analysis, "_slope", lambda q, h: exact(q, h) + q * (2 * q - 1) * (q - 1) / 10**12)
    with pytest.raises(RuntimeError, match="profile integral mismatch at eta=1/4"):
        profile_integral(Fraction(1, 4))


def test_drift_integral_matches_quadrature():
    from scipy.integrate import quad

    upper = stop_time(0.25)
    for t in (0.0, 0.05, 0.1, upper - 1e-6):
        numeric, _ = quad(lambda u: 1.0 / profile(u), 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert abs(numeric - drift_integral(t)) < 1e-10


def test_vertex_count_lower_bound_values():
    assert vertex_count_lower_bound(3, 1.0) == 1.5  # the triangle has 3 >= 1.5
    assert vertex_count_lower_bound(101, 1.0) == 1300.0
    assert vertex_count_lower_bound(101, 0.5) == 0.5**3 / 8 * 100**2 + 50
    # exact: in floats, 0.9**3 / 8 * 100**2 + 50 is 961.2500000000001
    assert vertex_count_lower_bound(101, 0.9) == Fraction(3845, 4)


def test_constants_report():
    rep = constants_report()
    assert rep.ordering_ok
    assert abs(rep.hemisphere_density - 0.18377) < 1e-5
    assert abs(rep.upper_density - 1 / 6) < 1e-15
    assert rep.lower_density == 0.125
    assert abs(rep.gap - (rep.hemisphere_density - rep.upper_density)) < 1e-15
    assert math.isclose(rep.hemisphere_density, 1 / (math.pi * math.sqrt(3)))


def test_hemisphere_lower_bound_derivation():
    # ordering_ok compares 1/6 against 196/1067 < 1/(pi*sqrt3), which follows
    # from sqrt3 < 97/56 and pi < 22/7.
    assert 97**2 == 9409 > 3 * 56**2 == 9408
    # math.pi is within 2**-51 of pi, far inside this margin.
    assert Fraction(22, 7) - Fraction(math.pi) > Fraction(1, 1000)
    assert Fraction(22 * 97, 7 * 56) == Fraction(1067, 196)
    assert Fraction(1, 6) < Fraction(196, 1067) < constants_report().hemisphere_density


def test_sweep_rows_and_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rows = run_sweep([25, 32], "0.1", "0.25", csv_path=str(out))
    assert [row.n for row in rows] == [25, 32]
    for row in rows:
        assert row.error is None
        assert row.vertices > vertex_count_lower_bound(row.n, 1.0)
        assert 0 < row.delta <= 1
        assert row.density > 0
        assert row.eps > 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "25"
    assert first[6] in ("true", "false")


def test_sweep_records_failures_and_continues(tmp_path):
    out = tmp_path / "sweep.csv"
    rows = run_sweep([16, 25], "0.1", "0.25", csv_path=str(out))
    assert rows[0].error is not None  # 16 is too small for the block schedule
    assert rows[1].error is None
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2  # header + the surviving row


def test_sweep_records_a_failed_certificate_and_continues(tmp_path, monkeypatch, flipped_builds):
    # the build at n = 64 has an edge of no annulus: its row carries the
    # certificate's first line, the CSV leaves it out, and n = 25 still runs
    import ringfill.builder as builder
    from ringfill.verify import certify

    flipped, _, defects = flipped_builds["layer-skipping"]
    build = builder.build_filling
    monkeypatch.setattr(builder, "build_filling", lambda params: flipped if params.n == 64 else build(params))
    out = tmp_path / "sweep.csv"
    rows = run_sweep([64, 25], "1/10", "1/4", csv_path=str(out))
    assert rows[0].error == certify(flipped).lines()[0] == f"violation: {defects[0]}"
    assert rows[1].error is None and rows[1].delta == 1
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["n", "25"]
