"""Certification of the analytic ingredients and the sweep harness.

The construction rests on a handful of closed forms around the square-root
profile q(t) = sqrt(1 - 4t): a pointwise inequality balancing radial cost
against angular savings, the profile integral giving the vertex density, and
two reference constants bracketing the achievable density.  The inequality,
the integral's closed form and the constants' ordering are certified
exactly; exact combinatorial checks live in :mod:`ringfill.verify`.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

from . import _shown, as_fraction

__all__ = [
    "profile",
    "drift_integral",
    "stop_time",
    "CoreInequalityReport",
    "check_core_inequality",
    "ProfileIntegralCheck",
    "profile_integral",
    "vertex_count_lower_bound",
    "ConstantsReport",
    "constants_report",
    "SweepRow",
    "run_sweep",
    "write_sweep_csv",
    "SWEEP_CSV_HEADER",
]


def profile(t: float) -> float:
    """Normalized cycle length q(t) = sqrt(1 - 4t) at depth fraction t."""
    return math.sqrt(max(1.0 - 4.0 * t, 0.0))


def drift_integral(t: float) -> float:
    """Accumulated drift integral of 1/q over [0, t]: (1 - sqrt(1 - 4t)) / 2."""
    return (1.0 - profile(t)) / 2.0


def stop_time(eta: float) -> float:
    """Depth fraction at which the profile reaches eta: (1 - eta^2) / 4."""
    return (1.0 - eta * eta) / 4.0


def _unit_eta(eta: Fraction | float | str) -> Fraction:
    e = as_fraction(eta)
    if not 0 <= e <= 1:
        raise ValueError(f"eta must lie in [0, 1], got {_shown(e)}")
    return e


class CoreInequalityReport:
    """Exact minimum slack of 2t + q(t)(s - I(t))_+ - s on [0, stop_time] x [0, 1/2]."""

    def __init__(self, min_slack: Fraction, boundary_max_abs: Fraction, eta: Fraction) -> None:
        self.min_slack = min_slack
        self.boundary_max_abs = boundary_max_abs  # worst |slack| along s = 1/2, where equality holds
        self.eta = eta

    @property
    def ok(self) -> bool:
        return self.min_slack >= 0 and self.boundary_max_abs == 0


def _core_slack(q: Fraction, s: Fraction) -> Fraction:
    """The slack 2t + q(s - I)_+ - s at t = (1 - q^2)/4, where I = (1 - q)/2."""
    return (1 - q * q) / 2 + q * max(s - (1 - q) / 2, Fraction(0)) - s


def check_core_inequality(eta: Fraction | float | str) -> CoreInequalityReport:
    """Certify 2t + q(t)(s - I(t))_+ >= s on [0, stop_time(eta)] x [0, 1/2], exactly.

    In the variable q = sqrt(1 - 4t), which runs over [eta, 1], t = (1 - q^2)/4
    and I = (1 - q)/2, so the slack is q(1 - q)/2 + (I - s) for s <= I and
    (1 - q)(1/2 - s) for s >= I.  On each side slack and closed form have
    degree <= 2 in q and <= 1 in s, so they are equal once they agree at three
    values of q and two values of s on that side for each q, checked here in
    ``Fraction``s.  The first form is >= q(1 - q)/2 >= 0 and the second is a
    product of two non-negative factors: the minimum is exactly 0, along
    s = 1/2.  Each form is least at a corner q in {eta, 1}, s in {0, I, 1/2}
    of its side (the first is concave, the second linear in s and concave in q
    along s = I), and along s = 1/2 a quadratic in q with three zeros is zero.
    """
    e = _unit_eta(eta)
    half = Fraction(1, 2)
    for q in (Fraction(1, 4), half, Fraction(3, 4)):
        integ = (1 - q) / 2
        for s, closed in (
            (Fraction(0), q * (1 - q) / 2 + integ),
            (integ, q * (1 - q) / 2),
            (integ, (1 - q) * (half - integ)),
            (half, Fraction(0)),
        ):
            if _core_slack(q, s) != closed:
                raise RuntimeError(f"core inequality slack at q={q}, s={s} is not its closed form")
    corners = [(q, s) for q in (e, Fraction(1)) for s in (Fraction(0), (1 - q) / 2, half)]
    return CoreInequalityReport(
        min_slack=min(_core_slack(q, s) for q, s in corners),
        boundary_max_abs=max(abs(_core_slack(q, half)) for q in (e, (1 + e) / 2, Fraction(1))),
        eta=e,
    )


class ProfileIntegralCheck:
    """Closed form of the profile integral against an exact quadrature."""

    def __init__(self, eta: Fraction, closed_form: Fraction, quadrature: Fraction, error: Fraction) -> None:
        self.eta = eta
        self.closed_form = closed_form  # (1 - eta^3) / 6
        self.quadrature = quadrature  # one-panel Simpson's rule in q = sqrt(1 - 4t)
        self.error = error  # their difference, exactly 0 on return


def _depth(q: Fraction) -> Fraction:
    """The depth fraction t = (1 - q^2)/4 at which the profile is q."""
    return (1 - q * q) / 4


def _slope(q: Fraction, h: Fraction) -> Fraction:
    """-dt/dq at q as a central difference of step h: exact for a quadratic t."""
    return (_depth(q - h) - _depth(q + h)) / (2 * h)


def profile_integral(eta: Fraction | float | str) -> ProfileIntegralCheck:
    """Integral of q over [0, stop_time(eta)], in closed form and by an exact quadrature.

    Substituting t = (1 - q^2)/4, with q running from 1 down to eta, turns
    the integral into that of q * (-dt/dq) over [eta, 1].  Both identities of
    the substitution are checked in ``Fraction``s: 1 - 4t = q^2 (degree 2,
    so three values of q) and -dt/dq = q/2 (a central difference is exact
    for the quadratic t; two steps at each q).  The integrand q^2/2 is then
    a polynomial of degree < 4, which Simpson's rule on one panel integrates
    exactly, so the quadrature must equal (1 - eta^3)/6.  A failed identity
    or any difference raises ``RuntimeError``.
    """
    e = _unit_eta(eta)
    steps = (Fraction(1, 4), Fraction(1, 2))
    for q in (Fraction(0), Fraction(1, 2), Fraction(1)):
        if 1 - 4 * _depth(q) != q * q or any(_slope(q, h) != q / 2 for h in steps):
            raise RuntimeError(f"profile integral at eta={e}: the substitution t = (1 - q^2)/4 fails at q={q}")
    nodes = ((1, e), (4, (e + 1) / 2), (1, Fraction(1)))  # Simpson's weights on [eta, 1]
    quadrature = (1 - e) / 6 * sum(w * q * _slope(q, steps[0]) for w, q in nodes)
    closed = (1 - e**3) / 6
    if quadrature != closed:
        raise RuntimeError(f"profile integral mismatch at eta={e}: closed {closed} vs quadrature {quadrature}")
    return ProfileIntegralCheck(eta=e, closed_form=closed, quadrature=quadrature, error=quadrature - closed)


def vertex_count_lower_bound(n: int, delta: Fraction | int | float | str = 1) -> Fraction:
    """Minimum vertex count any delta-Lipschitz filling of C_n must have, exactly.

    ``delta`` is read through :func:`ringfill.as_fraction`, so 0.9 is 9/10.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    delta = as_fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return delta**3 / 8 * (n - 1) ** 2 + Fraction(n - 1, 2)


class ConstantsReport:
    """The density constants that bracket the problem, in one place."""

    def __init__(self, lower_density: float, upper_density: float, hemisphere_density: float, gap: float) -> None:
        self.lower_density = lower_density  # 1/8, below which no filling family can go
        self.upper_density = upper_density  # 1/6, achieved by the annular construction
        self.hemisphere_density = hemisphere_density  # 1/(pi*sqrt(3)), the triangulated-hemisphere rate
        self.gap = gap  # hemisphere rate minus 1/6

    @property
    def ordering_ok(self) -> bool:
        # Exact: pi < 22/7 and sqrt3 < 97/56 (97^2 = 9409 > 3 * 56^2 = 9408), so
        # pi*sqrt3 < (22 * 97) / (7 * 56) = 1067/196 and 1/(pi*sqrt3) > 196/1067.
        return Fraction(1, 8) <= Fraction(1, 6) < Fraction(196, 1067)

    def lines(self) -> list[str]:
        return [
            f"lower bound      1/8         = {self.lower_density!r}",
            f"construction     1/6         = {self.upper_density!r}",
            f"hemisphere       1/(pi*sqrt3) = {self.hemisphere_density!r}",
            f"improvement gap  {self.gap!r}",
            f"ordering 1/8 <= 1/6 < 1/(pi*sqrt3): {self.ordering_ok}",
        ]


def constants_report() -> ConstantsReport:
    hemi = 1.0 / (math.pi * math.sqrt(3.0))
    return ConstantsReport(
        lower_density=0.125,
        upper_density=1.0 / 6.0,
        hemisphere_density=hemi,
        gap=hemi - 1.0 / 6.0,
    )


SWEEP_CSV_HEADER = "n,rho,eta,vertices,density,delta,is_isometric,eps_n,build_ms,verify_ms"


class SweepRow:
    """One convergence measurement: build, validate, audit, verify, time."""

    def __init__(
        self, n: int, rho: float, eta: float, vertices: int = 0, density: float = 0.0, delta: float = 0.0,
        is_isometric: bool = False, eps: float = 0.0, build_ms: float = 0.0, verify_ms: float = 0.0,
        error: str | None = None,
    ) -> None:
        self.n = n
        self.rho = rho
        self.eta = eta
        self.vertices = vertices
        self.density = density
        self.delta = delta
        self.is_isometric = is_isometric
        self.eps = eps
        self.build_ms = build_ms
        self.verify_ms = verify_ms
        self.error = error

    def csv_line(self) -> str:
        return ",".join(
            [
                str(self.n),
                repr(self.rho),
                repr(self.eta),
                str(self.vertices),
                repr(self.density),
                repr(self.delta),
                "true" if self.is_isometric else "false",
                repr(self.eps),
                f"{self.build_ms:.3f}",
                f"{self.verify_ms:.3f}",
            ]
        )


def run_sweep(
    n_list: list[int],
    rho: Fraction | float | str,
    eta: Fraction | float | str,
    jobs: int = 1,
    csv_path: str | None = None,
) -> list[SweepRow]:
    """Build, validate, audit, and verify a filling for each n in order.

    Per-row failures (schedule rejections, the first line of a failed
    certificate) are recorded on the row and the sweep continues.  Rows
    are written to ``csv_path`` in input order when given; failed rows are
    omitted from the CSV since they have no measurements.  A ``jobs``
    below 1 raises ``ValueError`` before any build.  The layers it runs are
    imported here, so that the analytic checks above load none of them.
    """
    from .builder import Params, build_filling
    from .verify import certify, step_profile_eps, verify_filling

    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    rho_f = as_fraction(rho)
    eta_f = as_fraction(eta)
    rows: list[SweepRow] = []
    for n in n_list:
        row = SweepRow(n=n, rho=float(rho_f), eta=float(eta_f))
        try:
            t0 = time.perf_counter()
            build = build_filling(Params(n, rho_f, eta_f))
            row.build_ms = (time.perf_counter() - t0) * 1000.0
            cert = certify(build)
            if not cert.ok:
                raise RuntimeError(cert.lines()[0])
            t1 = time.perf_counter()
            verification = verify_filling(build.triangulation, jobs=jobs)
            row.verify_ms = (time.perf_counter() - t1) * 1000.0
            row.vertices = build.triangulation.num_vertices
            row.density = float(build.density)
            row.delta = float(verification.delta)
            row.is_isometric = verification.is_isometric
            row.eps = step_profile_eps(build)
            if row.vertices < vertex_count_lower_bound(n):
                raise RuntimeError(f"vertex count {row.vertices} below the universal lower bound")
        except (ValueError, RuntimeError) as exc:
            row.error = str(exc)
        rows.append(row)
    if csv_path is not None:
        write_sweep_csv(rows, csv_path)
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    """Write measured rows with a fixed header and shortest round-trip floats."""
    lines = [SWEEP_CSV_HEADER]
    lines.extend(row.csv_line() for row in rows if row.error is None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
