"""Numeric certification of the analytic ingredients and the sweep harness.

The construction rests on a handful of closed forms around the square-root
profile q(t) = sqrt(1 - 4t): a pointwise inequality balancing radial cost
against angular savings, the profile integral giving the vertex density, and
two reference constants bracketing the achievable density.  Everything here
certifies those numerically; exact combinatorial checks live in
:mod:`ringfill.verify`.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .builder import Params, as_fraction, build_filling
from .simplicial import validate_disk
from .verify import drift_audit, resolve_jobs, step_profile_eps, verify_filling

__all__ = [
    "SLACK_TOL",
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

SLACK_TOL = 1e-12


def profile(t: float) -> float:
    """Normalized cycle length q(t) = sqrt(1 - 4t) at depth fraction t."""
    return math.sqrt(max(1.0 - 4.0 * t, 0.0))


def drift_integral(t: float) -> float:
    """Accumulated drift integral of 1/q over [0, t]: (1 - sqrt(1 - 4t)) / 2."""
    return (1.0 - profile(t)) / 2.0


def stop_time(eta: float) -> float:
    """Depth fraction at which the profile reaches eta: (1 - eta^2) / 4."""
    return (1.0 - eta * eta) / 4.0


@dataclass
class CoreInequalityReport:
    """Minimum slack of 2t + q(t)(s - I(t))_+ - s over the sampled grid."""

    min_slack: float
    argmin: tuple[float, float]  # (t, s) of the minimum
    boundary_max_abs: float  # worst |slack| along s = 1/2, where equality holds
    grid_t: int
    grid_s: int
    eta: float

    @property
    def ok(self) -> bool:
        return self.min_slack >= -SLACK_TOL and self.boundary_max_abs <= SLACK_TOL


def check_core_inequality(
    grid_t: int = 1000,
    grid_s: int = 1000,
    eta: float = 0.25,
    boundary_samples: int = 100,
) -> CoreInequalityReport:
    """Certify 2t + q(t)(s - I(t))_+ >= s on [0, stop_time] x [0, 1/2].

    The inequality is checked in normalized units (the boundary length scales
    out).  Equality holds along s = 1/2 for every t, so that edge is also
    checked against zero to tolerance.
    """
    if grid_t < 2 or grid_s < 2:
        raise ValueError("grid resolutions must be at least 2")
    t_max = stop_time(eta)
    ts = np.linspace(0.0, t_max, grid_t)
    ss = np.linspace(0.0, 0.5, grid_s)
    q = np.sqrt(1.0 - 4.0 * ts)
    integ = (1.0 - q) / 2.0
    slack = 2.0 * ts[:, None] + q[:, None] * np.maximum(ss[None, :] - integ[:, None], 0.0) - ss[None, :]
    flat = int(np.argmin(slack))
    it, js = divmod(flat, grid_s)

    tb = np.linspace(0.0, t_max, boundary_samples)
    qb = np.sqrt(1.0 - 4.0 * tb)
    edge = 2.0 * tb + qb * (0.5 - (1.0 - qb) / 2.0) - 0.5
    return CoreInequalityReport(
        min_slack=float(slack[it, js]),
        argmin=(float(ts[it]), float(ss[js])),
        boundary_max_abs=float(np.abs(edge).max()),
        grid_t=grid_t,
        grid_s=grid_s,
        eta=eta,
    )


@dataclass
class ProfileIntegralCheck:
    """Closed form of the profile integral against adaptive quadrature."""

    eta: Fraction
    closed_form: Fraction  # (1 - eta^3) / 6, exactly
    quadrature: float
    error: float


def profile_integral(eta: Fraction | float | str) -> ProfileIntegralCheck:
    """Integral of q over [0, stop_time(eta)], both in closed form and by quadrature.

    Raises if the two disagree beyond 1e-12: that would mean either the
    closed form or the quadrature setup is wrong.
    """
    from scipy.integrate import quad  # imported here: no other command needs scipy's quadrature

    e = as_fraction(eta)
    if not 0 <= e <= 1:
        raise ValueError(f"eta must lie in [0, 1], got {e}")
    closed = (1 - e**3) / 6
    upper = float((1 - e * e) / 4)
    value, _ = quad(profile, 0.0, upper, epsabs=1e-14, epsrel=1e-14, limit=200)
    error = abs(value - float(closed))
    if error > SLACK_TOL:
        raise RuntimeError(
            f"profile integral mismatch at eta={e}: closed {float(closed)!r} vs quadrature {value!r}"
        )
    return ProfileIntegralCheck(eta=e, closed_form=closed, quadrature=value, error=error)


def vertex_count_lower_bound(n: int, delta: float = 1.0) -> float:
    """Minimum vertex count any delta-Lipschitz filling of C_n must have."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return (delta**3 / 8.0) * (n - 1) ** 2 + (n - 1) / 2.0


@dataclass
class ConstantsReport:
    """The density constants that bracket the problem, in one place."""

    lower_density: float  # 1/8, below which no filling family can go
    upper_density: float  # 1/6, achieved by the annular construction
    hemisphere_density: float  # 1/(pi*sqrt(3)), the triangulated-hemisphere rate
    gap: float  # hemisphere rate minus 1/6

    @property
    def ordering_ok(self) -> bool:
        return self.lower_density <= self.upper_density < self.hemisphere_density

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


@dataclass
class SweepRow:
    """One convergence measurement: build, validate, audit, verify, time."""

    n: int
    rho: float
    eta: float
    vertices: int = 0
    density: float = 0.0
    delta: float = 0.0
    is_isometric: bool = False
    eps: float = 0.0
    build_ms: float = 0.0
    verify_ms: float = 0.0
    error: str | None = None

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
    jobs: int | None = None,
    csv_path: str | None = None,
) -> list[SweepRow]:
    """Build, validate, audit, and verify a filling for each n in order.

    Per-row failures (schedule rejections, invariant violations) are recorded
    on the row and the sweep continues.  Rows are written to ``csv_path`` in
    input order when given; failed rows are omitted from the CSV since they
    have no measurements.  The worker count is resolved first, so a bad
    ``jobs`` or ``RINGFILL_JOBS`` raises ``ValueError`` before any build.
    """
    jobs = resolve_jobs(jobs)
    rho_f = as_fraction(rho)
    eta_f = as_fraction(eta)
    rows: list[SweepRow] = []
    for n in n_list:
        row = SweepRow(n=n, rho=float(rho_f), eta=float(eta_f))
        try:
            t0 = time.perf_counter()
            build = build_filling(Params(n, rho_f, eta_f))
            row.build_ms = (time.perf_counter() - t0) * 1000.0
            report = validate_disk(build.triangulation)
            if not report.ok:
                raise RuntimeError("disk validation failed: " + "; ".join(report.failures))
            audit = drift_audit(build)
            if not audit.ok:
                bad = audit.failures()[0]
                raise RuntimeError(
                    f"drift bound violated on annulus {bad.layer}: "
                    f"{bad.max_observed} > {bad.bound}"
                )
            t1 = time.perf_counter()
            verification = verify_filling(build.triangulation, jobs=jobs, want_witness=False)
            row.verify_ms = (time.perf_counter() - t1) * 1000.0
            row.vertices = build.triangulation.num_vertices
            row.density = float(build.density)
            row.delta = float(verification.delta)
            row.is_isometric = verification.is_isometric
            row.eps = step_profile_eps(build)
            if row.vertices < vertex_count_lower_bound(n, 1.0):
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
