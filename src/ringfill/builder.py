"""Layer schedule computation and assembly of the full concentric filling.

A filling of the boundary cycle C_n is built in three stages: a protective
collar of full-length annuli, a main region whose cycle lengths follow the
square-root profile sqrt(1 - 4t) in constant-length blocks with sparse
shrinking transitions, and a cone cap closing the innermost cycle.
"""
from __future__ import annotations

import math
from fractions import Fraction

from . import ScheduleError, _shown, as_fraction
from .annuli import LayerRecord, _annulus_size, _filling_rows, layer_ledger
from .simplicial import MAX_TRIANGLES, Triangulation

__all__ = [
    "ScheduleError",
    "Params",
    "Schedule",
    "BuildResult",
    "as_fraction",
    "ceil_sqrt",
    "compute_schedule",
    "build_filling",
    "predict_density",
]


# An isometric filling of C_n has V >= (n-1)^2/8 + (n-1)/2 vertices and
# F = 2V - n - 2 triangles, more than MAX_TRIANGLES past this n.  Params
# refuses such n before the schedule's O(sqrt n) work; compute_schedule
# checks its exact triangle count.  Up to it, certify's drift arithmetic,
# 2nS <= 2n^3, stays within int64 too.
MAX_N = 37_838


def ceil_sqrt(value: Fraction) -> int:
    """Smallest integer k with k*k >= value, computed exactly.

    Ceiling of an irrational square root is not float-safe near integers, so
    this works on the rational radicand directly via integer square roots.
    """
    num, den = value.numerator, value.denominator
    if num <= 0:
        return 0
    k = math.isqrt(num // den)
    while k * k * den < num:
        k += 1
    return k


class Params:
    """Parameter triple (n, rho, eta) driving one construction.

    ``rho`` is the collar share of the radius, ``eta`` the innermost cycle
    length as a fraction of n.  Both are stored as exact rationals.  A
    params triple is read-only and compares by value.
    """

    def __init__(self, n: int, rho: Fraction | int | float | str, eta: Fraction | int | float | str) -> None:
        rho, eta = as_fraction(rho), as_fraction(eta)
        if n < 3:
            raise ScheduleError(f"boundary length must be >= 3, got {n}")
        if n > MAX_N:
            raise ScheduleError(
                f"boundary length {n} > {MAX_N}: an isometric filling of C_n would have "
                f"more than {MAX_TRIANGLES} triangles, past int32 edge ids"
            )
        if rho <= 0:
            raise ScheduleError(f"rho must be positive, got {_shown(rho)}")
        if not 0 < eta < 1:
            raise ScheduleError(f"eta must lie in (0, 1), got {_shown(eta)}")
        if eta * eta >= rho:
            raise ScheduleError(f"eta^2 < rho violated ({_shown(eta * eta)} >= {_shown(rho)})")
        vars(self).update(n=n, rho=rho, eta=eta)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        return type(other) is Params and vars(self) == vars(other)


class Schedule:
    """Deterministic construction plan derived from Params, read-only and compared by value.

    ``block_lengths[b]`` is the cycle length used throughout block b;
    ``block_lengths[-1]`` is the innermost cycle closed by the cone.
    """

    def __init__(
        self, n: int, collar_layers: int, num_blocks: int, layers_per_block: int, stop_time: Fraction,
        block_width: Fraction, block_times: tuple[Fraction, ...], block_lengths: tuple[int, ...],
    ) -> None:
        vars(self).update(
            n=n, collar_layers=collar_layers, num_blocks=num_blocks, layers_per_block=layers_per_block,
            stop_time=stop_time, block_width=block_width, block_times=block_times, block_lengths=block_lengths,
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        return type(other) is Schedule and vars(self) == vars(other)

    @property
    def annuli(self) -> list[tuple[str, int]]:
        """Every annulus from the boundary inward, as ``(kind, inner cycle length)``.

        The collar, then per block its equal-length annuli and one transition:
        a shrink to the next block's length, or an equal-length annulus where
        that length is unchanged.
        """
        out = [("collar", self.n)] * self.collar_layers
        for m, target in zip(self.block_lengths, self.block_lengths[1:]):
            out += [("equal", m)] * self.layers_per_block
            out.append(("shrink", target) if target < m else ("transition-equal", m))
        return out

    @property
    def predicted_vertex_count(self) -> int:
        lengths = self.block_lengths
        main = sum(
            self.layers_per_block * lengths[b] + lengths[b + 1] for b in range(self.num_blocks)
        )
        return self.n * (self.collar_layers + 1) + main + 1

    @property
    def predicted_triangle_count(self) -> int:
        lengths = self.block_lengths
        main = sum(
            2 * self.layers_per_block * lengths[b] + lengths[b] + lengths[b + 1]
            for b in range(self.num_blocks)
        )
        return 2 * self.n * self.collar_layers + main + lengths[-1]


def compute_schedule(p: Params) -> Schedule:
    """Evaluate the construction plan for ``p``, rejecting parameters that
    would force a degenerate layer (cycle shorter than 3, empty blocks, or a
    missing collar) with a message naming each violated bound."""
    n = p.n
    collar = math.ceil(p.rho * n)
    root = math.isqrt(n)
    blocks = root if root * root == n else root + 1
    stop = (1 - p.eta * p.eta) / 4
    width = stop / blocks
    per_block = math.floor(n * width)
    times = tuple(b * width for b in range(blocks + 1))
    lengths = tuple(ceil_sqrt(n * n * (1 - 4 * t)) for t in times)

    violations = []
    if collar < 1:
        violations.append(f"collar has {collar} < 1 layers")
    if per_block < 1:
        violations.append(f"blocks hold {per_block} < 1 layers each (n too small for {blocks} blocks)")
    if min(lengths) < 3:
        violations.append(f"innermost cycle length {min(lengths)} < 3 (raise eta or n)")
    if violations:
        raise ScheduleError("; ".join(violations))

    assert lengths[0] == n, "profile starts at the full boundary length"
    assert lengths[-1] == math.ceil(p.eta * n), "profile stops at the ceiling of eta*n"
    assert all(lengths[b] >= lengths[b + 1] for b in range(blocks)), "cycle lengths non-increasing"
    sched = Schedule(n, collar, blocks, per_block, stop, width, times, lengths)
    if sched.predicted_triangle_count > MAX_TRIANGLES:
        raise ScheduleError(
            f"the filling would have {_shown(sched.predicted_triangle_count)} triangles, "
            f"more than the {MAX_TRIANGLES} that int32 edge ids allow"
        )
    return sched


class BuildResult:
    """A built filling along with its params, plan and ledger."""

    def __init__(self, triangulation: Triangulation, ledger: list[LayerRecord], schedule: Schedule, params: Params):
        self.triangulation = triangulation
        self.ledger = ledger
        self.schedule = schedule
        self.params = params

    @property
    def apex(self) -> int:
        """Id of the cone apex: the one after the innermost cycle's."""
        return self.ledger[-1].first_vertex + self.ledger[-1].length

    @property
    def density(self) -> Fraction:
        """Exact vertex count over n squared."""
        return Fraction(self.triangulation.num_vertices, self.params.n**2)


def build_filling(p: Params) -> BuildResult:
    """Assemble the full complex for ``p``: collar, stepped main region, cone.

    The ledger comes first, from the schedule's annuli; each annulus's
    triangles then follow from its two ledger records.  The boundary of the
    result is exactly the labeled cycle 0..n-1.  The vertex and triangle
    counts are predicted from the schedule in closed form and checked against
    the ledger's before any triangle is written; one kernel call then writes
    every annulus and the cone into one int32 buffer of that size, which the
    complex takes over.
    """
    sched = compute_schedule(p)
    ledger = layer_ledger(p.n, sched.annuli)
    nv = ledger[-1].first_vertex + ledger[-1].length + 1
    nf = sum(map(_annulus_size, ledger, ledger[1:])) + ledger[-1].length
    pv, pt = sched.predicted_vertex_count, sched.predicted_triangle_count
    if pv != nv or pt != nf:
        raise RuntimeError(f"count mismatch: predicted {pv} vertices / {pt} triangles, built {nv} / {nf}")
    return BuildResult(Triangulation(p.n, nv, _filling_rows(ledger, cone=True), own=True), ledger, sched, p)


def predict_density(p: Params) -> Fraction:
    """Asymptotic vertex density bound rho + (1 - eta^3) / 6, exactly."""
    return p.rho + (1 - p.eta**3) / 6
