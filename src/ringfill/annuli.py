"""Concentric annulus triangulations with exact circular phase bookkeeping.

Every cycle of the complex carries a phase: an exact rational offset placing
its vertices equally spaced on an auxiliary circle of circumference ``n``
(one boundary edge = one unit).  Phases are never floats; the drift audit in
:mod:`ringfill.verify` asserts equalities on them, and rounding would create
spurious failures right at the bound.

The layer ledger is computed first, from the sequence of annuli alone; each
annulus's triangles then follow from its two ledger records, and the cone's
from the innermost one.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "staircase_indices",
    "LayerRecord",
    "layer_ledger",
    "annulus_triangles",
    "cone_triangles",
]

# Annulus kinds, recorded on the outer cycle of each annulus:
#   collar            equal-length annulus in the protective collar
#   equal             equal-length annulus inside a constant-length block
#   shrink            staircase annulus dropping to a shorter cycle
#   transition-equal  block transition where the target length is unchanged
_EQUAL_KINDS = ("collar", "equal", "transition-equal")


def staircase_indices(m: int, M: int) -> list[int]:
    """The monotone step sequence ``k_i = floor(M*i/m)`` for ``i = 0..m``.

    Starts at 0, ends at M, and increases by 0 or 1 at each step whenever
    ``M <= m``; it decides which inner vertex each outer edge attaches to in
    a shrinking annulus.
    """
    return [(M * i) // m for i in range(m + 1)]


@dataclass
class LayerRecord:
    """Ledger entry for one cycle and the annulus attached on its inner side.

    ``annulus_kind`` and ``drift_bound`` stay ``None`` on the innermost cycle
    (the cone sits below it, and the auxiliary coordinate is not defined on
    the apex).  ``drift_bound`` is the exact maximum circular displacement a
    single slanted edge of that annulus may have: ``n/(2m)`` for equal-length
    annuli and ``n/M`` for a shrink to length ``M``.  Vertex i of the cycle
    sits at ``(phase + n*i/length) mod n``.
    """

    index: int
    length: int
    phase: Fraction
    first_vertex: int
    annulus_kind: str | None = None
    drift_bound: Fraction | None = None

    def vertex(self, i: int | np.ndarray) -> int | np.ndarray:
        """Id of the ``i``-th cycle vertex (elementwise for arrays), indices taken mod length."""
        return self.first_vertex + (i % self.length)


def layer_ledger(n: int, annuli: Iterable[tuple[str, int]]) -> list[LayerRecord]:
    """The ledger of a disk filling C_n, from its annuli listed boundary inward.

    Each annulus is ``(kind, inner length)``.  An equal-length kind keeps the
    cycle length and offsets the inner cycle by half an outer step, n/(2m),
    which is also its drift bound; a ``"shrink"`` keeps the phase and drops
    to length M with drift bound n/M.  Cycles take consecutive id ranges from
    0, and the apex of the cone takes the id after the innermost cycle's.
    """
    if n < 3:
        raise ValueError(f"boundary cycle needs length >= 3, got {n}")
    ledger = []
    length, phase, first = n, Fraction(0), 0
    for kind, inner in annuli:
        if kind == "shrink":
            if inner < 3 or inner > length:
                raise ValueError(f"shrinking annulus needs 3 <= target <= {length}, got {inner}")
            bound, step = Fraction(n, inner), 0
        elif kind in _EQUAL_KINDS:
            if inner != length:
                raise ValueError(f"{kind} annulus keeps the cycle length {length}, got {inner}")
            bound = step = Fraction(n, 2 * length)
        else:
            raise ValueError(f"unknown annulus kind {kind!r}")
        ledger.append(LayerRecord(len(ledger), length, phase, first, kind, bound))
        length, phase, first = inner, (phase + step) % n, first + length
    ledger.append(LayerRecord(len(ledger), length, phase, first))
    return ledger


def annulus_triangles(outer: LayerRecord, inner: LayerRecord) -> np.ndarray:
    """The ``(k, 3)`` int32 triangles of the annulus between two consecutive ledger cycles.

    An equal-length annulus emits the 2m triangles (U_i, U_{i+1}, V_i) and
    (U_{i+1}, V_i, V_{i+1}); every slanted edge has circular displacement
    exactly n/(2m).  A shrink to length M runs the staircase: each outer edge
    contributes one triangle when its staircase index stays put and two when
    it advances, m + M triangles in all, and every slanted edge has circular
    displacement at most n/M.
    """
    m = outer.length
    i = np.arange(m, dtype=np.int32)
    u0, u1 = outer.vertex(i), outer.vertex(i + 1)
    if outer.annulus_kind != "shrink":
        v0, v1 = inner.vertex(i), inner.vertex(i + 1)
        pair = np.stack([np.column_stack([u0, u1, v0]), np.column_stack([u1, v0, v1])], axis=1)
        return pair.reshape(2 * m, 3)
    steps = np.array(staircase_indices(m, inner.length), dtype=np.int32)
    w0, w1 = inner.vertex(steps[:-1]), inner.vertex(steps[1:])
    # Outer edge i always gets (u0, u1, w1); where the staircase advances
    # (w1 != w0) it is followed by (u0, w0, w1).
    pair = np.stack([np.column_stack([u0, u1, w1]), np.column_stack([u0, w0, w1])], axis=1)
    return pair[np.column_stack([np.ones(m, dtype=bool), steps[1:] > steps[:-1]])]


def cone_triangles(innermost: LayerRecord) -> np.ndarray:
    """The int32 fan closing the innermost cycle with one apex, the id after the cycle's."""
    i = np.arange(innermost.length, dtype=np.int32)
    apex = innermost.first_vertex + innermost.length
    return np.column_stack([np.full_like(i, apex), innermost.vertex(i), innermost.vertex(i + 1)])
