"""Concentric annulus triangulations with exact circular phase bookkeeping.

Every cycle of the complex carries a phase: an exact rational offset placing
its vertices equally spaced on an auxiliary circle of circumference ``n``
(one boundary edge = one unit).  Phases are never floats; the drift audit in
:mod:`ringfill.verify` asserts equalities on them, and rounding would create
spurious failures right at the bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .simplicial import Triangulation

__all__ = [
    "circ_dist",
    "staircase_indices",
    "LayerRecord",
    "DiskAssembler",
]

# Annulus kinds, recorded on the outer cycle of each annulus:
#   collar            equal-length annulus in the protective collar
#   equal             equal-length annulus inside a constant-length block
#   shrink            staircase annulus dropping to a shorter cycle
#   transition-equal  block transition where the target length is unchanged
_EQUAL_KINDS = ("collar", "equal", "transition-equal")


def circ_dist(a: Fraction | int, b: Fraction | int, n: int) -> Fraction:
    """Shorter distance between ``a`` and ``b`` on the circle of circumference ``n``.

    Exact: returns ``min(d, n - d)`` with ``d = (a - b) mod n`` as a Fraction.
    """
    d = (Fraction(a) - Fraction(b)) % n
    return min(d, n - d)


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
    annuli and ``n/M`` for a shrink to length ``M``.
    """

    index: int
    length: int
    phase: Fraction
    first_vertex: int
    annulus_kind: str | None = None
    drift_bound: Fraction | None = None

    def theta(self, i: int, n: int) -> Fraction:
        """Circular coordinate of the ``i``-th vertex of this cycle."""
        num, den, m = self.phase.numerator, self.phase.denominator, self.length
        return Fraction((num * m + n * (i % m) * den) % (n * den * m), den * m)

    def vertex(self, i: int | np.ndarray) -> int | np.ndarray:
        """Id of the ``i``-th cycle vertex (elementwise for arrays), indices taken mod length."""
        return self.first_vertex + (i % self.length)


class DiskAssembler:
    """Builds a triangulated disk inward: cycles, annuli, then one cone cap.

    Single-use and single-threaded: annuli always attach to the current
    innermost cycle, and no further annulus may be added after the cone.
    Each annulus and the cone append one ``(k, 3)`` block of triangles,
    computed by index arithmetic over the whole cycle.  Only a vertex count
    is kept: each cycle owns the id range its ledger record gives, and its
    positions follow from the record's length and phase.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"boundary cycle needs length >= 3, got {n}")
        self.n = n
        self.num_vertices = n
        self.blocks: list[np.ndarray] = []
        self.layers: list[LayerRecord] = [LayerRecord(0, n, Fraction(0), 0)]
        self.apex: int | None = None

    @property
    def innermost(self) -> LayerRecord:
        return self.layers[-1]

    def _require_open(self) -> None:
        if self.apex is not None:
            raise ValueError("cone cap already added; the complex is closed")

    def _new_layer(self, length: int, phase: Fraction) -> LayerRecord:
        layer = LayerRecord(len(self.layers), length, phase % self.n, self.num_vertices)
        self.num_vertices += length
        self.layers.append(layer)
        return layer

    def add_equal_annulus(self, kind: str = "equal") -> LayerRecord:
        """Attach an annulus keeping the cycle length, inner cycle offset by a half step.

        Emits the 2m triangles (U_i, U_{i+1}, V_i) and (U_{i+1}, V_i, V_{i+1});
        every slanted edge has circular displacement exactly n/(2m).
        """
        self._require_open()
        if kind not in _EQUAL_KINDS:
            raise ValueError(f"unknown equal-annulus kind {kind!r}")
        outer = self.innermost
        m = outer.length
        if m < 3:
            raise ValueError(f"equal-length annulus needs cycle length >= 3, got {m}")
        half_step = Fraction(self.n, 2 * m)
        inner = self._new_layer(m, outer.phase + half_step)
        i = np.arange(m)
        u0, u1 = outer.vertex(i), outer.vertex(i + 1)
        v0, v1 = inner.vertex(i), inner.vertex(i + 1)
        pair = np.stack([np.column_stack([u0, u1, v0]), np.column_stack([u1, v0, v1])], axis=1)
        self.blocks.append(pair.reshape(2 * m, 3))
        outer.annulus_kind = kind
        outer.drift_bound = half_step
        return inner

    def add_shrinking_annulus(self, target_length: int) -> LayerRecord:
        """Attach a staircase annulus from the current length m down to ``target_length``.

        The inner cycle keeps the outer phase.  Each outer edge contributes one
        triangle when its staircase index stays put and two when it advances,
        for m + M triangles total; every slanted edge has circular displacement
        at most n/M.
        """
        self._require_open()
        outer = self.innermost
        m, M = outer.length, target_length
        if M < 3 or M > m:
            raise ValueError(f"shrinking annulus needs 3 <= target <= {m}, got {M}")
        inner = self._new_layer(M, outer.phase)
        steps = np.array(staircase_indices(m, M))
        i = np.arange(m)
        u0, u1 = outer.vertex(i), outer.vertex(i + 1)
        w0, w1 = inner.vertex(steps[:-1]), inner.vertex(steps[1:])
        # Outer edge i always gets (u0, u1, w1); where the staircase advances
        # (w1 != w0) it is followed by (u0, w0, w1).
        pair = np.stack([np.column_stack([u0, u1, w1]), np.column_stack([u0, w0, w1])], axis=1)
        self.blocks.append(pair[np.column_stack([np.ones(m, dtype=bool), steps[1:] > steps[:-1]])])
        outer.annulus_kind = "shrink"
        outer.drift_bound = Fraction(self.n, M)
        return inner

    def add_cone(self) -> int:
        """Close the innermost cycle with one apex vertex and a fan of triangles."""
        self._require_open()
        inner = self.innermost
        apex = self.num_vertices
        self.num_vertices += 1
        i = np.arange(inner.length)
        self.blocks.append(np.column_stack([np.full_like(i, apex), inner.vertex(i), inner.vertex(i + 1)]))
        self.apex = apex
        return apex

    def build(self) -> Triangulation:
        """Hand over the accumulated complex.  Do not mutate the assembler afterwards."""
        return Triangulation(self.n, self.num_vertices, np.concatenate(self.blocks) if self.blocks else [])
