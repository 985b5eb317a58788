"""Exhaustive ground truth for tiny boundaries.

Enumerates every triangulated disk with boundary exactly the labeled cycle
0..n-1 and a given number of interior vertices, then filters by the exact
isometry test.  The boundary stays labeled (its symmetries are not
quotiented); interior vertices are unlabeled, and the enumeration emits each
complex once by construction, with its interior ids fixed by the search
order.  The counts equal W. G. Brown's closed formula for triangulated disks
("Enumeration of triangulations of the disk", 1964), which the tests check.

Both hot loops are compiled kernels of ``_kernels.c``: a resumable
backtracking enumeration that writes the fillings into ``(B, F, 3)`` int32
stacks, and an isometry test on per-complex adjacency bitsets.  Every stack
passes ``disk_verdicts``, the compiled per-complex form of
:func:`ringfill.validate_disk`'s checks and an independent check on the
enumerator, before its isometry test.  The search state, the stacks and
the kernels' scratch are ``bytearray`` buffers cast by ``memoryview``, so a
search imports no numpy: numpy and :mod:`ringfill.simplicial` are imported
only to build a witness, to report an invalid leaf, and by
:func:`enumerate_fillings`.  Budgets are tiny by design: this module exists
to ground-truth the verifier and the small end of the construction, not to
chase the asymptotics.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING

from ._kernels import DISK_SCRATCH, library as _library

if TYPE_CHECKING:
    from .simplicial import Triangulation

__all__ = [
    "EnumerationBudget",
    "EnumerationStats",
    "enumerate_fillings",
    "is_isometric_filling",
    "OracleResult",
    "min_isometric_vertices",
]

MAX_BOUNDARY = 7
MAX_INTERIOR = 4
# Fillings per stack, each stack searched, validated and tested in one call
# each.  The peak RSS of the n = 7 search is the same at 128 and 504 (31.7
# MB), and stacks of 504 keep the per-call costs of the three kernels small
# beside their work.  At most 504, so a test can corrupt a full first stack
# of n = 6 with two interior vertices.
_CHUNK = 504
_MAX_TINY = 255  # the most vertices is_isometric_filling takes


@dataclass(frozen=True)
class EnumerationBudget:
    """Boundary length and exact interior vertex count of one enumeration."""

    n: int
    interior: int = MAX_INTERIOR

    def __post_init__(self) -> None:
        if not 3 <= self.n <= MAX_BOUNDARY:
            raise ValueError(f"boundary length must lie in 3..{MAX_BOUNDARY}, got {self.n}")
        if not 0 <= self.interior <= MAX_INTERIOR:
            raise ValueError(f"interior budget must lie in 0..{MAX_INTERIOR}, got {self.interior}")


@dataclass
class EnumerationStats:
    """Side-channel counters filled in while the enumeration runs.

    ``duplicates`` is always 0, since every complex is emitted once; it stays
    for callers that report it.
    """

    emitted: int = 0
    duplicates: int = 0


def _ints(*shape: int) -> memoryview:
    """A zeroed C-contiguous int32 buffer of ``shape``: a ``bytearray`` cast by ``memoryview``."""
    return memoryview(bytearray(4 * prod(shape))).cast("i", shape)


def _fillings(budget: EnumerationBudget, cap: int = _CHUNK) -> Iterator[memoryview]:
    """The enumeration's fillings in depth-first order, as ``(B, F, 3)`` int32 stacks of at most ``cap``.

    The compiled ``grow_fillings`` runs the search, its state kept in this
    generator's buffers between stacks, so no two searches share anything.
    Each step attaches the unique triangle of the final complex that sits on
    the first edge of the first open region, branching first over a fresh
    interior vertex, then over the region's other vertices as apex; a chord
    that duplicates an existing edge is rejected, since it would pinch the
    disk.  Fresh ids are handed out in search order, so every complex (up to
    relabeling its interior) comes out along exactly one branch with one
    labeling, its rows in canonical rotation.  A leaf whose triangle count
    is not ``F`` (a bug) ends the stream as a ``(1, T, 3)`` stack of its own.
    """
    lib = _library()
    n, k = budget.n, budget.interior
    nf = n - 2 + 2 * k
    state = _ints(lib.grow_state_size(n, k))
    path = _ints(nf + 1, 3)
    while True:
        stack = _ints(cap, nf, 3)
        got = lib.grow_fillings(n, k, state, path, stack, cap)
        if got < 0:  # a leaf of T = -1 - got triangles, left in the path
            size = -1 - got
            yield memoryview(bytearray(path[:size])).cast("i", (1, size, 3))
            return
        if got:
            yield stack[:got]
        if got < cap:
            return


def _verdicts(n: int, nv: int, stack) -> bytearray:
    """Byte b is 1 iff complex b of the ``(B, F, 3)`` int32 ``stack`` is a disk filling C_n on ``nv`` vertices.

    The compiled ``disk_verdicts`` checks each complex on its own and shares
    no code with the search, so it is an independent check on it.
    """
    num, nf = stack.shape[:2]
    ok = bytearray(num)
    _library().disk_verdicts(n, nv, stack, num, nf, _ints(DISK_SCRATCH * nf), memoryview(ok).cast("?"))
    return ok


def _invalid(n: int, nv: int, leaves) -> RuntimeError:
    """The error for a stack holding a leaf that is not a disk, with the first one's failures."""
    from .simplicial import Triangulation, validate_disk

    for leaf in leaves.tolist():
        report = validate_disk(Triangulation(n, nv, leaf))
        if not report.ok:
            return RuntimeError(f"enumerator produced an invalid complex: {report.failures[:3]}")
    return RuntimeError("batched and per-complex disk validation disagree")


def _stacks(budget: EnumerationBudget) -> Iterator[memoryview]:
    """The stacks of :func:`_fillings`, each one checked by :func:`_verdicts`.

    Every filling has ``n + interior`` vertices and ``F = n - 2 +
    2*interior`` triangles.  A filling failing the check is a bug in the
    enumerator, so it raises, with :func:`ringfill.validate_disk`'s failures
    for the first one.
    """
    n, nv = budget.n, budget.n + budget.interior
    nf = n - 2 + 2 * budget.interior
    for chunk in _fillings(budget):
        if chunk.shape[1] != nf or 0 in _verdicts(n, nv, chunk):
            raise _invalid(n, nv, chunk)
        yield chunk


def enumerate_fillings(
    budget: EnumerationBudget, stats: EnumerationStats | None = None
) -> Iterator[Triangulation]:
    """Every triangulated disk filling the labeled C_n with ``budget.interior`` interior vertices.

    Outputs are pairwise non-isomorphic relative to the boundary and each one
    passes the disk validation; a validation failure here is a bug in the
    enumerator, so it raises instead of skipping.  Fillings are searched and
    validated a stack at a time as they are consumed.
    """
    import numpy as np

    from .simplicial import Triangulation

    if stats is None:
        stats = EnumerationStats()
    nv = budget.n + budget.interior
    for chunk in _stacks(budget):
        for triangles in np.asarray(chunk):
            stats.emitted += 1
            yield Triangulation(budget.n, nv, triangles)


def _isometric_rows(n: int, nv: int, triangles) -> memoryview:
    """Which complexes of a ``(B, F, 3)`` int32 stack on ids ``0..nv-1`` are isometric fillings of C_n.

    The compiled ``isometric_rows`` grows, on per-complex adjacency bitsets,
    the set of vertices within k steps of each boundary vertex: a shortcut
    between boundary vertices i and j has length at most ``d_cyc(i, j) - 1
    <= n // 2 - 1``, so the complex is isometric iff no pair with ``d_cyc >
    k`` is reached within k steps, for k = 1 .. n // 2 - 1.  Returns a
    ``(B,)`` bool buffer.
    """
    num, nf = triangles.shape[:2]
    isometric = memoryview(bytearray(num)).cast("?")
    scratch = memoryview(bytearray(8 * (nv + 2 * n) * -(-nv // 64))).cast("Q")
    _library().isometric_rows(n, nv, triangles, num, nf, scratch, isometric)
    return isometric


def is_isometric_filling(t: Triangulation) -> bool:
    """True iff no boundary pair gets closer through the complex than along the cycle.

    For tiny complexes (under 256 vertices); :func:`ringfill.verify_filling`
    measures large ones.
    """
    if t.num_vertices > _MAX_TINY:
        raise ValueError(f"is_isometric_filling takes at most {_MAX_TINY} vertices, got {t.num_vertices}")
    tri = t.triangles
    if len(tri) and tri.max() >= t.num_vertices:
        raise ValueError(f"triangles reference vertex id {tri.max()}, beyond the {t.num_vertices} vertices")
    return _isometric_rows(t.n, t.num_vertices, tri[None])[0]


@dataclass
class OracleResult:
    """Outcome of the exhaustive minimum search."""

    n: int
    min_vertices: int | None
    witness: Triangulation | None
    enumerated: int

    @property
    def known(self) -> bool:
        return self.min_vertices is not None


def min_isometric_vertices(n: int, max_interior: int = MAX_INTERIOR) -> OracleResult:
    """Exact minimum vertex count of an isometric filling of the labeled C_n.

    Enumerates each interior count in increasing order, so the first hit is
    minimal.  When nothing within the budget is isometric the minimum is
    reported as unknown (the budget may simply be too small), never as
    infinity.
    """
    EnumerationBudget(n, max_interior)  # rejects an out-of-range search before enumerating
    total = 0
    for k in range(max_interior + 1):
        for chunk in _stacks(EnumerationBudget(n, k)):
            hit = _isometric_rows(n, n + k, chunk).tobytes().find(1)
            if hit >= 0:
                from .simplicial import Triangulation

                witness = Triangulation(n, n + k, chunk[hit : hit + 1].tolist()[0])
                return OracleResult(n=n, min_vertices=n + k, witness=witness, enumerated=total + hit + 1)
            total += len(chunk)
    return OracleResult(n=n, min_vertices=None, witness=None, enumerated=total)
