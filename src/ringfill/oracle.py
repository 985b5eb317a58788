"""Exhaustive ground truth for tiny boundaries.

Enumerates every triangulated disk with boundary exactly the labeled cycle
0..n-1 and a given number of interior vertices, then filters by the exact
isometry test.  The boundary stays labeled (its symmetries are not
quotiented); interior vertices are unlabeled, and the enumeration emits each
complex once by construction, with its interior ids fixed by the search
order.  The counts equal W. G. Brown's closed formula for triangulated disks
("Enumeration of triangulations of the disk", 1964), which the tests check.

The hot loops are compiled kernels of ``_kernels.c``: a resumable
backtracking enumeration that writes the fillings into ``(B, F, 3)`` int32
stacks, then two passes over per-complex adjacency bitsets.  Every stack
passes :func:`validate_disk_batch`, whose bitset pass gives each complex
:func:`ringfill.validate_disk`'s verdict and shares no code with the
search, before its isometry test.  The search state, the stacks and
the kernels' scratch are ``bytearray`` buffers cast by ``memoryview``, and
a filling taken out of a stack is a view of its rows, so this module
imports no numpy: :mod:`ringfill.simplicial` is imported only to hand a
filling on, to build a witness, to report an invalid leaf and to validate
a stack of complexes past 64 vertices.  Budgets
are tiny by design: this module exists to ground-truth the verifier and
the small end of the construction, not to chase the asymptotics.
"""
from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from . import _kernels
from ._kernels import INT32, MAX_ID, MAX_TRIANGLES, buffer, check_ids, checked

if TYPE_CHECKING:
    from .simplicial import Triangulation

__all__ = [
    "EnumerationBudget",
    "EnumerationStats",
    "enumerate_fillings",
    "is_isometric_filling",
    "OracleResult",
    "min_isometric_vertices",
    "validate_disk_batch",
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
_MAX_BITSET = 64  # the most vertices disk_verdicts takes: one uint64 bitset a vertex


class EnumerationBudget:
    """Boundary length and exact interior vertex count of one enumeration, read-only."""

    def __init__(self, n: int, interior: int = MAX_INTERIOR) -> None:
        if not 3 <= n <= MAX_BOUNDARY:
            raise ValueError(f"boundary length must lie in 3..{MAX_BOUNDARY}, got {n}")
        if not 0 <= interior <= MAX_INTERIOR:
            raise ValueError(f"interior budget must lie in 0..{MAX_INTERIOR}, got {interior}")
        vars(self).update(n=n, interior=interior)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class EnumerationStats:
    """Side-channel counters filled in while the enumeration runs.

    ``duplicates`` is always 0, since every complex is emitted once; it stays
    for callers that report it.
    """

    def __init__(self, emitted: int = 0, duplicates: int = 0) -> None:
        self.emitted = emitted
        self.duplicates = duplicates


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
    lib = _kernels.library()
    n, k = budget.n, budget.interior
    nf = n - 2 + 2 * k
    state = buffer("i", lib.grow_state_size(n, k))
    path = buffer("i", nf + 1, 3)
    while True:
        stack = buffer("i", cap, nf, 3)
        got = lib.grow_fillings(n, k, state, path, stack, cap)
        if got < 0:  # a leaf of T = -1 - got triangles, left in the path
            size = -1 - got
            yield memoryview(bytearray(path[:size])).cast("i", (1, size, 3))
            return
        if got:
            yield stack[:got]
        if got < cap:
            return


def validate_disk_batch(n: int, num_vertices: int, stack) -> memoryview:
    """:func:`ringfill.validate_disk`'s verdicts on the B complexes of one size in a stack.

    ``stack`` is a C-contiguous ``(B, F, 3)`` int32 buffer, such as the
    search's stacks or a numpy int32 array; complex b is
    ``Triangulation(n, num_vertices, stack[b])``.  On at most 64 vertices
    (the oracle's have at most 11) the compiled ``disk_verdicts`` checks the
    whole stack in one call, one pass over each complex's rows into
    adjacency bitsets and an apex table, then a walk of every vertex's link
    and a flood; its docstring argues that it fails exactly the complexes
    that validate_disk fails.  Larger complexes go through
    :func:`ringfill.validate_disk` one at a time.  Neither shares code with
    the search, so each is an independent check on it.  A complex of F
    triangles covers at most 3F vertices, so a ``num_vertices`` outside
    ``n..3F`` fails every complex.  Returns a ``(B,)`` bool buffer, True
    where :func:`ringfill.validate_disk` reports ``ok``; ask it for the
    failures of a complex this flags.  Raises ValueError, before any kernel
    runs, for a boundary length below 3 (which :class:`Triangulation`
    refuses too: with no boundary cycle, a closed surface such as the
    projective plane would pass), another shape, an empty stack, more
    than ``MAX_TRIANGLES`` triangles a complex, a buffer that the kernels
    do not take (see :func:`ringfill._kernels.takes`), or a negative id.
    """
    if n < 3:
        raise ValueError(f"boundary length must be >= 3, got {n}")
    view = memoryview(stack)
    if view.ndim != 3 or view.shape[2] != 3 or not view.nbytes:
        raise ValueError(f"triangles must be a (B, F, 3) array with B, F >= 1, got shape {view.shape}")
    num, nf = view.shape[:2]
    if nf > MAX_TRIANGLES:
        raise ValueError(f"{nf} triangles have too many edges for int32 edge ids")
    checked(stack, INT32, (None, None, 3), "stack")
    lib = _kernels.library()
    if lib.top_id(stack, 3 * num * nf) < 0:
        raise ValueError(f"triangle vertex ids must lie in 0..{MAX_ID}")
    ok = buffer("?", num)
    nv = num_vertices
    if not n <= nv <= 3 * nf:
        return ok
    if nv <= _MAX_BITSET:  # once and twice bitsets, then the apex table's 2 nv^2 bytes
        lib.disk_verdicts(n, nv, stack, num, nf, buffer("Q", 2 * nv + -(-nv * nv // 4)), ok)
        return ok
    from .simplicial import validate_disk

    for b, t in enumerate(_triangulations(n, nv, stack)):
        ok[b] = validate_disk(t).ok
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
    """The stacks of :func:`_fillings`, each one checked by :func:`validate_disk_batch`.

    Every filling has ``n + interior`` vertices and ``F = n - 2 +
    2*interior`` triangles.  A filling failing the check is a bug in the
    enumerator, so it raises, with :func:`ringfill.validate_disk`'s failures
    for the first one.
    """
    n, nv = budget.n, budget.n + budget.interior
    nf = n - 2 + 2 * budget.interior
    for chunk in _fillings(budget):
        if chunk.shape[1] != nf or not all(validate_disk_batch(n, nv, chunk)):
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
    if stats is None:
        stats = EnumerationStats()
    nv = budget.n + budget.interior
    for chunk in _stacks(budget):
        for filling in _triangulations(budget.n, nv, chunk):
            stats.emitted += 1
            yield filling


def _triangulations(n: int, nv: int, stack, start: int = 0) -> Iterator[Triangulation]:
    """The complexes of a ``(B, F, 3)`` int32 ``stack`` from complex ``start`` on, each from a view of its F rows."""
    from .simplicial import Triangulation

    num, nf = stack.shape[:2]
    rows = memoryview(stack).cast("B").cast("i", (num * nf, 3))
    for b in range(start, num):
        yield Triangulation(n, nv, rows[b * nf : (b + 1) * nf])


def _isometric_rows(n: int, nv: int, triangles, num: int, nf: int) -> memoryview:
    """Which of the ``num`` complexes of ``nf`` int32 rows in ``triangles``, on ids ``0..nv-1``, fill C_n isometrically.

    The compiled ``isometric_rows`` grows, on per-complex adjacency bitsets,
    the set of vertices within k steps of each boundary vertex: a shortcut
    between boundary vertices i and j has length at most ``d_cyc(i, j) - 1
    <= n // 2 - 1``, so the complex is isometric iff no pair with ``d_cyc >
    k`` is reached within k steps, for k = 1 .. n // 2 - 1.  ``triangles``
    is a ``(num, nf, 3)`` stack, or ``(nf, 3)`` rows for ``num`` = 1.
    Returns a ``(num,)`` bool buffer.
    """
    isometric = memoryview(bytearray(num)).cast("?")
    scratch = memoryview(bytearray(8 * (nv + 2 * n) * -(-nv // 64))).cast("Q")
    _kernels.library().isometric_rows(n, nv, triangles, num, nf, scratch, isometric)
    return isometric


def is_isometric_filling(t: Triangulation) -> bool:
    """True iff no boundary pair gets closer through the complex than along the cycle.

    For tiny complexes (under 256 vertices); :func:`ringfill.verify_filling`
    measures large ones.
    """
    if t.num_vertices > _MAX_TINY:
        raise ValueError(f"is_isometric_filling takes at most {_MAX_TINY} vertices, got {t.num_vertices}")
    nf = len(checked(t.triangles, INT32, (None, 3), "triangles"))
    if not nf:  # no edge, so no shortcut
        return True
    check_ids(t)
    return _isometric_rows(t.n, t.num_vertices, t.triangles, 1, nf)[0]


class OracleResult:
    """Outcome of the exhaustive minimum search."""

    def __init__(self, n: int, min_vertices: int | None, witness: Triangulation | None, enumerated: int) -> None:
        self.n = n
        self.min_vertices = min_vertices
        self.witness = witness
        self.enumerated = enumerated

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
            hit = _isometric_rows(n, n + k, chunk, *chunk.shape[:2]).tobytes().find(1)
            if hit >= 0:
                witness = next(_triangulations(n, n + k, chunk, hit))
                return OracleResult(n=n, min_vertices=n + k, witness=witness, enumerated=total + hit + 1)
            total += len(chunk)
    return OracleResult(n=n, min_vertices=None, witness=None, enumerated=total)
