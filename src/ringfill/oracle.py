"""Exhaustive ground truth for tiny boundaries.

Enumerates every triangulated disk with boundary exactly the labeled cycle
0..n-1 and a given number of interior vertices, then filters by the exact
isometry test.  The boundary stays labeled (its symmetries are not
quotiented); interior vertices are unlabeled, and the enumeration emits each
complex once by construction, with its interior ids fixed by the search
order.  The counts equal W. G. Brown's closed formula for triangulated disks
("Enumeration of triangulations of the disk", 1964), which the tests check.
Budgets are tiny by design: this module exists to ground-truth the verifier
and the small end of the construction, not to chase the asymptotics.
"""
from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .simplicial import Triangulation, validate_disk, validate_disk_batch

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
# Fillings checked per numpy call.  At 128 a stack is about 20 kB and the
# batched validation costs least per filling (8 us, against 12 us at 64 and
# 10 us at 256 on a 2-vCPU host); 256 also raised the peak RSS of the n = 7
# search by 0.35 MB.  At most 504, so a test can corrupt a full first stack
# of n = 6 with two interior vertices.
_CHUNK = 128
_MAX_DENSE = 255  # vertices the uint8 reachability products can count


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


class _Found(Exception):
    """Stops a search at the first isometric filling; args: its triangles, its 1-based position."""


def _grow(budget: EnumerationBudget, leaf: Callable[[list[int]], None]) -> None:
    """Hand every filling to ``leaf`` in depth-first order, as its flat list of triangle ids.

    Each step attaches the unique triangle of the final complex that sits on
    the first edge of the first open region, branching over its possible
    apexes: a fresh interior vertex, or another vertex of the same region.
    Chords that would duplicate an existing edge pair are rejected; they
    would pinch the disk.  Only complexes with exactly ``budget.interior``
    interior vertices reach ``leaf``.

    Labels are canonical: in a given complex, the triangle on the first edge
    of the first open region fixes the branch, and fresh ids are handed out
    in that order, so every complex (up to relabeling its interior) is
    produced along exactly one branch with one labeling.

    The state is mutable and each step is undone on the way back: ``edges``
    gains and loses the step's new edges, ``triangles`` its three ids (each
    triangle rotated so its smallest id comes first), and ``regions`` is a
    stack whose top is the first open region.  The list handed to ``leaf``
    changes after the call returns.
    """
    n, target = budget.n, budget.interior
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    triangles: list[int] = []
    regions = [tuple(range(n))]

    def grow(interior_used: int) -> None:
        if not regions:
            if interior_used == target:
                leaf(triangles)
            return
        region = regions.pop()
        r0, r1 = region[0], region[1]

        if interior_used < target:
            fresh = n + interior_used
            regions.append((r0, fresh) + region[1:])
            triangles.extend((r0, r1, fresh) if r0 < r1 else (r1, fresh, r0))
            spoke0, spoke1 = (r0, fresh), (r1, fresh)
            edges.add(spoke0)
            edges.add(spoke1)
            grow(interior_used + 1)
            edges.discard(spoke0)
            edges.discard(spoke1)
            del triangles[-3:]
            regions.pop()

        last = len(region) - 1
        for j in range(2, last + 1):
            apex = region[j]
            # The triangle (r0, r1, apex) leaves the polygons region[1 : j + 1]
            # when j > 2, cut off by the chord (r1, apex), and region[j:] + (r0,)
            # when j < last, cut off by (apex, r0); the left one is filled first.
            if j > 2:
                left = (r1, apex) if r1 < apex else (apex, r1)
                if left in edges:
                    continue
            if j < last:
                right = (r0, apex) if r0 < apex else (apex, r0)
                if right in edges:
                    continue
                edges.add(right)
                regions.append(region[j:] + (r0,))
            if j > 2:
                edges.add(left)
                regions.append(region[1 : j + 1])
            if r0 < r1:
                triangles.extend((r0, r1, apex) if r0 < apex else (apex, r0, r1))
            else:
                triangles.extend((r1, apex, r0) if r1 < apex else (apex, r0, r1))
            grow(interior_used)
            del triangles[-3:]
            if j > 2:
                edges.discard(left)
                regions.pop()
            if j < last:
                edges.discard(right)
                regions.pop()
        regions.append(region)

    grow(0)


def _invalid(n: int, nv: int, leaves: Iterable[np.ndarray]) -> RuntimeError:
    """The error for a stack holding a leaf that is not a disk, with the first one's failures."""
    for leaf in leaves:
        report = validate_disk(Triangulation(n, nv, leaf))
        if not report.ok:
            return RuntimeError(f"enumerator produced an invalid complex: {report.failures[:3]}")
    return RuntimeError("batched and per-complex disk validation disagree")


def _search(budget: EnumerationBudget, sink: Callable[[np.ndarray], None]) -> None:
    """Run the enumeration, handing its fillings to ``sink`` as validated ``(B, F, 3)`` int32 stacks.

    Every filling has ``n + interior`` vertices and ``F = n - 2 + 2*interior``
    triangles, so the leaves' rows go straight into one flat buffer, and every
    ``_CHUNK`` fillings become one stack, validated in one call; the stacks
    arrive in DFS order.  A filling failing the validation is a bug in the
    enumerator, so it raises, with :func:`validate_disk`'s failures for the
    first one.  A sink ends the search early by raising.
    """
    n, nv = budget.n, budget.n + budget.interior
    nf = n - 2 + 2 * budget.interior
    width = 3 * nf
    rows = array("i")

    def flush() -> None:
        nonlocal rows
        chunk = np.frombuffer(rows, dtype=np.int32).reshape(-1, nf, 3)
        rows = array("i")  # the stack keeps the filled buffer
        if not validate_disk_batch(n, nv, chunk).all():
            raise _invalid(n, nv, chunk)
        sink(chunk)

    def leaf(triangles: list[int]) -> None:
        if len(triangles) != width:
            # not a disk, by Euler's formula: report it as validate_disk sees it
            raise _invalid(n, nv, [np.reshape(triangles, (-1, 3))])
        rows.fromlist(triangles)
        if len(rows) == _CHUNK * width:
            flush()

    _grow(budget, leaf)
    if rows:
        flush()


def enumerate_fillings(
    budget: EnumerationBudget, stats: EnumerationStats | None = None
) -> Iterator[Triangulation]:
    """Every triangulated disk filling the labeled C_n with ``budget.interior`` interior vertices.

    Outputs are pairwise non-isomorphic relative to the boundary and each one
    passes the disk validation; a validation failure here is a bug in the
    enumerator, so it raises instead of skipping.  The search runs to its end
    before the first filling is yielded and keeps every filling's triangles,
    12 bytes a triangle (about 21 MB for n = 7 with 4 interior vertices).
    """
    if stats is None:
        stats = EnumerationStats()
    stacks: list[np.ndarray] = []
    _search(budget, stacks.append)
    nv = budget.n + budget.interior
    for chunk in stacks:
        for triangles in chunk:
            stats.emitted += 1
            yield Triangulation(budget.n, nv, triangles)


def _isometric_rows(n: int, nv: int, triangles: np.ndarray) -> np.ndarray:
    """Which complexes of a ``(B, F, 3)`` stack on ``nv`` vertices are isometric fillings of C_n.

    Works on dense ``(B, nv, nv)`` uint8 0/1 matrices: with R the adjacency
    plus the identity, ``reach`` after k products with R marks the pairs
    within distance k (a product entry counts at most ``nv`` vertices, so it
    fits uint8 while ``nv < 256``).  A shortcut between boundary vertices i
    and j has length at most ``d_cyc(i, j) - 1 <= n // 2 - 1``, so the
    complex is isometric iff no pair with ``d_cyc > k`` is reached within k
    steps, for k = 1 .. n // 2 - 1.  Memory grows as B * nv**2.
    """
    num = len(triangles)
    step = np.zeros((num, nv, nv), dtype=np.uint8)
    stack = np.arange(num)[:, None]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        u, v = triangles[:, :, i], triangles[:, :, j]
        step[stack, u, v] = 1
        step[stack, v, u] = 1
    step[:, np.arange(nv), np.arange(nv)] = 1
    ids = np.arange(n)
    gap = np.abs(ids[:, None] - ids[None, :])
    dcyc = np.minimum(gap, n - gap)
    reach = step
    isometric = np.ones(num, dtype=bool)
    for k in range(1, n // 2):
        if k > 1:
            reach = (reach @ step > 0).astype(np.uint8)
        isometric &= ~(reach[:, :n, :n].astype(bool) & (dcyc > k)).any(axis=(1, 2))
    return isometric


def is_isometric_filling(t: Triangulation) -> bool:
    """True iff no boundary pair gets closer through the complex than along the cycle.

    For tiny complexes (under 256 vertices); :func:`ringfill.verify_filling`
    measures large ones.
    """
    if t.num_vertices > _MAX_DENSE:
        raise ValueError(f"is_isometric_filling takes at most {_MAX_DENSE} vertices, got {t.num_vertices}")
    return bool(_isometric_rows(t.n, t.num_vertices, t.triangles[None])[0])


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

    def sink(chunk: np.ndarray) -> None:  # a stack with k interior vertices, k of the loop below
        nonlocal total
        hits = np.flatnonzero(_isometric_rows(n, n + k, chunk))
        if len(hits):
            raise _Found(chunk[hits[0]], total + int(hits[0]) + 1)
        total += len(chunk)

    for k in range(max_interior + 1):
        try:
            _search(EnumerationBudget(n, k), sink)
        except _Found as found:
            triangles, position = found.args
            witness = Triangulation(n, n + k, triangles)
            return OracleResult(n=n, min_vertices=n + k, witness=witness, enumerated=position)
    return OracleResult(n=n, min_vertices=None, witness=None, enumerated=total)
