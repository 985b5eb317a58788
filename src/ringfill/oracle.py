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

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .simplicial import Triangulation, canonical_triangle, validate_disk, validate_disk_batch

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
# Fillings checked per numpy call.  Small, so a stack stays a few tens of
# kilobytes; larger stacks save little time and cost memory.
_CHUNK = 64
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
    """Side-channel counters filled in while the generator runs.

    ``duplicates`` is always 0, since every complex is emitted once; it stays
    for callers that report it.
    """

    emitted: int = 0
    duplicates: int = 0


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _grow(
    regions: tuple[tuple[int, ...], ...],
    triangles: tuple[tuple[int, int, int], ...],
    edges: frozenset[tuple[int, int]],
    interior_used: int,
    budget: EnumerationBudget,
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Fill open regions depth-first, one triangle per step.

    Each step attaches the unique triangle of the final complex that sits on
    the first edge of the first open region, branching over its possible
    apexes: a fresh interior vertex, or another vertex of the same region.
    Chords that would duplicate an existing edge pair are rejected; they
    would pinch the disk.  Only complexes with exactly ``budget.interior``
    interior vertices are yielded.

    Labels are canonical: in a given complex, the triangle on the first edge
    of the first open region fixes the branch, and fresh ids are handed out
    in that order, so every complex (up to relabeling its interior) is
    produced along exactly one branch with one labeling.
    """
    if not regions:
        if interior_used == budget.interior:
            yield triangles
        return
    region, rest = regions[0], regions[1:]
    k = len(region)
    r0, r1 = region[0], region[1]

    if interior_used < budget.interior:
        fresh = budget.n + interior_used
        yield from _grow(
            ((r0, fresh, r1) + region[2:],) + rest,
            triangles + (canonical_triangle(r0, r1, fresh),),
            edges | {_edge(r0, fresh), _edge(r1, fresh)},
            interior_used + 1,
            budget,
        )

    for j in range(2, k):
        apex = region[j]
        new_edges = []
        if j > 2:
            chord = _edge(r1, apex)
            if chord in edges:
                continue
            new_edges.append(chord)
        if j < k - 1:
            chord = _edge(apex, r0)
            if chord in edges:
                continue
            new_edges.append(chord)
        left = region[1 : j + 1]
        right = region[j:] + (region[0],)
        subregions = tuple(r for r in (left, right) if len(r) > 2)
        yield from _grow(
            subregions + rest,
            triangles + (canonical_triangle(r0, r1, apex),),
            edges | frozenset(new_edges),
            interior_used,
            budget,
        )


def _chunks(budget: EnumerationBudget) -> Iterator[np.ndarray]:
    """The enumeration's fillings in DFS order, as validated ``(B, F, 3)`` int32 stacks.

    Every filling has ``n + interior`` vertices and ``F = n - 2 + 2*interior``
    triangles, so up to ``_CHUNK`` of them stack into one array, validated in
    one call.  A filling failing the validation is a bug in the generator,
    so it raises, with :func:`validate_disk`'s failures for the first one.
    """
    n, nv = budget.n, budget.n + budget.interior
    nf = n - 2 + 2 * budget.interior
    boundary_edges = frozenset(_edge(i, (i + 1) % n) for i in range(n))
    leaves = _grow((tuple(range(n)),), (), boundary_edges, 0, budget)
    while rows := list(islice(leaves, _CHUNK)):
        if all(len(leaf) == nf for leaf in rows):
            chunk = np.array(rows, dtype=np.int32)
            if validate_disk_batch(n, nv, chunk).all():
                yield chunk
                continue
        # Some leaf is not a disk (one of another length cannot be, by
        # Euler's formula): report the first, as validate_disk sees it.
        for leaf in rows:
            report = validate_disk(Triangulation(n, nv, leaf))
            if not report.ok:
                raise RuntimeError(f"enumerator produced an invalid complex: {report.failures[:3]}")
        raise RuntimeError("batched and per-complex disk validation disagree")


def enumerate_fillings(
    budget: EnumerationBudget, stats: EnumerationStats | None = None
) -> Iterator[Triangulation]:
    """Every triangulated disk filling the labeled C_n with ``budget.interior`` interior vertices.

    Outputs are pairwise non-isomorphic relative to the boundary and each one
    passes the disk validation; a validation failure here is a bug in the
    generator, so it raises instead of skipping.
    """
    if stats is None:
        stats = EnumerationStats()
    nv = budget.n + budget.interior
    for chunk in _chunks(budget):
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
    for k in range(max_interior + 1):
        for chunk in _chunks(EnumerationBudget(n, k)):
            hits = np.flatnonzero(_isometric_rows(n, n + k, chunk))
            if len(hits):
                witness = Triangulation(n, n + k, chunk[hits[0]])
                return OracleResult(n=n, min_vertices=n + k, witness=witness, enumerated=total + hits[0] + 1)
            total += len(chunk)
    return OracleResult(n=n, min_vertices=None, witness=None, enumerated=total)
