"""Exhaustive ground truth for tiny boundaries.

Enumerates every combinatorially distinct triangulated disk with boundary
exactly the labeled cycle 0..n-1 and a bounded number of interior vertices,
then filters by the exact isometry test.  The boundary stays labeled (its
symmetries are not quotiented); only interior relabelings are identified.
Budgets are tiny by design: this module exists to ground-truth the verifier
and the small end of the construction, not to chase the asymptotics.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations

from .simplicial import Triangulation, canonical_triangle, skeleton_graph, validate_disk
from .verify import bfs_distances, cycle_dist

__all__ = [
    "EnumerationBudget",
    "EnumerationStats",
    "enumerate_fillings",
    "interior_canonical_code",
    "is_isometric_filling",
    "OracleResult",
    "min_isometric_vertices",
]

MAX_BOUNDARY = 7
MAX_INTERIOR = 4


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard limits keeping the search space enumerable.

    ``max_triangles`` defaults to the disk identity n + 2k - 2, which no
    complex within the interior budget can exceed; a smaller cap prunes the
    search and flags the result as truncated.
    """

    n: int
    max_interior: int = MAX_INTERIOR
    max_triangles: int | None = None

    def __post_init__(self) -> None:
        if not 3 <= self.n <= MAX_BOUNDARY:
            raise ValueError(f"boundary length must lie in 3..{MAX_BOUNDARY}, got {self.n}")
        if not 0 <= self.max_interior <= MAX_INTERIOR:
            raise ValueError(f"interior budget must lie in 0..{MAX_INTERIOR}, got {self.max_interior}")
        if self.max_triangles is None:
            object.__setattr__(self, "max_triangles", self.n + 2 * self.max_interior - 2)


@dataclass
class EnumerationStats:
    """Side-channel counters filled in while the generator runs."""

    emitted: int = 0
    truncated: bool = False
    duplicates: int = 0


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _grow(
    regions: tuple[tuple[int, ...], ...],
    triangles: tuple[tuple[int, int, int], ...],
    edges: frozenset[tuple[int, int]],
    interior_used: int,
    budget: EnumerationBudget,
    stats: EnumerationStats,
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Fill open regions depth-first, one triangle per step.

    Each step attaches the unique triangle of the final complex that sits on
    the first edge of the first open region, branching over its possible
    apexes: a fresh interior vertex, or another vertex of the same region.
    Chords that would duplicate an existing edge pair are rejected; they
    would pinch the disk.  The processing order is positional, so every
    abstract complex is produced along exactly one branch.
    """
    if not regions:
        yield triangles
        return
    # Every region of size k needs at least k - 2 more triangles.
    floor_remaining = sum(len(r) - 2 for r in regions)
    if len(triangles) + floor_remaining > budget.max_triangles:
        stats.truncated = True
        return
    region, rest = regions[0], regions[1:]
    k = len(region)
    r0, r1 = region[0], region[1]

    if interior_used < budget.max_interior:
        fresh = budget.n + interior_used
        yield from _grow(
            ((r0, fresh, r1) + region[2:],) + rest,
            triangles + (canonical_triangle(r0, r1, fresh),),
            edges | {_edge(r0, fresh), _edge(r1, fresh)},
            interior_used + 1,
            budget,
            stats,
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
            stats,
        )


def interior_canonical_code(
    triangles: tuple[tuple[int, int, int], ...], n: int, num_interior: int
) -> tuple[tuple[int, int, int], ...]:
    """Canonical form of a filling under relabelings of its interior vertices.

    Boundary ids 0..n-1 are fixed; the code is the lexicographic minimum of
    the sorted triangle list over all permutations of the interior ids.  With
    at most four interior vertices the 24 permutations are cheaper than any
    cleverness.
    """
    if num_interior <= 1:
        return tuple(sorted(triangles))
    interior = range(n, n + num_interior)
    best = None
    for perm in permutations(interior):
        relabel = {old: new for old, new in zip(interior, perm)}
        mapped = tuple(
            sorted(
                canonical_triangle(relabel.get(a, a), relabel.get(b, b), relabel.get(c, c))
                for a, b, c in triangles
            )
        )
        if best is None or mapped < best:
            best = mapped
    return best


def enumerate_fillings(
    budget: EnumerationBudget, stats: EnumerationStats | None = None
) -> Iterator[Triangulation]:
    """Every triangulated disk filling the labeled C_n within the budget.

    Outputs are pairwise non-isomorphic relative to the boundary and each one
    passes the disk validation; a validation failure here is a bug in the
    generator, so it raises instead of skipping.
    """
    if stats is None:
        stats = EnumerationStats()
    boundary = tuple(range(budget.n))
    boundary_edges = frozenset(_edge(i, (i + 1) % budget.n) for i in range(budget.n))
    seen: set[tuple[tuple[int, int, int], ...]] = set()
    for triangles in _grow((boundary,), (), boundary_edges, 0, budget, stats):
        used = {v for tri in triangles for v in tri}
        num_interior = len(used) - budget.n
        code = interior_canonical_code(triangles, budget.n, num_interior)
        if code in seen:
            stats.duplicates += 1
            continue
        seen.add(code)
        filling = Triangulation(budget.n, budget.n + num_interior, triangles)
        report = validate_disk(filling)
        if not report.ok:
            raise RuntimeError(
                f"enumerator produced an invalid complex: {report.failures[:3]}"
            )
        stats.emitted += 1
        yield filling


def is_isometric_filling(t: Triangulation) -> bool:
    """True iff no boundary pair gets closer through the complex than along the cycle."""
    adj = skeleton_graph(t)
    n = t.n
    for src in range(n):
        dist = bfs_distances(adj, src)
        for dst in range(src + 1, n):
            if dist[dst] < cycle_dist(src, dst, n):
                return False
    return True


@dataclass
class OracleResult:
    """Outcome of the exhaustive minimum search."""

    n: int
    budget: EnumerationBudget
    min_vertices: int | None
    witness: Triangulation | None
    enumerated: int
    truncated: bool

    @property
    def known(self) -> bool:
        return self.min_vertices is not None


def min_isometric_vertices(
    n: int, max_interior: int = MAX_INTERIOR, max_triangles: int | None = None
) -> OracleResult:
    """Exact minimum vertex count of an isometric filling of the labeled C_n.

    Searches interior budgets in increasing order so the first hit is
    minimal.  When nothing within the budget is isometric the minimum is
    reported as unknown (the budget may simply be too small), never as
    infinity.
    """
    budget = EnumerationBudget(n, max_interior, max_triangles)
    total = 0
    truncated = False
    for k in range(max_interior + 1):
        sub = EnumerationBudget(n, k, max_triangles)
        level_stats = EnumerationStats()
        for filling in enumerate_fillings(sub, level_stats):
            if filling.num_vertices != n + k:
                continue  # already found at a smaller budget
            total += 1
            if is_isometric_filling(filling):
                return OracleResult(
                    n=n,
                    budget=budget,
                    min_vertices=n + k,
                    witness=filling,
                    enumerated=total,
                    truncated=truncated or level_stats.truncated,
                )
        truncated = truncated or level_stats.truncated
    return OracleResult(
        n=n, budget=budget, min_vertices=None, witness=None, enumerated=total, truncated=truncated
    )
