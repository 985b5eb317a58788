from math import factorial

import pytest

from ringfill import (
    EnumerationBudget,
    cone_over_cycle,
    enumerate_fillings,
    is_isometric_filling,
    min_isometric_vertices,
    validate_disk,
)
from ringfill.oracle import EnumerationStats
from reference_impl import interior_canonical_code


def brown_count(n: int, k: int) -> int:
    """Triangulated disks with boundary the labeled C_n and k interior vertices.

    W. G. Brown, "Enumeration of triangulations of the disk" (1964), with
    m = n - 3.
    """
    m = n - 3
    num = 2 * factorial(2 * m + 3) * factorial(4 * k + 2 * m + 1)
    den = factorial(m + 2) * factorial(m) * factorial(k) * factorial(3 * k + 2 * m + 3)
    assert num % den == 0
    return num // den


def test_budget_limits_enforced():
    with pytest.raises(ValueError, match="boundary length"):
        EnumerationBudget(8)
    with pytest.raises(ValueError, match="boundary length"):
        EnumerationBudget(2)
    with pytest.raises(ValueError, match="interior budget"):
        EnumerationBudget(5, 5)


def test_triangle_is_the_only_filling_of_c3():
    fillings = list(enumerate_fillings(EnumerationBudget(3, 0)))
    assert len(fillings) == 1
    assert fillings[0].triangles.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("n,catalan", [(4, 2), (5, 5), (6, 14), (7, 42)])
def test_chord_only_counts_are_catalan(n, catalan):
    # With no interior vertices the fillings are exactly the triangulations
    # of a labeled convex polygon.
    assert sum(1 for _ in enumerate_fillings(EnumerationBudget(n, 0))) == catalan


def test_square_without_interior_is_never_isometric():
    fillings = list(enumerate_fillings(EnumerationBudget(4, 0)))
    assert len(fillings) == 2
    assert not any(is_isometric_filling(f) for f in fillings)


def test_wheel_appears_with_one_interior_vertex():
    fillings = list(enumerate_fillings(EnumerationBudget(4, 1)))
    wheel = sorted(cone_over_cycle(4).triangles.tolist())
    cones = [f for f in fillings if sorted(f.triangles.tolist()) == wheel]
    assert len(cones) == 1
    assert is_isometric_filling(cones[0])


def test_interior_vertex_counts_of_triangle_fillings():
    # Exact fillings of C_3 by interior count: hand-checked 1, 1, 3 and the
    # enumerator's own 13 at three interior vertices, kept as a regression.
    for k, count in ((0, 1), (1, 1), (2, 3), (3, 13)):
        fillings = list(enumerate_fillings(EnumerationBudget(3, k)))
        assert len(fillings) == count
        assert all(f.num_vertices == 3 + k for f in fillings)


def test_all_outputs_validate_and_codes_are_unique():
    # The enumeration has no isomorph filter: each complex must come out once
    # by construction, so the counts equal Brown's formula and no two outputs
    # differ only in their interior labels.
    pairs = [(n, k) for n in range(3, 7) for k in range(4)] + [(7, k) for k in range(3)]
    for n, k in pairs:
        stats = EnumerationStats()
        seen = set()
        for f in enumerate_fillings(EnumerationBudget(n, k), stats):
            assert f.num_vertices == n + k
            assert validate_disk(f).ok, (n, k)
            code = interior_canonical_code(tuple(map(tuple, f.triangles.tolist())), n, k)
            assert code not in seen, (n, k)
            seen.add(code)
        assert len(seen) == stats.emitted == brown_count(n, k), (n, k)
        assert stats.duplicates == 0


def test_brown_formula_known_values():
    # Catalan numbers at k = 0, and the counts of C_3 fillings (OEIS A000260).
    assert [brown_count(n, 0) for n in range(3, 8)] == [1, 2, 5, 14, 42]
    assert [brown_count(3, k) for k in range(5)] == [1, 1, 3, 13, 68]


def test_canonical_code_identifies_relabelings():
    # same complex of C_3 with its two interior labels (3 and 4) swapped
    tris_a = ((0, 1, 3), (1, 2, 3), (2, 0, 4), (2, 4, 3), (0, 3, 4))
    tris_b = ((0, 1, 4), (1, 2, 4), (2, 0, 3), (2, 3, 4), (0, 4, 3))
    code_a = interior_canonical_code(tris_a, 3, 2)
    code_b = interior_canonical_code(tris_b, 3, 2)
    assert code_a == code_b


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 5), (5, 6)])
def test_minimum_isometric_vertex_counts(n, expected):
    result = min_isometric_vertices(n)
    assert result.min_vertices == expected
    assert result.witness is not None
    assert result.witness.num_vertices == expected
    assert validate_disk(result.witness).ok
    assert is_isometric_filling(result.witness)


def test_minimum_is_monotone_in_budget():
    previous = None
    for budget in (1, 2, 3):
        result = min_isometric_vertices(4, budget)
        assert result.min_vertices == 5
        if previous is not None:
            assert result.min_vertices <= previous
        previous = result.min_vertices


def test_unknown_reported_when_budget_too_small():
    result = min_isometric_vertices(5, 0)
    assert result.min_vertices is None
    assert result.witness is None
    assert not result.known


@pytest.mark.parametrize("n,isometric", [(3, True), (4, True), (5, True), (6, False)])
def test_cone_isometry_threshold(n, isometric):
    assert is_isometric_filling(cone_over_cycle(n)) is isometric
