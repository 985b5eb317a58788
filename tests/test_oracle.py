import re
from math import factorial

import numpy as np
import pytest

from ringfill import (
    EnumerationBudget,
    Triangulation,
    cone_over_cycle,
    enumerate_fillings,
    is_isometric_filling,
    min_isometric_vertices,
    validate_disk,
)
from ringfill import oracle
from ringfill.oracle import EnumerationStats, validate_disk_batch
from reference_impl import interior_canonical_code, reference_grow, reference_is_isometric


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


PAIRS = [(n, k) for n in range(3, 7) for k in range(4)] + [(7, k) for k in range(3)]


def _stacks(budget):
    """The validated stacks the oracle's search hands on, in order, as numpy arrays."""
    return [np.asarray(chunk) for chunk in oracle._stacks(budget)]


def _reference_stack(n, k):
    """The recursive reference generator's fillings of (n, k) as one ``(B, F, 3)`` int32 array."""
    boundary = frozenset((i, i + 1) if i + 1 < n else (0, i) for i in range(n))
    return np.array(list(reference_grow((tuple(range(n)),), (), boundary, 0, EnumerationBudget(n, k))), dtype=np.int32)


@pytest.mark.parametrize("n,k", PAIRS + [(7, 3)])
def test_stacks_follow_the_reference_order(n, k):
    # The compiled enumerator must emit the recursive generator's fillings
    # in the same order, so candidate counts and witnesses stay put.
    stacks = _stacks(EnumerationBudget(n, k))
    assert all(chunk.dtype == np.int32 and len(chunk) <= oracle._CHUNK for chunk in stacks)
    assert all(len(chunk) == oracle._CHUNK for chunk in stacks[:-1])
    assert np.array_equal(np.concatenate(stacks), _reference_stack(n, k))


@pytest.mark.parametrize("cap", [1, 7])
@pytest.mark.parametrize("n,k", PAIRS + [(7, 3)])
def test_search_resumes_across_stack_edges(n, k, cap):
    # With stacks of 1 or 7 the compiled search stops and resumes at many
    # points of the DFS; the fillings must not change.
    stacks = list(oracle._fillings(EnumerationBudget(n, k), cap))
    assert all(len(chunk) == cap for chunk in stacks[:-1]) and 1 <= len(stacks[-1]) <= cap
    assert np.array_equal(np.concatenate(stacks), _reference_stack(n, k))


def test_all_outputs_validate_and_codes_are_unique():
    # The enumeration has no isomorph filter: each complex must come out once
    # by construction, so the counts equal Brown's formula and no two outputs
    # differ only in their interior labels.
    for n, k in PAIRS:
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


def test_batched_verdicts_match_per_complex_checks():
    # The oracle validates and tests isometry a stack of fillings at a time;
    # each verdict must be the one the per-complex check gives.
    for n, k in PAIRS:
        for chunk in _stacks(EnumerationBudget(n, k)):
            fillings = [Triangulation(n, n + k, tri) for tri in chunk]
            valid = [validate_disk(f).ok for f in fillings]
            assert validate_disk_batch(n, n + k, chunk).tolist() == valid, (n, k)
            isometric = [reference_is_isometric(f) for f in fillings]
            assert oracle._isometric_rows(n, n + k, chunk).tolist() == isometric, (n, k)


def _corrupt(tri, kind):
    """One triangle of a valid filling broken in the named way."""
    tri = tri.copy()
    a, b, c = tri[0]
    nv = int(tri.max()) + 1
    if kind == "dropped":  # the first triangle gives way to a second copy of another
        tri[0] = tri[1]
    elif kind == "flipped":  # one corner moved to another vertex of the complex
        tri[0, 2] = next(v for v in range(nv) if v not in (a, b, c))
    elif kind == "degenerate":
        tri[0, 2] = a
    elif kind == "out of range":
        tri[0, 2] = nv
    return tri


@pytest.mark.parametrize("kind", ["dropped", "flipped", "degenerate", "out of range"])
def test_batch_flags_exactly_the_corrupted_complex(kind):
    n, k = 6, 2
    chunk = _stacks(EnumerationBudget(n, k))[0]
    assert len(chunk) == oracle._CHUNK  # a full stack: (6, 2) has 504 fillings
    for i in (0, 17, len(chunk) - 1):
        broken = chunk.copy()
        broken[i] = _corrupt(chunk[i], kind)
        verdicts = validate_disk_batch(n, n + k, broken)
        assert [b for b, ok in enumerate(verdicts) if not ok] == [i], (kind, i)
        assert not validate_disk(Triangulation(n, n + k, broken[i])).ok


def test_batch_rejects_malformed_stacks():
    with pytest.raises(ValueError, match=r"\(B, F, 3\) array"):
        validate_disk_batch(3, 3, np.zeros((2, 3), dtype=np.int32))
    with pytest.raises(ValueError, match=r"\(B, F, 3\) array"):
        validate_disk_batch(3, 3, np.zeros((0, 1, 3), dtype=np.int32))
    with pytest.raises(ValueError, match="must lie in"):
        validate_disk_batch(3, 3, np.asarray([[(0, 1, -2)]], dtype=np.int32))


def _leaves(*leaves):
    """A stand-in for the compiled search that hands the given leaves on, one stack each, whatever it is asked."""

    def fillings(budget, cap=oracle._CHUNK):
        for triangles in leaves:
            yield np.array([triangles], dtype=np.int32)

    return fillings


@pytest.mark.parametrize(
    "bad",
    [
        ((0, 1, 2), (0, 1, 3)),  # two triangles on the cycle edge (0, 1)
        ((0, 1, 2),),  # too few triangles: the search hands it on as a stack of its own
    ],
)
def test_invalid_leaf_raises_with_its_failures(monkeypatch, bad):
    good = ((0, 1, 2), (0, 2, 3))
    monkeypatch.setattr(oracle, "_fillings", _leaves(good, good, bad, good))
    failures = validate_disk(Triangulation(4, 4, bad)).failures
    message = re.escape(f"enumerator produced an invalid complex: {failures[:3]}")
    with pytest.raises(RuntimeError, match=message):
        list(enumerate_fillings(EnumerationBudget(4, 0)))
    with pytest.raises(RuntimeError, match=message):
        min_isometric_vertices(4, 0)


def test_a_leaf_the_kernel_refuses_is_reported(monkeypatch):
    # The compiled search returns -1 - T for a leaf of T triangles, T != F,
    # left in the first T rows of the path; it reaches the search as a stack
    # of its own.
    class Library:
        def grow_state_size(self, n, interior):
            return 1

        def grow_fillings(self, n, interior, state, path, out, cap):
            np.asarray(path)[0] = (0, 1, 2)
            return -2

    monkeypatch.setattr(oracle, "_library", Library)
    failures = validate_disk(Triangulation(4, 4, [(0, 1, 2)])).failures
    message = re.escape(f"enumerator produced an invalid complex: {failures[:3]}")
    with pytest.raises(RuntimeError, match=message):
        min_isometric_vertices(4, 0)


def test_search_stops_at_the_first_isometric_stack(monkeypatch):
    # n = 7 finds its witness at candidate 38,154 of the 18,852 + 115,500
    # fillings within 4 interior vertices; the search must stop within the
    # witness's stack instead of validating the rest.
    validated = []
    verdicts = oracle.validate_disk_batch

    def counting(n, nv, chunk):
        validated.append(len(chunk))
        return verdicts(n, nv, chunk)

    monkeypatch.setattr(oracle, "validate_disk_batch", counting)
    result = min_isometric_vertices(7)
    assert result.enumerated == 38154
    assert 38154 <= sum(validated) <= 38154 + oracle._CHUNK


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


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 5), (5, 6), (6, 9), (7, 11)])
def test_minimum_isometric_vertex_counts(n, expected):
    # fillings examined up to and including the witness, in DFS order
    candidates = {3: 1, 4: 4, 5: 11, 6: 1102, 7: 38154}
    result = min_isometric_vertices(n)
    assert result.min_vertices == expected
    assert result.enumerated == candidates[n]
    assert type(result.enumerated) is int  # a plain int, which json.dumps accepts
    assert result.witness is not None
    assert result.witness.num_vertices == expected
    assert validate_disk(result.witness).ok
    assert is_isometric_filling(result.witness)
    assert reference_is_isometric(result.witness)


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


def test_isometry_test_refuses_large_complexes():
    with pytest.raises(ValueError, match="at most 255 vertices, got 256"):
        is_isometric_filling(cone_over_cycle(255))
