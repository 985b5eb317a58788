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
from ringfill import _kernels, oracle
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
            assert oracle._isometric_rows(n, n + k, chunk, *chunk.shape[:2]).tolist() == isometric, (n, k)


def _one_corruption_each(stack, nv, rng):
    """A copy of a ``(B, F, 3)`` stack with one row of each complex broken.

    Each complex gets one of: a corner renamed to an id in ``0..nv`` (``nv``
    is out of range), its row reversed, or its row replaced by another of
    its rows.  Some of these leave a disk (a corner renamed to itself, a row
    copied onto itself).
    """
    broken = stack.copy()
    num, nf = stack.shape[:2]
    b = np.arange(num)
    f, g, j, kind = rng.integers(nf, size=num), rng.integers(nf, size=num), rng.integers(3, size=num), b % 3
    rename, flip, copy = (kind == 0), (kind == 1), (kind == 2)
    broken[b[rename], f[rename], j[rename]] = rng.integers(nv + 1, size=rename.sum())
    broken[b[flip], f[flip]] = stack[b[flip], f[flip]][:, ::-1]
    broken[b[copy], f[copy]] = stack[b[copy], g[copy]]
    return broken


@pytest.mark.parametrize("n", range(3, 8))
def test_every_filling_and_a_corruption_of_each_get_validate_disks_verdict(n):
    # All 49,082 fillings of n = 3..7 within the search's budgets (n = 7 to
    # three interior vertices), straight from the search and each once more
    # with one row broken, against validate_disk complex by complex.
    rng = np.random.default_rng(n)
    invalid = 0
    for k in range(oracle.MAX_INTERIOR + (n < 7)):
        nv = n + k
        for chunk in oracle._fillings(EnumerationBudget(n, k)):
            for stack in (np.asarray(chunk), _one_corruption_each(np.asarray(chunk), nv, rng)):
                want = [validate_disk(Triangulation(n, nv, rows)).ok for rows in stack]
                assert validate_disk_batch(n, nv, stack).tolist() == want, (n, k)
                invalid += want.count(False)
    assert invalid > 0


def _refuse(*args):
    raise AssertionError("this route was not to be taken")


@pytest.mark.parametrize("m", [63, 64])
def test_cones_either_side_of_the_bitsets_get_validate_disks_verdict(monkeypatch, m):
    # The wheel over C_63 has 64 vertices, the most the bitset kernel takes;
    # the wheel over C_64 has 65 and goes through validate_disk.  Each is
    # checked plain and with one row broken in each of three ways.
    from ringfill import simplicial

    wheel = np.asarray(cone_over_cycle(m).triangles)
    stack = np.stack([wheel] * 4)
    stack[1, 5, 2] = stack[1, 5, 1]  # a degenerate row
    stack[2, 7] = stack[2, 9]  # a repeated row
    stack[3, 11, 0] = m + 1  # an id past the last vertex
    want = [validate_disk(Triangulation(m, m + 1, rows)).ok for rows in stack]
    assert want == [True, False, False, False]
    if m == 63:
        monkeypatch.setattr(simplicial, "validate_disk", _refuse)
    else:
        monkeypatch.setattr(_kernels.library(), "disk_verdicts", _refuse)
    assert validate_disk_batch(m, m + 1, stack).tolist() == want


_TORUS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
_TETRAHEDRON = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
# the 6-vertex projective plane with its triangle (0, 1, 2) split at a new vertex 6, whose link is a triangle
_RP2_SPLIT = [(0, 1, 6), (1, 2, 6), (2, 0, 6), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (1, 2, 4), (2, 3, 5),
              (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def _placed(faces, ids):
    """``faces`` with vertex i renamed ``ids[i]``."""
    return [tuple(ids[v] for v in face) for face in faces]


# Complexes that fail validate_disk on one count alone, so that a single
# check of the bitset kernel stands between each of them and a True verdict.
_ONE_FAILURE = {
    # the triangle (0, 1, 2), a tetrahedron surface and the 7-vertex torus, wedged at vertex 2
    "wedge": (3, 12, [(0, 1, 2), *_placed(_TETRAHEDRON, [2, 3, 4, 5]), *_placed(_TORUS, [2, 6, 7, 8, 9, 10, 11])],
              ["link of vertex 2 is disconnected, expected a path"]),
    # The smallest split links, each a triangle beside a path or a triangle:
    # the projective plane wedged at vertex 6 to the triangle (0, 1, 2), and
    # to the apex of the wheel over C_3.
    "split link of five": (3, 9, [(0, 1, 2), *_placed(_RP2_SPLIT, [3, 4, 5, 6, 7, 8, 2])],
                           ["link of vertex 2 is disconnected, expected a path"]),
    "split link of six": (3, 10, [*cone_over_cycle(3).triangles.tolist(), *_placed(_RP2_SPLIT, [4, 5, 6, 7, 8, 9, 3])],
                          ["link of vertex 3 is disconnected, expected a cycle"]),
    # A sphere of two triangles on one vertex set, hung at the vertex 2 of
    # the projective plane less a triangle (a Moebius band) with an ear
    # (1, 2, 3) on its boundary: the link of vertex 2 is a path of two
    # vertices beside a cycle of two, too small for a walk, so only the
    # vertex set seen twice tells it from a disk.
    "hung pillow": (4, 9, [(0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1), (1, 3, 5), (3, 4, 6), (4, 5, 1), (5, 6, 3),
                           (6, 1, 4), (1, 2, 3), (2, 7, 8), (2, 8, 7)],
                    ["link of vertex 2 is a multigraph (repeated link edge), expected a path",
                     "link of vertex 7 is a multigraph (repeated link edge), expected a cycle",
                     "link of vertex 8 is a multigraph (repeated link edge), expected a cycle"]),
    # the wheel over C_5 beside a disjoint 7-vertex torus
    "disjoint torus": (5, 13, [*cone_over_cycle(5).triangles.tolist(), *_placed(_TORUS, range(6, 13))],
                       ["complex is disconnected: 2 components"]),
    # the 6-vertex projective plane less the triangle (0, 1, 2): a Moebius band bounded by C_3
    "moebius band": (3, 6, [(0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2),
                            (5, 1, 3)], ["Euler formula violated: V - E + F = 6 - 15 + 9 = 0, expected 1"]),
    # A disk bounded by C_6 with interior vertices 6..9 on vertex 0's link,
    # the torus glued on its edge (6, 7) and the tetrahedron on (8, 9).  In
    # this row order each of 6..9 has its link, two cycles through the
    # other end of its glued edge, walked whole from vertex 0 if the third
    # and fourth triangles on an edge were let through.
    "glued on edges": (6, 17, [*_placed(_TORUS, [6, 7, 10, 11, 12, 13, 14]), *_placed(_TETRAHEDRON, [8, 9, 15, 16]),
                               (0, 1, 6), (0, 7, 8), (0, 9, 5), (1, 6, 2), (6, 7, 2), (7, 3, 2), (7, 8, 3), (8, 4, 3),
                               (8, 9, 4), (9, 5, 4), (0, 6, 7), (0, 8, 9)],
                       ["edge (6, 7) lies in 4 triangles (expected 1 or 2)",
                        "edge (8, 9) lies in 4 triangles (expected 1 or 2)"]),
}


@pytest.mark.parametrize("name", list(_ONE_FAILURE))
def test_complexes_failing_one_check_get_validate_disks_verdict(name):
    # Each complex comes in its own row order and seven others, since the
    # link walk follows whichever apexes the rows record first.
    n, nv, rows, failures = _ONE_FAILURE[name]
    assert validate_disk(Triangulation(n, nv, rows)).failures == failures
    rows = np.asarray(Triangulation(n, nv, rows).triangles)
    rng = np.random.default_rng(0)
    stack = np.stack([rows] + [rows[rng.permutation(len(rows))] for _ in range(7)])
    assert validate_disk_batch(n, nv, stack).tolist() == [False] * 8


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
    def grow_fillings(n, interior, state, path, out, cap):
        np.asarray(path)[0] = (0, 1, 2)
        return -2

    monkeypatch.setattr(_kernels.library(), "grow_state_size", lambda n, interior: 1)
    monkeypatch.setattr(_kernels.library(), "grow_fillings", grow_fillings)
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
