from collections import Counter
from fractions import Fraction

import pytest

from ringfill import DiskAssembler, circ_dist, staircase_indices


def triangles(asm):
    """The triangles assembled so far, as a list of [a, b, c] rows."""
    return asm.build().triangles.tolist()


def cycle_of(asm, v):
    """The ledger record of the cycle holding vertex v."""
    return next(rec for rec in asm.layers if rec.first_vertex <= v < rec.first_vertex + rec.length)


def theta(asm, v):
    """Exact position of vertex v, read from the ledger."""
    rec = cycle_of(asm, v)
    return rec.theta(v - rec.first_vertex, asm.n)


def slanted_edges(asm, outer, inner):
    """All (outer vertex, inner vertex) edges the assembler emitted between two layers."""
    lo = set(range(outer.first_vertex, outer.first_vertex + outer.length))
    hi = set(range(inner.first_vertex, inner.first_vertex + inner.length))
    out = set()
    for a, b, c in triangles(asm):
        for u, v in ((a, b), (b, c), (c, a)):
            if u in lo and v in hi:
                out.add((u, v))
            elif v in lo and u in hi:
                out.add((v, u))
    return out


def test_circ_dist_basics():
    assert circ_dist(1, 7, 8) == 2
    assert circ_dist(5, 5, 9) == 0
    assert circ_dist(0, Fraction(9, 2), 9) == Fraction(9, 2)  # antipodal is the maximum
    assert isinstance(circ_dist(1, 2, 5), Fraction)


def test_staircase_indices():
    assert staircase_indices(5, 3) == [0, 0, 1, 1, 2, 3]
    ks = staircase_indices(9, 4)
    assert ks[0] == 0 and ks[-1] == 4
    assert all(ks[i + 1] - ks[i] in (0, 1) for i in range(9))


def test_equal_annulus_counts_and_phases():
    asm = DiskAssembler(6)
    inner = asm.add_equal_annulus()
    assert inner.length == 6
    assert asm.num_vertices == 12
    assert len(triangles(asm)) == 12
    assert inner.phase == Fraction(1, 2)  # half of one outer step 6/6


def test_equal_annulus_half_step_coordinates():
    asm = DiskAssembler(4)
    inner = asm.add_equal_annulus()
    thetas = {theta(asm, inner.first_vertex + i) for i in range(4)}
    assert thetas == {Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)}


def test_equal_annulus_edge_census():
    # Derived by enumerating the 12 emitted triangles: 6 outer + 6 inner
    # cycle edges with one incident triangle each, 12 slanted with two.
    asm = DiskAssembler(6)
    asm.add_equal_annulus()
    inc = Counter()
    for a, b, c in triangles(asm):
        for u, v in ((a, b), (b, c), (c, a)):
            inc[(min(u, v), max(u, v))] += 1
    assert len(inc) == 24
    assert Counter(inc.values()) == {1: 12, 2: 12}


def test_equal_annulus_displacement_is_exactly_half_step():
    asm = DiskAssembler(10)
    outer = asm.innermost
    inner = asm.add_equal_annulus()
    for u, v in slanted_edges(asm, outer, inner):
        d = circ_dist(theta(asm, u), theta(asm, v), 10)
        assert d == Fraction(10, 2 * 10)


def test_shrinking_annulus_counts():
    asm = DiskAssembler(5)
    inner = asm.add_shrinking_annulus(3)
    assert inner.length == 3
    assert len(triangles(asm)) == 5 + 3
    asm = DiskAssembler(6)
    asm.add_shrinking_annulus(3)
    assert len(triangles(asm)) == 9


def test_shrinking_annulus_phase_and_drift():
    n = 7
    asm = DiskAssembler(n)
    outer = asm.innermost
    inner = asm.add_shrinking_annulus(4)
    assert inner.phase == outer.phase  # same phase, no half step
    bound = Fraction(n, 4)
    edges = slanted_edges(asm, outer, inner)
    assert edges, "shrinking annulus must emit slanted edges"
    for u, v in edges:
        assert circ_dist(theta(asm, u), theta(asm, v), n) <= bound


def test_shrinking_annulus_inner_and_outer_edges_once():
    asm = DiskAssembler(8)
    outer = asm.innermost
    inner = asm.add_shrinking_annulus(5)
    inc = Counter()
    for a, b, c in triangles(asm):
        for u, v in ((a, b), (b, c), (c, a)):
            inc[(min(u, v), max(u, v))] += 1
    for i in range(outer.length):
        e = tuple(sorted((outer.vertex(i), outer.vertex(i + 1))))
        assert inc[e] == 1
    for j in range(inner.length):
        e = tuple(sorted((inner.vertex(j), inner.vertex(j + 1))))
        assert inc[e] == 1
    # slanted edges are interior to the annulus
    for e, k in inc.items():
        layers = {cycle_of(asm, e[0]).index, cycle_of(asm, e[1]).index}
        if len(layers) == 2:
            assert k == 2, f"slanted edge {e} has incidence {k}"


def test_degenerate_shrink_matches_equal_triangle_count():
    # A shrink to the same length runs the staircase with every step
    # advancing: same 2m triangles as an equal annulus, but no phase shift.
    m = 6
    shrunk = DiskAssembler(m)
    shrunk.add_shrinking_annulus(m)
    equal = DiskAssembler(m)
    equal.add_equal_annulus()
    assert len(triangles(shrunk)) == len(triangles(equal)) == 2 * m
    assert staircase_indices(m, m) == list(range(m + 1))
    assert shrunk.layers[1].phase == shrunk.layers[0].phase
    assert equal.layers[1].phase == equal.layers[0].phase + Fraction(m, 2 * m)
    bound = Fraction(m, m)
    outer, inner = shrunk.layers
    for u, v in slanted_edges(shrunk, outer, inner):
        assert circ_dist(theta(shrunk, u), theta(shrunk, v), m) <= bound


def test_annulus_argument_errors():
    with pytest.raises(ValueError, match=">= 3"):
        DiskAssembler(2)
    asm = DiskAssembler(5)
    with pytest.raises(ValueError, match="3 <= target <= 5"):
        asm.add_shrinking_annulus(6)
    with pytest.raises(ValueError, match="3 <= target <= 5"):
        asm.add_shrinking_annulus(2)
    asm.add_cone()
    with pytest.raises(ValueError, match="closed"):
        asm.add_equal_annulus()
