from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from reference_impl import circ_dist, phases, theta

from ringfill import annulus_triangles, cone_triangles, layer_ledger, staircase_indices


def ledger_of(n, *annuli):
    return layer_ledger(n, annuli)


def triangles(ledger):
    """Every annulus's triangles between consecutive records, as a list of [a, b, c] rows."""
    blocks = [annulus_triangles(outer, inner) for outer, inner in zip(ledger, ledger[1:])]
    return np.concatenate(blocks).tolist()


def num_vertices(ledger):
    """Vertex count of the cycles, before the cone's apex."""
    return ledger[-1].first_vertex + ledger[-1].length


def cycle_of(ledger, v):
    """The ledger record of the cycle holding vertex v."""
    return next(rec for rec in ledger if rec.first_vertex <= v < rec.first_vertex + rec.length)


def position(ledger, v, n):
    """Exact position of vertex v, read from the ledger."""
    rec = cycle_of(ledger, v)
    return theta(phases(ledger)[rec.index], rec, v - rec.first_vertex, n)


def slanted_edges(ledger, outer, inner):
    """All (outer vertex, inner vertex) edges of the annulus between two records."""
    lo = set(range(outer.first_vertex, outer.first_vertex + outer.length))
    hi = set(range(inner.first_vertex, inner.first_vertex + inner.length))
    out = set()
    for a, b, c in annulus_triangles(outer, inner).tolist():
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
    ledger = ledger_of(6, ("equal", 6))
    inner = ledger[1]
    assert inner.length == 6
    assert num_vertices(ledger) == 12
    assert len(triangles(ledger)) == 12
    assert phases(ledger) == [0, Fraction(1, 2)]  # half of one outer step 6/6
    assert (ledger[0].annulus_kind, ledger[0].drift_bound) == ("equal", Fraction(1, 2))
    assert (inner.annulus_kind, inner.drift_bound) == (None, None)


def test_equal_annulus_half_step_coordinates():
    ledger = ledger_of(4, ("equal", 4))
    inner = ledger[1]
    thetas = {position(ledger, inner.first_vertex + i, 4) for i in range(4)}
    assert thetas == {Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)}


def test_equal_annulus_edge_census():
    # Derived by enumerating the 12 emitted triangles: 6 outer + 6 inner
    # cycle edges with one incident triangle each, 12 slanted with two.
    ledger = ledger_of(6, ("equal", 6))
    inc = Counter()
    for a, b, c in triangles(ledger):
        for u, v in ((a, b), (b, c), (c, a)):
            inc[(min(u, v), max(u, v))] += 1
    assert len(inc) == 24
    assert Counter(inc.values()) == {1: 12, 2: 12}


def test_equal_annulus_displacement_is_exactly_half_step():
    ledger = ledger_of(10, ("equal", 10))
    outer, inner = ledger
    for u, v in slanted_edges(ledger, outer, inner):
        d = circ_dist(position(ledger, u, 10), position(ledger, v, 10), 10)
        assert d == Fraction(10, 2 * 10)


def test_shrinking_annulus_counts():
    ledger = ledger_of(5, ("shrink", 3))
    assert ledger[1].length == 3
    assert len(triangles(ledger)) == 5 + 3
    assert len(triangles(ledger_of(6, ("shrink", 3)))) == 9


def test_shrinking_annulus_phase_and_drift():
    n = 7
    ledger = ledger_of(n, ("shrink", 4))
    outer, inner = ledger
    assert phases(ledger) == [0, 0]  # same phase, no half step
    bound = Fraction(n, 4)
    assert (outer.annulus_kind, outer.drift_bound) == ("shrink", bound)
    edges = slanted_edges(ledger, outer, inner)
    assert edges, "shrinking annulus must emit slanted edges"
    for u, v in edges:
        assert circ_dist(position(ledger, u, n), position(ledger, v, n), n) <= bound


def test_shrinking_annulus_inner_and_outer_edges_once():
    ledger = ledger_of(8, ("shrink", 5))
    outer, inner = ledger
    inc = Counter()
    for a, b, c in triangles(ledger):
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
        layers = {cycle_of(ledger, e[0]).index, cycle_of(ledger, e[1]).index}
        if len(layers) == 2:
            assert k == 2, f"slanted edge {e} has incidence {k}"


def test_degenerate_shrink_matches_equal_triangle_count():
    # A shrink to the same length runs the staircase with every step
    # advancing: same 2m triangles as an equal annulus, but no phase shift.
    m = 6
    shrunk = ledger_of(m, ("shrink", m))
    equal = ledger_of(m, ("equal", m))
    assert len(triangles(shrunk)) == len(triangles(equal)) == 2 * m
    assert staircase_indices(m, m) == list(range(m + 1))
    assert phases(shrunk) == [0, 0]
    assert phases(equal) == [0, Fraction(m, 2 * m)]
    bound = Fraction(m, m)
    outer, inner = shrunk
    for u, v in slanted_edges(shrunk, outer, inner):
        assert circ_dist(position(shrunk, u, m), position(shrunk, v, m), m) <= bound


def test_cone_closes_the_innermost_cycle():
    ledger = ledger_of(5, ("shrink", 3))
    cone = cone_triangles(ledger[-1]).tolist()
    apex = num_vertices(ledger)
    assert cone == [[apex, 5, 6], [apex, 6, 7], [apex, 7, 5]]


def test_annulus_argument_errors():
    with pytest.raises(ValueError, match=">= 3"):
        layer_ledger(2, [])
    with pytest.raises(ValueError, match="3 <= target <= 5"):
        ledger_of(5, ("shrink", 6))
    with pytest.raises(ValueError, match="3 <= target <= 5"):
        ledger_of(5, ("shrink", 2))
    with pytest.raises(ValueError, match="3 <= target <= 4"):
        ledger_of(5, ("shrink", 4), ("shrink", 5))
    with pytest.raises(ValueError, match="equal annulus keeps the cycle length 5, got 4"):
        ledger_of(5, ("equal", 4))
    with pytest.raises(ValueError, match="unknown annulus kind 'spiral'"):
        ledger_of(5, ("spiral", 5))
