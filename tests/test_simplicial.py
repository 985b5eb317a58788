from fractions import Fraction

import numpy as np
import pytest
from reference_impl import reference_validate_disk, skeleton_graph

from ringfill import (
    Params,
    Triangulation,
    build_filling,
    canonical_triangle,
    cone_over_cycle,
    validate_disk,
)
from ringfill.oracle import validate_disk_batch
from ringfill.simplicial import _edge_table, _incidence
from ringfill.serialize import triangulation_from_dict


def triangle_on_c3():
    return Triangulation(3, 3, [(0, 1, 2)])


def test_canonical_rotation():
    assert canonical_triangle(5, 2, 7) == (2, 7, 5)
    assert canonical_triangle(7, 5, 2) == (2, 7, 5)
    assert canonical_triangle(2, 7, 5) == (2, 7, 5)
    # reflection is a different oriented triangle
    assert canonical_triangle(2, 5, 7) == (2, 5, 7)


def test_single_triangle_is_a_disk():
    t = triangle_on_c3()
    rep = validate_disk(t)
    assert rep.ok, rep.failures
    assert rep.counts["vertices"] - rep.counts["edges"] + rep.counts["triangles"] == 1
    assert (rep.counts["vertices"], rep.counts["edges"], rep.counts["triangles"]) == (3, 3, 1)


def test_cone_over_c4_is_a_disk():
    t = cone_over_cycle(4)
    rep = validate_disk(t)
    assert rep.ok, rep.failures
    assert t.num_edges == 8
    assert rep.counts["boundary_edges"] == 4
    assert rep.counts["interior_edges"] == 4


def test_cone_with_missing_triangle_is_invalid():
    t = cone_over_cycle(4)
    broken = Triangulation(4, t.num_vertices, np.asarray(t.triangles)[:-1])
    rep = validate_disk(broken)
    assert not rep.ok
    # the two spokes of the removed triangle now have incidence 1 off the cycle,
    # and one cycle edge lost its only triangle
    assert any("unexpected boundary edges" in f for f in rep.failures)
    assert any("cycle edges missing" in f for f in rep.failures)


def test_duplicate_and_degenerate_triangles_reported():
    rep = validate_disk(Triangulation(3, 3, [(0, 1, 2), (1, 2, 0)]))
    assert any("repeated triangle" in f for f in rep.failures)
    rep = validate_disk(Triangulation(3, 3, [(0, 1, 1)]))
    assert any("degenerate" in f for f in rep.failures)


def test_overfull_edge_reported():
    tris = [(0, 1, 2), (0, 1, 3), (1, 0, 4)]
    rep = validate_disk(Triangulation(3, 5, tris))
    assert any("lies in 3 triangles" in f for f in rep.failures)


def test_empty_triangle_list_is_invalid():
    rep = validate_disk(Triangulation(3, 3, []))
    assert rep.failures == ["complex has no triangles"]


def assert_rejected_like_reference(t, phrase):
    rep = validate_disk(t)
    ref = reference_validate_disk(t)
    assert not rep.ok and not ref.ok
    assert rep.counts == ref.counts
    assert any(phrase in f for f in rep.failures), rep.failures
    return rep


def test_disk_pinched_at_two_points_is_rejected():
    # An octahedron glued to the cone over C_6 at the apex 6 and at vertex 0
    # (its poles; equator 7..10): every edge lies in 1 or 2 triangles, the
    # boundary is C_6 and V - E + F = 11 - 24 + 14 = 1, yet the links of 0
    # and 6 each fall into two pieces.
    cone = cone_over_cycle(6)
    eq = [7, 8, 9, 10]
    octahedron = [(6, eq[i], eq[(i + 1) % 4]) for i in range(4)] + [(0, eq[(i + 1) % 4], eq[i]) for i in range(4)]
    t = Triangulation(6, cone.num_vertices + len(eq), np.vstack([cone.triangles, octahedron]))
    rep = assert_rejected_like_reference(t, "disconnected")
    assert rep.counts["vertices"] - rep.counts["edges"] + rep.counts["triangles"] == 1
    assert rep.failures == [
        "link of vertex 0 is disconnected, expected a path",
        "link of vertex 6 is disconnected, expected a cycle",
    ]


def test_disk_plus_disjoint_torus_is_disconnected():
    # The 7-vertex torus (ids 7..13) beside the cone over C_6: every edge lies
    # in 1 or 2 triangles, the boundary is C_6, every link is a path or a
    # cycle and V - E + F = 1 + 0, so only connectivity tells them apart.
    cone = cone_over_cycle(6)
    torus = [(7 + i, 7 + (i + 1) % 7, 7 + (i + 3) % 7) for i in range(7)]
    torus += [(7 + i, 7 + (i + 2) % 7, 7 + (i + 3) % 7) for i in range(7)]
    t = Triangulation(6, 14, np.vstack([cone.triangles, torus]))
    rep = assert_rejected_like_reference(t, "complex is disconnected")
    assert rep.failures == ["complex is disconnected: 2 components"]
    assert rep.counts["vertices"] - rep.counts["edges"] + rep.counts["triangles"] == 1
    assert reference_validate_disk(t).failures == rep.failures


def test_opposite_rotation_duplicate_is_a_link_multigraph():
    cone = cone_over_cycle(5)
    a, b, c = np.asarray(cone.triangles)[0].tolist()
    t = Triangulation(5, cone.num_vertices, np.vstack([cone.triangles, [(a, c, b)]]))
    rep = assert_rejected_like_reference(t, "is a multigraph (repeated link edge)")
    # opposite orientations are different oriented triangles, not repeats
    assert not any("repeated triangle" in f for f in rep.failures)


def test_isolated_vertex_is_rejected():
    cone = cone_over_cycle(5)
    t = Triangulation(5, cone.num_vertices + 1, cone.triangles)
    rep = assert_rejected_like_reference(t, "vertex 6 lies in no triangle")
    assert any("Euler formula violated" in f for f in rep.failures)


def test_out_of_range_vertex_id_is_rejected():
    cone = cone_over_cycle(5)
    tris = np.array(cone.triangles)
    tris[0, 0] = 6
    assert_rejected_like_reference(Triangulation(5, cone.num_vertices, tris), "references a vertex id outside 0..5")


def test_triangle_array_is_checked_and_canonicalized():
    t = Triangulation(3, 3, [(2, 0, 1), (1, 2, 0)])
    assert np.asarray(t.triangles).dtype == np.int32
    assert t.triangles.tolist() == [[0, 1, 2], [0, 1, 2]]
    assert Triangulation(3, 3, []).triangles.shape == (0, 3)
    with pytest.raises(ValueError, match="must lie in"):
        Triangulation(3, 3, [(0, 1, -1)])
    with pytest.raises(ValueError, match="must be integers"):
        Triangulation(3, 3, [(0, 1, 2.5)])
    with pytest.raises(ValueError, match=r"\(F, 3\) array"):
        Triangulation(3, 3, [(0, 1)])


def test_only_an_owned_int32_array_is_kept():
    rows = np.array([(2, 0, 1), (0, 1, 2)], dtype=np.int32)
    t = Triangulation(3, 3, rows)
    assert not np.shares_memory(t.triangles, rows) and rows.tolist() == [[2, 0, 1], [0, 1, 2]]
    t = Triangulation(3, 3, rows, own=True)
    assert t.triangles is rows and rows.tolist() == [[0, 1, 2], [0, 1, 2]]
    wide = np.array([(2, 0, 1)], dtype=np.int64)
    t = Triangulation(3, 3, wide, own=True)
    assert np.asarray(t.triangles).dtype == np.int32 and t.triangles.tolist() == [[0, 1, 2]]
    assert wide.tolist() == [[2, 0, 1]]


def test_contiguous_vertex_ids_enforced():
    # vertex ids live in the records of a bare file; the loader checks them
    record = {"id": 1, "layer": 0, "index_in_layer": 0, "theta_num": None, "theta_den": None}
    with pytest.raises(ValueError, match="contiguous"):
        triangulation_from_dict({"n": 3, "vertices": [record], "triangles": [[0, 1, 2]]})


def _boundary_edges(t):
    """The incidence-1 edges of ``t``, ascending, from its edge table and the slot counts of each edge."""
    edges, slot_edge = _edge_table(t.triangles)
    incidence = _incidence(t.triangles, slot_edge, len(edges))
    return [edge for edge, k in zip(edges.tolist(), incidence) if k == 1]


def test_boundary_cycle_of_cone():
    t = cone_over_cycle(5)
    assert validate_disk(t).ok
    assert _boundary_edges(t) == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]


def test_boundary_cycle_rejects_disjoint_triangles():
    t = Triangulation(3, 6, [(0, 1, 2), (3, 4, 5)])
    rep = validate_disk(t)
    assert "unexpected boundary edges: [(3, 4), (3, 5), (4, 5)]" in rep.failures


def test_skeleton_graph_of_cone():
    adj = skeleton_graph(cone_over_cycle(4))
    assert len(adj) == 5
    assert sum(len(nbrs) for nbrs in adj) == 2 * 8
    assert adj[4] == [0, 1, 2, 3]  # apex joined to the whole cycle


def test_edge_incidence_totals(small_build):
    # Three edge slots per triangle: boundary edges are counted once,
    # interior edges twice.
    t = small_build.triangulation
    rep = validate_disk(t)
    assert rep.ok, rep.failures
    assert 3 * t.num_triangles == rep.counts["boundary_edges"] + 2 * rep.counts["interior_edges"]


def test_built_filling_boundary_is_identity(small_build):
    t = small_build.triangulation
    assert validate_disk(t).ok
    cycle = sorted(sorted((i, (i + 1) % t.n)) for i in range(t.n))
    assert _boundary_edges(t) == cycle


def test_triangle_keys_stay_exact_past_int32():
    # K_384 at (1/10, 1/4) has E = 127,692 edges, so a triangle key (edge id)
    # * E + (edge id) needs more than 32 bits.  Beside a duplicated triangle
    # and one overfull edge, the added triangle (1000, 19017, 19382) is
    # chosen so that its key in int32 arithmetic would equal that of
    # (12212, 12213, 12596) and be reported as a second repeated triangle.
    t = build_filling(Params(384, Fraction(1, 10), Fraction(1, 4))).triangulation
    assert t.num_edges == 127_692
    tri, nv = np.asarray(t.triangles), t.num_vertices
    dup = tri[40000]
    assert dup.tolist() == [20009, 20010, 20375]
    bad = np.vstack([tri, dup, [(1000, 19017, 19382)]])
    assert validate_disk(Triangulation(384, nv, bad)).failures == [
        "repeated triangle (20009, 20010, 20375)",
        "edge (19017, 19382) lies in 3 triangles (expected 1 or 2)",
        "edge (20009, 20010) lies in 3 triangles (expected 1 or 2)",
        "edge (20009, 20375) lies in 3 triangles (expected 1 or 2)",
        "edge (20010, 20375) lies in 3 triangles (expected 1 or 2)",
        "unexpected boundary edges: [(1000, 19017), (1000, 19382)]",
        "link of vertex 20009 is a multigraph (repeated link edge), expected a cycle",
        "link of vertex 20010 is a multigraph (repeated link edge), expected a cycle",
        "link of vertex 20375 is a multigraph (repeated link edge), expected a cycle",
        "link of vertex 1000 is disconnected, expected a path",
    ]
    # A stack needs one shape: beside it, the disk with the duplicated
    # triangle subdivided at a new vertex, on one vertex more.
    a, b, c = dup.tolist()
    good = np.vstack([np.delete(tri, 40000, axis=0), [(a, b, nv), (b, c, nv), (c, a, nv)]])
    stack = np.asarray(np.stack([good, bad]), dtype=np.int32)
    want = [validate_disk(Triangulation(384, nv + 1, rows)).ok for rows in stack]
    assert want == [True, False]
    assert validate_disk_batch(384, nv + 1, stack).tolist() == want


def test_edge_ids_past_int32_are_refused():
    # Edge ids are int32 and the corner graph numbers its nodes 2e + d < 6F,
    # so more than (2**31 - 1) / 6 triangles cannot be numbered.  A
    # broadcast view has the length without the memory.
    too_many = np.broadcast_to(np.array([0, 1, 2], dtype=np.int32), (357_913_942, 3))
    with pytest.raises(ValueError, match="too many edges for int32 edge ids"):
        _edge_table(too_many)


def test_boundary_longer_than_the_vertex_count_is_refused():
    # a disk bounded by C_n has at least n vertices; validating this one
    # would build an n-sized set of boundary edges
    with pytest.raises(ValueError, match=f"boundary length {10**30} exceeds the 4 vertices"):
        Triangulation(10**30, 4, [(0, 1, 2), (0, 2, 3)])
