import json
import math
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
import reference_impl as ref
from reference_impl import phases, theta

import ringfill.serialize as serialize
from ringfill import Params, build_filling, cone_over_cycle, validate_disk, verify_filling
from ringfill._kernels import buffer
from ringfill.serialize import (
    build_from_dict,
    build_to_dict,
    complex_from_dict,
    dump_json,
    embedded_coordinates,
    report_to_dict,
    triangulation_from_dict,
    triangulation_to_dict,
    vertex_records,
    write_obj,
    write_off,
)


def test_triangulation_round_trip(small_build):
    t = small_build.triangulation
    data = triangulation_to_dict(t)
    back = triangulation_from_dict(data)
    assert back.n == t.n
    assert back.triangles.tolist() == t.triangles.tolist()
    assert back.num_vertices == t.num_vertices
    again = triangulation_to_dict(back)
    assert again["vertices"] == data["vertices"]
    assert again["triangles"].tolist() == data["triangles"].tolist()
    assert validate_disk(back).ok


def test_triangulation_schema_fields():
    data = triangulation_to_dict(cone_over_cycle(5))
    assert list(data) == ["n", "vertices", "triangles"]
    assert list(data["vertices"][0]) == ["id", "layer", "index_in_layer", "theta_num", "theta_den"]
    assert data["vertices"][0]["theta_num"] == 0 and data["vertices"][0]["theta_den"] == 1
    apex = data["vertices"][-1]
    assert apex["theta_num"] is None and apex["theta_den"] is None


def test_build_records_restate_layer_thetas(small_build, medium_build):
    # the gcd-reduced records against one exact Fraction per vertex
    for build in (small_build, medium_build):
        t = build.triangulation
        records = list(vertex_records(t, build.ledger))
        assert [rec["id"] for rec in records] == list(range(t.num_vertices))
        for rec, phase in zip(build.ledger, phases(build.ledger)):
            for i in range(rec.length):
                got = records[rec.first_vertex + i]
                x = theta(phase, rec, i, t.n)
                assert (got["layer"], got["index_in_layer"]) == (rec.index, i)
                assert (got["theta_num"], got["theta_den"]) == (x.numerator, x.denominator)
        assert records[build.apex] == {
            "id": build.apex,
            "layer": len(build.ledger),
            "index_in_layer": 0,
            "theta_num": None,
            "theta_den": None,
        }


def test_build_round_trip(small_build):
    data = build_to_dict(small_build)
    assert list(data) == ["version", "params", "triangles"]
    back = build_from_dict(data)
    assert back.params == small_build.params
    assert back.schedule == small_build.schedule
    assert back.apex == small_build.apex
    assert back.triangulation.triangles.tolist() == small_build.triangulation.triangles.tolist()
    assert back.ledger == small_build.ledger
    # round-tripped build supports the same exact audits
    from ringfill import drift_audit, separation_lower_bounds

    assert drift_audit(back).ok
    assert separation_lower_bounds(back) == separation_lower_bounds(small_build)


@pytest.mark.parametrize(
    "field,value",
    [("layer", 4), ("index_in_layer", 1), ("theta_num", 1), ("theta_num", None)],
)
def test_build_records_must_restate_the_ledger(small_build, field, value):
    # a build file's vertex records are the ledger's: a file that carries its
    # own, here one contradicting the ledger, is refused, never read, and so
    # is a version 1 file (a ledger, records and no version)
    t, ledger = small_build.triangulation, small_build.ledger
    records = list(vertex_records(t, ledger))
    victim = records[ledger[3].first_vertex]
    assert victim[field] != value
    victim[field] = value
    data = build_to_dict(small_build)
    data["vertices"] = records
    with pytest.raises(ValueError, match="has no vertices field"):
        complex_from_dict(data)
    data = ref.build_file_v2(small_build)
    del data["version"]
    data["vertices"] = records
    with pytest.raises(ValueError, match="version must be 3, got missing"):
        complex_from_dict(data)


def test_complex_from_dict_detects_kind(small_build):
    t, build = complex_from_dict(triangulation_to_dict(small_build.triangulation))
    assert build is None and t.n == small_build.params.n
    t2, build2 = complex_from_dict(build_to_dict(small_build))
    assert build2 is not None and t2.n == small_build.params.n


def test_loading_a_build_file_assembles_no_complex(monkeypatch, medium_build):
    import ringfill.annuli
    import ringfill.builder
    import ringfill.serialize

    def refuse(*args, **kwargs):
        raise AssertionError("the loader assembled a complex")

    for module in (ringfill.builder, ringfill.serialize):
        monkeypatch.setattr(module, "build_filling", refuse, raising=False)
    for module in (ringfill.annuli, ringfill.builder):
        monkeypatch.setattr(module, "annulus_triangles", refuse, raising=False)
    t, build = complex_from_dict(build_to_dict(medium_build))
    assert build.ledger == medium_build.ledger
    assert t.num_vertices == medium_build.triangulation.num_vertices
    assert t.triangles.tolist() == medium_build.triangulation.triangles.tolist()


def test_json_bytes_deterministic(tmp_path, small_build):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(build_to_dict(small_build), str(a))
    dump_json(build_to_dict(small_build), str(b))
    assert a.read_bytes() == b.read_bytes()


def _reference_bytes(data) -> bytes:
    """The bytes of ``json.dump(data, fh, indent=2)`` and a newline, a top-level ndarray value as its list."""
    data = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}
    return (json.dumps(data, indent=2) + "\n").encode("utf-8")


_str_keys = st.one_of(st.text(max_size=4), st.text(alphabet='a%"\\\u00e9\u20ac\n', max_size=4))
_keys = st.one_of(_str_keys, st.integers(-3, 3), st.none())  # json writes non-str keys as strings
_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100), st.sampled_from([2**64, 2**85 + 1]))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(alphabet='ab%"\\\u00e9\u20ac\U0001f600\n\x00', max_size=6),
)
_row_values = st.one_of(_ints, st.none())


@st.composite
def _row_lists(draw):
    """Non-empty lists of list rows of one width or dict rows of one key order (str keys two times in
    three), with one odd row mixed in more often than not: ragged, reordered, a tuple, or holding a
    value that is not an int or null."""
    width, count = draw(st.integers(0, 4)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        rows = [draw(st.lists(_row_values, min_size=width, max_size=width)) for _ in range(count)]
    else:
        key_strategy = draw(st.sampled_from([_str_keys, _str_keys, _keys]))
        keys = draw(st.lists(key_strategy, min_size=width, max_size=width, unique=True))
        rows = [dict(zip(keys, draw(st.lists(_row_values, min_size=width, max_size=width)))) for _ in range(count)]
    i = draw(st.integers(0, count - 1))
    row = rows[i]
    odd = draw(st.sampled_from([None, None, "ragged", "reordered", "foreign", "bool", "tuple"]))
    if odd == "ragged":
        rows[i] = draw(st.one_of(st.lists(_row_values, max_size=5), st.dictionaries(_keys, _row_values, max_size=4)))
    elif odd == "reordered":
        rows[i] = dict(reversed(list(row.items()))) if isinstance(row, dict) else row[::-1]
    elif odd in ("foreign", "bool") and width:
        slot = draw(st.integers(0, width - 1))
        row[list(row)[slot] if isinstance(row, dict) else slot] = draw(_scalars if odd == "foreign" else st.booleans())
    elif odd == "tuple" and isinstance(row, list):
        rows[i] = tuple(row)
    return rows


_json = st.recursive(
    st.one_of(_scalars, _row_lists()),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(_keys, children, max_size=4)),
    max_leaves=12,
)


_arrays = st.sampled_from([np.int32, np.int64, np.uint8, np.float64, bool]).flatmap(
    lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_str_keys, st.one_of(_json, _arrays), max_size=4))
@example({})
@example({"rows": np.array([[1, 2], [3, 4]], dtype=np.int32), "odd": [[1, 2], [3]], "tuple": [(1, 2), [3, 4]]})
@example({"nan": [[math.nan, 1.5]], "keys": [{1: 2, None: 3}], "empty": np.zeros((0, 3), dtype=np.int64)})
@example({"k%s": [{"a%d": None, 'e\u00e9"\\': 2**85}], "nested": [[{"x": [[0, None]]}]]})
def test_dump_json_matches_the_reference_encoder(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("dump") / "x.json"
    dump_json(data, str(path))
    assert path.read_bytes() == _reference_bytes(data)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, np.float64, bool])
@pytest.mark.parametrize("shape", [(5000, 3), (2, 4), (0, 3), (3, 0), (4,), ()])
def test_dump_json_writes_an_array_as_its_list(tmp_path, dtype, shape):
    array = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape).astype(dtype)
    data = {"n": 5, "rows": array}
    path = tmp_path / "x.json"
    dump_json(data, str(path))
    assert path.read_bytes() == _reference_bytes(data)


_IDS = [0, 9, 10, -1, 2**31 - 1, -(2**31)]


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 5000])
def test_row_writer_matches_the_template_writer(tmp_path, count):
    # the ids cycle through one and two digits, -1 and both ends of int32,
    # and the counts straddle the 1024-row chunk
    rows = buffer("i", count, 3)
    if count:
        rows.cast("B")[:] = array("i", (_IDS[k % len(_IDS)] for k in range(3 * count))).tobytes()
        got, want = [], []
        serialize._write_rows(lambda text: got.append(bytes(text)), rows)
        ref.write_rows(want.append, np.asarray(rows))
        assert b"".join(got) == "".join(want).encode()
    data = {"n": 5, "triangles": rows}
    path = tmp_path / "x.json"
    dump_json(data, str(path))
    assert path.read_bytes() == _reference_bytes({**data, "triangles": rows.tolist()})


def test_dump_json_refuses_a_non_str_key(tmp_path):
    # json.dump would write the key 1 as "1"; the writer refuses it before writing anything
    path = tmp_path / "x.json"
    with pytest.raises(TypeError, match="str keys"):
        dump_json({"n": 5, 1: [1, 2]}, str(path))
    assert not path.exists()


@pytest.mark.parametrize("n", [64, 384])
def test_build_file_bytes_match_the_reference_encoder(tmp_path, n):
    build = build_filling(Params(n, Fraction(1, 10), Fraction(1, 4)))
    data = build_to_dict(build)
    path = tmp_path / "k.json"
    dump_json(data, str(path))
    assert data["triangles"] is build.triangulation.triangles  # the complex's own buffer, not a copy
    assert path.read_bytes() == _reference_bytes({**data, "triangles": data["triangles"].tolist()})


def test_report_schema(small_build):
    report = verify_filling(small_build.triangulation)
    data = report_to_dict(report)
    assert list(data) == ["n", "delta_num", "delta_den", "is_isometric", "worst_pair", "eps_n"]
    assert list(data["worst_pair"]) == ["x", "y", "d_k", "d_c"]
    assert json.dumps(data)  # JSON-serializable as-is
    with_witness = report_to_dict(report, include_witness=True)
    assert "witness_path" in with_witness


def test_off_export_of_cone(tmp_path):
    path = tmp_path / "cone.off"
    cone = cone_over_cycle(5)
    write_off(cone, str(path), list(vertex_records(cone)))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "OFF"
    assert lines[1] == "6 5 0"
    assert len(lines) == 2 + 6 + 5
    assert all(line.startswith("3 ") for line in lines[-5:])


def test_obj_export_counts(tmp_path, small_build):
    path = tmp_path / "k.obj"
    t = small_build.triangulation
    write_obj(t, str(path), list(vertex_records(t, small_build.ledger)))
    lines = path.read_text().strip().split("\n")
    assert sum(1 for line in lines if line.startswith("v ")) == t.num_vertices
    assert sum(1 for line in lines if line.startswith("f ")) == t.num_triangles
    # OBJ faces are 1-based
    first_face = next(line for line in lines if line.startswith("f "))
    assert min(int(x) for x in first_face.split()[1:]) >= 1


def test_embedding_places_apex_at_origin(small_build):
    t = small_build.triangulation
    coords = embedded_coordinates(t, list(vertex_records(t, small_build.ledger)))
    assert coords[small_build.apex] == (0.0, 0.0, 0.0)
    # boundary vertices at unit radius
    assert all(abs(x * x + y * y - 1.0) < 1e-12 for x, y, _ in coords[: t.n])
