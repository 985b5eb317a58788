import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import reference_impl as ref

import ringfill
import ringfill.serialize as serialize
from ringfill import oracle
from ringfill.cli import _parser, main
from ringfill.serialize import dump_json, triangulation_to_dict, vertex_records
from ringfill import Params, build_filling, cone_over_cycle


def test_build_writes_json(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert main(["build", "--n", "32", "--rho", "0.1", "--eta", "0.25", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert list(data) == ["version", "params", "triangles"] and data["version"] == 3
    assert data["params"] == {"n": 32, "rho": [1, 10], "eta": [1, 4]}
    printed = capsys.readouterr().out
    assert "vertices=" in printed and "density=" in printed


def test_build_rejects_bad_eta(capsys):
    assert main(["build", "--n", "100", "--rho", "0.01", "--eta", "0.2"]) == 2
    assert "eta^2 < rho violated" in capsys.readouterr().err


def test_eta_rejection_prints_exact_rationals(capsys):
    # as floats, a positive rho of 1e-400 printed as 0.0; its 403 characters are shortened
    assert main(["build", "--n", "64", "--rho", "1e-400", "--eta", "0.25"]) == 2
    assert capsys.readouterr().err == "rejected: eta^2 < rho violated (1/16 >= 1/10000000...0000000000)\n"


@pytest.mark.parametrize(
    "rho,eta,line",
    [
        ("1e4000", "1/4", "the filling would have 2000000000...0000004396 triangles, more than the 357913941 "
         "that int32 edge ids allow"),
        ("1/10", "1e4000", "eta must lie in (0, 1), got 1000000000...0000000000"),
        ("1e-4000", "1/4", "eta^2 < rho violated (1/16 >= 1/10000000...0000000000)"),
        # eta^2 and the triangle count themselves pass the 4,300 digits that str() converts
        ("1/2", "0." + "9" * 2200, "eta^2 < rho violated (9999999999...0000000000 >= 1/2)"),
        ("9" * 4300, "1/4", "the filling would have 1999999999...9999984396 triangles, more than the 357913941 "
         "that int32 edge ids allow"),
    ],
    ids=["triangles", "eta", "rho", "eta-squared", "triangles-past-str"],
)
def test_a_refusal_shortens_a_number_thousands_of_digits_long(capsys, rho, eta, line):
    assert main(["build", "--n", "100", "--rho", rho, "--eta", eta]) == 2
    assert capsys.readouterr().err == f"rejected: {line}\n"


def test_build_rejects_small_n(capsys):
    assert main(["build", "--n", "10", "--rho", "0.001", "--eta", "0.03"]) == 2
    assert "rejected" in capsys.readouterr().err


def test_verify_audit_export_chain(tmp_path, capsys):
    build_path = tmp_path / "k.json"
    report_path = tmp_path / "report.json"
    assert main(["build", "--n", "32", "--rho", "0.1", "--eta", "0.25", "--out", str(build_path)]) == 0

    assert (
        main(
            [
                "verify",
                "--in",
                str(build_path),
                "--out",
                str(report_path),
                "--check-bound",
                "200",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert report["delta_num"] == report["delta_den"] == 1
    assert report["is_isometric"] is True
    assert report["eps_n"] > 0
    out = capsys.readouterr().out
    assert "delta=1" in out
    assert "0 violations" in out

    assert main(["audit", "--in", str(build_path)]) == 0
    assert "within_bounds=True" in capsys.readouterr().out

    off_path = tmp_path / "k.off"
    assert main(["export", "--in", str(build_path), "--format", "off", "--out", str(off_path)]) == 0
    header = off_path.read_text().split("\n")[1]
    t = build_filling(Params(32, Fraction(1, 10), Fraction(1, 4))).triangulation
    assert header.split()[:2] == [str(t.num_vertices), str(t.num_triangles)]


def test_verify_plain_triangulation_with_shortcut(tmp_path, capsys):
    path = tmp_path / "cone6.json"
    dump_json(triangulation_to_dict(cone_over_cycle(6)), str(path))
    assert main(["verify", "--in", str(path), "--dump-witness"]) == 0
    out = capsys.readouterr().out
    assert "delta=2/3" in out
    assert "isometric=False" in out
    assert "witness path:" in out


def test_verify_builds_from_params(capsys):
    assert main(["verify", "--n", "25", "--rho", "0.1", "--eta", "0.25"]) == 0
    assert "isometric=True" in capsys.readouterr().out


def test_audit_catches_tampered_triangle(tmp_path, capsys):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    ledger = build_filling(Params(25, Fraction(1, 10), Fraction(1, 4))).ledger
    layer_of = {rec.first_vertex + i: rec.index for rec in ledger for i in range(rec.length)}
    layer_of[ledger[-1].first_vertex + ledger[-1].length] = len(ledger)
    # a triangle of annulus 2 with one vertex on cycle 3: move that inner
    # endpoint of its slanted edges three steps along cycle 3
    tri = next(t for t in data["triangles"] if sorted(layer_of[v] for v in t) == [2, 2, 3])
    k = next(j for j, v in enumerate(tri) if layer_of[v] == 3)
    cycle = ledger[3]
    tri[k] = cycle.first_vertex + (tri[k] - cycle.first_vertex + 3) % cycle.length
    build_path.write_text(json.dumps(data))
    assert main(["audit", "--in", str(build_path)]) == 1
    assert "violation: annulus 2 (collar)" in capsys.readouterr().err


def test_audit_validates_the_loaded_triangles(tmp_path, capsys):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    del data["triangles"][100]  # leaves a hole: the audit sees a row missing, validation where
    build_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "invalid: unexpected boundary edges: [(50, 51), (50, 75), (51, 75)]\n"
        "invalid: Euler formula violated: V - E + F = 279 - 809 + 530 = 0, expected 1\n"
        "violation: annulus 2 (collar) is not a strip: 49 rows, not 50\n"
    )
    assert main(["verify", "--in", str(build_path)]) == 1  # the same certificate, and no search
    assert capsys.readouterr() == ("", err)


def test_audit_and_verify_refuse_a_fan_row_with_the_apex_twice(tmp_path, capsys):
    # the cone's first fan row (271, 272, 278) as (271, 278, 278): the apex
    # paired with itself is no edge of a cycle
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    assert data["triangles"][524] == [271, 272, 278]
    data["triangles"][524] = [271, 278, 278]
    build_path.write_text(json.dumps(data))
    capsys.readouterr()
    defect = ("violation: the cone over cycle 13 is not a fan: a pair not adjacent on its cycle "
              "at row 524 (271, 278, 278)\n")
    assert main(["audit", "--in", str(build_path)]) == 1
    assert capsys.readouterr().err.endswith(defect)
    assert main(["verify", "--in", str(build_path)]) == 1
    assert capsys.readouterr().err.endswith(defect)


@pytest.mark.parametrize("bound", [[], ["--check-bound", "1000"]], ids=["plain", "check-bound"])
@pytest.mark.parametrize("flip", ["layer-skipping", "chord", "apex"])
def test_verify_refuses_an_edge_of_no_annulus_before_any_search(
    tmp_path, capsys, monkeypatch, flipped_builds, flip, bound
):
    # each flip leaves a valid disk, which whole-complex validation passed
    # and the searches found isometric: the strips name the defect instead
    import ringfill.verify

    def refuse(t):
        raise AssertionError("a boundary search ran")

    build, _, defects = flipped_builds[flip]
    build_path = tmp_path / "k.json"
    dump_json(serialize.build_to_dict(build), str(build_path))
    monkeypatch.setattr(ringfill.verify, "_graph_csr", refuse)
    assert main(["verify", "--in", str(build_path), *bound]) == 1
    assert capsys.readouterr() == ("", "".join(f"violation: {line}\n" for line in defects))


@pytest.mark.parametrize("flip", ["layer-skipping", "chord", "apex"])
def test_audit_refuses_an_edge_of_no_annulus(tmp_path, capsys, flipped_builds, flip):
    build, _, defects = flipped_builds[flip]
    build_path = tmp_path / "k.json"
    dump_json(serialize.build_to_dict(build), str(build_path))
    assert main(["audit", "--in", str(build_path)]) == 1
    captured = capsys.readouterr()
    assert "within_bounds=False" in captured.out
    assert "".join(f"violation: {line}\n" for line in defects) in captured.err and "invalid" not in captured.err


def test_audit_prints_the_report_before_an_error_of_the_whole_complex_audit(tmp_path, capsys):
    # an id far past the apex: annulus 0 is no strip, which the audit
    # names after validation's report of the whole complex
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    data["triangles"][40][2] = 10**6
    build_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    assert capsys.readouterr() == (
        "n=25 annuli=13 within_bounds=False\n"
        "equal-length annuli achieving their bound exactly: 7/8\n",
        "invalid: triangle (20, 21, 1000000) references a vertex id outside 0..278\n"
        "invalid: unexpected boundary edges: [(20, 45), (20, 1000000), (21, 45), (21, 1000000)]\n"
        "invalid: Euler formula violated: V - E + F = 279 - 811 + 531 = -1, expected 1\n"
        "violation: annulus 0 (collar) is not a strip: an id off its two cycles at row 40 (20, 21, 1000000)\n",
    )


def test_audit_passes_a_valid_build_file_in_another_row_order(tmp_path, capsys, monkeypatch):
    # rows reversed, and the two collar annuli's rows swapped: the strips
    # read them through a row index, print what the file as built prints,
    # and build no edge table
    path = tmp_path / "k.json"
    assert main(["build", "--n", "384", "--rho", "1/10", "--eta", "1/4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["audit", "--in", str(path)]) == 0
    want = capsys.readouterr()
    assert want.out.startswith("n=384 annuli=") and want.err == ""

    def refuse(tri):
        raise AssertionError("an edge table was built")

    monkeypatch.setattr(ringfill.simplicial, "_edge_table", refuse)
    data = json.loads(path.read_text())
    rows, size = data["triangles"], 2 * 384  # the rows of a collar annulus
    for reordered in (rows[::-1], rows[size : 2 * size] + rows[:size] + rows[2 * size :]):
        data["triangles"] = reordered
        path.write_text(json.dumps(data))
        assert main(["audit", "--in", str(path)]) == 0
        assert capsys.readouterr() == want


@pytest.mark.parametrize("command", ["build", "audit", "verify", "sweep"])
def test_a_built_filling_is_stripped_once(monkeypatch, capsys, command):
    # one call of the writer kernel writes every annulus and the cone, and
    # one call of the strip kernel, over the rows as built with no index,
    # validates and audits every annulus and the cone's fan
    from ringfill import _kernels
    from ringfill.analysis import run_sweep

    calls, writes, lib = [], [], _kernels.library()
    strip, write = lib.strip_annuli, lib.filling_rows

    def counted(tri, k, start, cycles, terms, count, index, scratch, out):
        calls.append((k, cycles, index))
        return strip(tri, k, start, cycles, terms, count, index, scratch, out)

    def written(table, cycles, out):
        writes.append((cycles, len(out)))
        return write(table, cycles, out)

    monkeypatch.setattr(lib, "strip_annuli", counted)
    monkeypatch.setattr(lib, "filling_rows", written)
    if command == "sweep":
        assert run_sweep([25], "1/10", "1/4")[0].error is None
    else:
        assert main([command, *_PARAMS_25]) == 0
    build = build_filling(Params(25, Fraction(1, 10), Fraction(1, 4)))
    assert calls == [(build.triangulation.num_triangles, len(build.ledger), None)]
    assert writes == [(len(build.ledger) + 1, build.triangulation.num_triangles)] * 2  # the command's, then this build's


@pytest.mark.parametrize("field", ["rho"])
def test_zero_denominator_is_a_named_error(tmp_path, capsys, field):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    data["params"][field][1] = 0
    build_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    assert "has a zero denominator" in capsys.readouterr().err
    bare = tmp_path / "cone.json"
    cone = triangulation_to_dict(cone_over_cycle(5))
    cone["vertices"][2]["theta_den"] = 0
    dump_json(cone, str(bare))
    assert main(["verify", "--in", str(bare)]) == 1
    assert "error: theta of vertex 2 has a zero denominator" in capsys.readouterr().err


def test_output_bytes_are_pinned(tmp_path, capsys):
    # sha256 of a build file and of a bare complex; any change to a format shows here
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(build_path)]) == 0
    cone_path = tmp_path / "cone6.json"
    dump_json(triangulation_to_dict(cone_over_cycle(6)), str(cone_path))
    digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (build_path, cone_path)}
    assert digest == {
        "k.json": "8600d2c1516947f019030e07d7f8e2232d32421a6669a769ec15c535f76c0ab7",
        "cone6.json": "386a419e72d8d7b95624bf597759745c85d5abd875d636553f39e43b5d8fcfbb",
    }


def test_report_and_witness_bytes_are_pinned(tmp_path, capsys):
    # sha256 of a verification report (with a float eps_n) and of an oracle witness
    report_path, witness_path = tmp_path / "report.json", tmp_path / "witness.json"
    argv = ["verify", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(report_path), "--dump-witness"]
    assert main(argv) == 0
    assert main(["oracle", "--n", "5", "--max-interior", "3", "--out", str(witness_path)]) == 0
    digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (report_path, witness_path)}
    assert digest == {
        "report.json": "8b3ae275125286b4432f2aaf1766908016d4fda085d78c1fa14549eaa24c37b5",
        "witness.json": "eda8eff91dd613a78d67bbd838ce299fd30ed3c471635982978eb9130136fdf0",
    }


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("kind", ["bare", "build"])
def test_boolean_triangle_id_is_a_named_error(tmp_path, capsys, kind, value):
    # numpy reads [0, true, 5] as [0, 1, 5]; the cone over C_5 would still verify
    path = tmp_path / "k.json"
    if kind == "bare":
        dump_json(triangulation_to_dict(cone_over_cycle(5)), str(path))
    else:
        assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    # the first triangle holding the id, one without a 0 for true
    i = next(i for i, tri in enumerate(data["triangles"]) if int(value) in tri and (not value or 0 not in tri))
    tri = data["triangles"][i]
    tri[tri.index(int(value))] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: triangles[{i}] has a boolean vertex id\n"
    assert "isometric" not in captured.out


@pytest.mark.parametrize(
    "value, message",
    [
        ("7", "triangles[3] has a str vertex id"),
        (7.0, "triangles[3] has a float vertex id"),
        (None, "triangles[3] has a null vertex id"),
        ([7], "triangles[3] has a list vertex id"),
        (2**64, "triangle vertex ids must lie in 0..2147483647"),
    ],
    ids=["str", "float", "null", "list", "above-int64"],
)
@pytest.mark.parametrize("kind", ["bare", "build"])
def test_non_integer_triangle_id_is_a_named_error(tmp_path, capsys, kind, value, message):
    # json.load reads these files after the block reader refuses them; the
    # parsed rows are checked one by one and the first bad row named
    path = tmp_path / "k.json"
    if kind == "bare":
        dump_json(triangulation_to_dict(cone_over_cycle(5)), str(path))
    else:
        assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["triangles"][3][1] = value
    path.write_text(json.dumps(data))
    for command in ("verify", "audit"):
        capsys.readouterr()
        assert main([command, "--in", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_export_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the OFF and OBJ exports of the pinned build file and bare
    # complex; the digests were taken when build files stored the positions
    # that export now derives from the ledger
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(build_path)]) == 0
    cone_path = tmp_path / "cone6.json"
    dump_json(triangulation_to_dict(cone_over_cycle(6)), str(cone_path))
    digest = {}
    for src in (build_path, cone_path):
        for fmt in ("off", "obj"):
            out = tmp_path / f"{src.stem}.{fmt}"
            assert main(["export", "--in", str(src), "--format", fmt, "--out", str(out)]) == 0
            digest[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == {
        "k.off": "5031f417c6a42bb96cc15b9329c3067f16f65a5e3ad3aa292e92a2b141c3a16f",
        "k.obj": "01a1d1593a41aa27d1b0ed2c54ab5bfbce6f6b9a157c8cb769678c82eecddff5",
        "cone6.off": "120e7c3109ed09f697396d0a6b3a5eab0572c36c84aa7ea1e2232acad5c520d3",
        "cone6.obj": "8bed096addb83bac180dd979e159d289e6041a3e79817725d8391b24d92c8c0f",
    }


@pytest.mark.parametrize("fmt", ["off", "obj"])
@pytest.mark.parametrize("kind", ["bare", "build"])
def test_export_refuses_an_id_beyond_the_vertices_before_writing(tmp_path, capsys, kind, fmt):
    from ringfill import Triangulation

    path, out = tmp_path / "k.json", tmp_path / f"k.{fmt}"
    if kind == "bare":
        dump_json(triangulation_to_dict(Triangulation(3, 3, [(0, 1, 5)])), str(path))
        top, vertices = 5, 3
    else:
        assert main(["build", "--n", "64", "--rho", "1/10", "--eta", "1/4", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        data["triangles"][5][1] = 99999
        path.write_text(json.dumps(data))
        top, vertices = 99999, 1235
    capsys.readouterr()
    assert main(["export", "--in", str(path), "--format", fmt, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: triangles reference vertex id {top}, beyond the {vertices} vertices\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "audit"])
@pytest.mark.parametrize("kind", ["bare", "build"])
def test_ragged_triangles_are_a_named_error(tmp_path, capsys, kind, command):
    path = tmp_path / "k.json"
    if kind == "bare":
        dump_json(triangulation_to_dict(cone_over_cycle(5)), str(path))
    else:
        assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["triangles"][1] = 5  # numpy cannot make an array of [[0, 1, 5], 5, ...]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([command, "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: triangles must be a list of rows of three vertex ids") and "Traceback" not in err


def _json_load(path):
    """``load_json`` as it was: ``json.load`` of the whole file, triangles as lists."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run(argv, capsys, out):
    """Exit code, stdout and stderr of ``argv``, and the bytes it wrote to ``out``, if any."""
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("tamper", [None, "ragged", "boolean"])
@pytest.mark.parametrize("kind", ["build", "bare"])
def test_commands_read_files_as_json_load_did(tmp_path, capsys, monkeypatch, kind, tamper):
    path = tmp_path / "k.json"
    if kind == "build":
        assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(path)]) == 0
    else:
        assert main(["oracle", "--n", "5", "--max-interior", "2", "--out", str(path)]) == 0
    if tamper:
        data = json.loads(path.read_text())
        rows = data["triangles"]
        if tamper == "ragged":
            rows[1] = 5
        else:  # a true in the first row with a 1 and no 0, as numpy would read it
            row = next(row for row in rows if 1 in row and 0 not in row)
            row[row.index(1)] = True
        path.write_text(json.dumps(data))
    out = tmp_path / "k.out"
    for argv in (
        ["audit", "--in", str(path)],
        ["verify", "--in", str(path)],
        ["export", "--in", str(path), "--format", "off", "--out", str(out)],
        ["export", "--in", str(path), "--format", "obj", "--out", str(out)],
    ):
        got = _run(argv, capsys, out)
        with monkeypatch.context() as m:
            m.setattr(serialize, "load_json", _json_load)
            want = _run(argv, capsys, out)
        assert got == want
        if tamper:
            assert got[0] == 1 and got[2].startswith("error: triangles")


@pytest.mark.parametrize(
    "tamper,message",
    [
        *(
            (lambda d, v=v: d.update(version=v), f"version must be 3, got {v!r}")
            for v in (4, 1, True, "3", None, 3.0)
        ),
        (lambda d: d.update(version=2, vertices=[]), "version must be 3, got 2"),
        (lambda d: d.update(vertices=[]), "a version 3 build file has no vertices field: the ledger fixes every vertex"),
        (lambda d: (d.pop("version"), d.update(ledger=[])), "version must be 3, got missing"),
    ],
    ids=["4", "1", "true", "str", "null", "float", "v2-with-vertices", "v3-with-vertices", "v1-without-vertices"],
)
def test_build_file_version_is_checked(tmp_path, capsys, tamper, message):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    tamper(data)
    build_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "within_bounds" not in captured.out


def _old_build_file_is_refused(tmp_path, capsys, command, data, message):
    path = tmp_path / "k_old.json"
    dump_json(data, str(path))
    out = tmp_path / "k.off"
    argv = [command, "--in", str(path)] + (["--format", "off", "--out", str(out)] if command == "export" else [])
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    return path


@pytest.mark.parametrize("command", ["verify", "audit", "export"])
def test_version_1_build_file_is_refused(tmp_path, capsys, command):
    # a build file as written before files were versioned: no version, and
    # vertex records that would pass as a bare complex's
    build = build_filling(Params(25, Fraction(1, 10), Fraction(1, 4)))
    data = ref.build_file_v2(build)
    data.pop("version")
    data["vertices"] = list(vertex_records(build.triangulation, build.ledger))
    _old_build_file_is_refused(tmp_path, capsys, command, data, "version must be 3, got missing")


@pytest.mark.parametrize("command", ["verify", "audit", "export"])
def test_version_2_build_file_is_refused(tmp_path, capsys, command):
    # a build file that restates its params as schedule, apex, counts and
    # ledger, in the bytes version 2 wrote
    data = ref.build_file_v2(build_filling(Params(25, Fraction(1, 10), Fraction(1, 4))))
    path = _old_build_file_is_refused(tmp_path, capsys, command, data, "version must be 3, got 2")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "836147ec7ebc34e21279e1557f6d0b4e777e0acd2758247e42818d3f50a3322e"
    )


def _refuse(*args, **kwargs):
    raise AssertionError("the loader built from params before checking the file's size")


@pytest.mark.parametrize(
    "n,rows,message",
    [
        (10**12, 30, f"error: triangles must be a list of more than n = {10**12} rows"),
        (25, 26, "error: params give 279 vertices, more than the file's 26 triangles"),
    ],
    ids=["huge-n", "fewer-triangles-than-vertices"],
)
def test_hostile_build_file_is_refused_before_the_rebuild(tmp_path, capsys, monkeypatch, n, rows, message):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    data["params"]["n"] = n
    del data["triangles"][rows:]
    build_path.write_text(json.dumps(data))
    monkeypatch.setattr(serialize, "layer_ledger", _refuse)
    if n > 25:  # the schedule is O(sqrt n) work, so at n = 10**12 it must not run either
        monkeypatch.setattr(serialize, "compute_schedule", _refuse)
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command", ["build", "verify", "audit"])
@pytest.mark.parametrize(
    "n,message",
    [(37_839, "boundary length 37839 > 37838"), (37_838, "the filling would have 513607108 triangles")],
    ids=["past-max-n", "too-many-triangles"],
)
def test_huge_n_is_rejected_before_the_ledger(capsys, monkeypatch, command, n, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the ledger was built before the size was checked")

    monkeypatch.setattr(ringfill.builder, "layer_ledger", refuse)
    assert main([command, "--n", str(n), "--rho", "1/100", "--eta", "1/20"]) == 2
    assert capsys.readouterr().err.startswith(f"rejected: {message}")


def test_bare_file_with_a_huge_n_is_refused_before_validation(tmp_path, capsys, monkeypatch):
    data = triangulation_to_dict(cone_over_cycle(3))
    data["n"] = 10**30
    path = tmp_path / "bare.json"
    dump_json(data, str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("validation ran on a boundary longer than the complex")

    monkeypatch.setattr(ringfill.simplicial, "validate_disk", refuse)
    assert main(["verify", "--in", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: boundary length {10**30} exceeds the 4 vertices: a disk bounded by C_n has at least n vertices\n"
    )


def test_export_of_a_huge_theta_is_a_named_error(tmp_path, capsys):
    # a theta past the floats, or one whose angle overflows to inf, names its
    # vertex before the output file is opened
    data = triangulation_to_dict(cone_over_cycle(3))
    path = tmp_path / "bare.json"
    for num, den in ((10**400, 1), (10**308, 1), (-(10**400), 3)):
        data["vertices"][1].update(theta_num=num, theta_den=den)
        dump_json(data, str(path))
        for fmt in ("off", "obj"):
            out = tmp_path / f"k.{fmt}"
            assert main(["export", "--in", str(path), "--format", fmt, "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: the theta of vertex 1 is too large for a float coordinate\n"
            assert not out.exists()


def _tampered_build(tmp_path, tamper):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    tamper(data)
    build_path.write_text(json.dumps(data))
    return build_path


@pytest.mark.parametrize(
    "field,tamper",
    [
        ("params.rho", lambda d: d["params"].update(rho=[None, None])),
        ("triangles", lambda d: d.pop("triangles")),
    ],
)
def test_malformed_build_file_is_a_named_error(tmp_path, capsys, field, tamper):
    build_path = _tampered_build(tmp_path, tamper)
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and "Traceback" not in err


def _subprocess_env() -> dict[str, str]:
    """This environment with the imported ``ringfill`` first on PYTHONPATH."""
    src = str(Path(ringfill.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_no_scipy():
    # Nor the thread pool (and logging) that only verify --jobs > 1 uses, nor
    # the kernel library's loader and what only it needs (numpy itself may
    # import ctypes).
    loader = {"ctypes", "subprocess", "hashlib", "numpy.ctypeslib", "ringfill._kernels"}
    code = (
        "import sys, numpy; base = set(sys.modules); import ringfill.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent', 'logging'))); "
        f"print(sorted(set(sys.modules) - base & {loader!r}), "
        "'subprocess' in sys.modules, 'hashlib' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "[] False False"]
    # numpy loads inspect, so this import runs without it
    assert _loaded_after("import ringfill.cli", ("dataclasses", "inspect")) == (0, [])


@pytest.mark.parametrize(
    "argv", [["verify", "--n", "64", "--rho", "1/10", "--eta", "1/4"], ["analyze"]], ids=["verify", "analyze"]
)
def test_command_loads_no_scipy(argv):
    code = (
        f"import sys; from ringfill.cli import main; assert main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--n", "25", "--rho", "1/10", "--eta", "1/4"],
        ["audit", "--n", "25", "--rho", "1/10", "--eta", "1/4"],
        ["verify", "--n", "25", "--rho", "1/10", "--eta", "1/4"],
        ["oracle", "--n", "5", "--max-interior", "1"],
        ["audit", "--in", "{files}/k.json"],
        ["sweep", "--n-list", "25", "--rho", "1/10", "--eta", "1/4"],
        ["analyze"],
        ["export", "--in", "{files}/k.json", "--format", "off", "--out", "{files}/k.off"],
    ],
    ids=["build", "audit", "verify", "oracle", "audit-in", "sweep", "analyze", "export"],
)
def test_command_loads_no_hashlib(argv, files):
    # importing hashlib loads OpenSSL, some 3.5 MB of resident memory; the
    # kernel library is named by importlib's source hash instead.  Nor does a
    # command load dataclasses, whose inspect and ast take longer to import
    # than a small command takes to run.
    argv = [arg.format(files=files) for arg in argv]
    code = (
        f"import sys; from ringfill.cli import main; assert main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m in ('hashlib', '_hashlib', 'dataclasses', 'inspect')), "
        "'ringfill._kernels' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == f"[] {argv[0] != 'analyze'}"


def _loaded_after(code: str, modules: tuple[str, ...]) -> tuple[int, list[str]]:
    """Exit code of ``code`` run in a fresh interpreter, and which of ``modules`` it loaded."""
    probe = f"import atexit, sys; atexit.register(lambda: print([m for m in {modules!r} if m in sys.modules]))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe + code], env=_subprocess_env(), capture_output=True, text=True
    )
    return proc.returncode, ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["ringfill", "ringfill.cli"])
def test_import_loads_no_numpy(module):
    assert _loaded_after(f"import {module}", ("numpy", "ringfill.simplicial")) == (0, [])


_VERIFY_64 = ["verify", "--n", "64", "--rho", "1/10", "--eta", "1/4", "--check-bound", "1000", "--seed", "3"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding the n = 25 build file ``k.json`` and the n = 5 oracle witness ``w.json``."""
    path = tmp_path_factory.mktemp("files")
    assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(path / "k.json")]) == 0
    assert main(["oracle", "--n", "5", "--max-interior", "1", "--out", str(path / "w.json")]) == 0
    return path


_PARAMS_25 = ["--n", "25", "--rho", "1/10", "--eta", "1/4"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], 0),
        (["verify", "--jobs", "0"], 2),
        (["analyze"], 0),
        (_VERIFY_64, 0),
        ([*_VERIFY_64, "--jobs", "2"], 0),
        (["verify", "--n", "64", "--rho", "1/10", "--eta", "1/4"], 0),
        (["build", *_PARAMS_25], 0),
        (["build", *_PARAMS_25, "--out", "{files}/out.json"], 0),
        (["audit", "--in", "{files}/k.json"], 0),
        (["verify", "--in", "{files}/k.json"], 0),
        (["audit", *_PARAMS_25], 0),
        (["oracle", "--n", "5", "--max-interior", "1", "--out", "{files}/witness.json"], 0),
        (["verify", "--in", "{files}/w.json"], 0),
        (["export", "--in", "{files}/k.json", "--format", "off", "--out", "{files}/k.off"], 0),
        (["export", "--in", "{files}/w.json", "--format", "obj", "--out", "{files}/w.obj"], 0),
        (["sweep", "--n-list", "25", "--rho", "1/10", "--eta", "1/4"], 0),
    ],
    ids=[
        "help", "usage", "analyze", "verify-bound", "verify-bound-jobs", "verify", "build", "build-out",
        "audit-in", "verify-in", "audit", "oracle-out", "verify-witness", "export-build", "export-witness", "sweep",
    ],
)
def test_command_runs_without_numpy(files, argv, code):
    argv = [arg.format(files=files) for arg in argv]
    assert _loaded_after(f"from ringfill.cli import main; sys.exit(main({argv!r}))", ("numpy",)) == (code, [])


def test_oracle_loads_only_the_search_layers():
    # The search and its validation run in the compiled kernels on stdlib
    # buffers: the complex type is loaded only to build a witness, and numpy never.
    layers = ("builder", "annuli", "analysis", "serialize", "verify", "simplicial")
    modules = ("numpy", *(f"ringfill.{m}" for m in layers))
    for argv, loaded in (
        (["oracle", "--n", "7", "--max-interior", "3"], []),
        (["oracle", "--n", "5", "--max-interior", "1"], ["ringfill.simplicial"]),
    ):
        code = f"from ringfill.cli import main; sys.exit(main({argv!r}))"
        assert _loaded_after(code, modules) == (0, loaded), argv


def test_public_names_resolve_to_their_defining_module():
    code = (
        "import ringfill; from importlib import import_module\n"
        "layer = ringfill.oracle.__name__  # a layer module is an attribute before it is imported\n"
        "listed = set(ringfill.__all__) <= set(dir(ringfill))\n"
        "homes = {name: getattr(ringfill, name).__module__ for name in ringfill.__all__}\n"
        "same = all(getattr(import_module(home), name) is getattr(ringfill, name) for name, home in homes.items())\n"
        "try:\n    ringfill.no_such_name\nexcept AttributeError as exc:\n    missing = str(exc)\n"
        "print(layer, listed, same, sorted(set(homes.values())), missing)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True)
    layers = ("analysis", "annuli", "builder", "oracle", "simplicial", "verify")
    homes = ["ringfill", *(f"ringfill.{m}" for m in layers)]
    assert proc.stdout == f"ringfill.oracle True True {homes} module 'ringfill' has no attribute 'no_such_name'\n"
    namespace: dict = {}
    exec("from ringfill import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(ringfill.__all__)


def _sampled_bound_check(build, dist, count, seed):
    """The per-pair loop that ``verify --check-bound`` ran before it was vectorised."""
    import random

    import ringfill.verify as verify

    rng = random.Random(seed)
    table = verify.separation_lower_bounds(build)
    n = build.params.n
    violations = 0
    for _ in range(count):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if table[verify.cycle_dist(a, b, n)] > dist[a, b]:
            violations += 1
            print(f"lower bound {table[verify.cycle_dist(a, b, n)]} exceeds distance {dist[a, b]} for ({a}, {b})")
    return violations


@pytest.mark.parametrize("raise_by", [0, 3], ids=["sound", "forced-violations"])
def test_bound_check_matches_the_per_pair_loop(small_build, capsys, monkeypatch, raise_by):
    import ringfill.cli as cli
    import ringfill.verify as verify

    table = verify.separation_lower_bounds
    monkeypatch.setattr(verify, "separation_lower_bounds", lambda build: [v + raise_by for v in table(build)])
    dist = verify.verify_filling(small_build.triangulation).boundary_distances
    for seed in range(5):
        want = _sampled_bound_check(small_build, dist, 100, seed), capsys.readouterr().out
        got = cli._check_bound(verify.separation_lower_bounds(small_build), dist, 100, seed), capsys.readouterr().out
        assert got == want
        assert (want[0] > 0) == (raise_by > 0) and want[1].count("\n") == want[0]
        # the numpy check it replaced, in chunks of 7 pairs with a short last one
        assert (ref.check_bound(small_build, dist, 100, seed, pairs=7), capsys.readouterr().out) == want


def test_sound_bound_check_draws_no_sample(capsys, monkeypatch):
    # the compiled pass over every pair finds no violation, so no pair is drawn
    import ringfill.cli as cli

    monkeypatch.setattr(cli, "_check_bound", lambda *args: pytest.fail("a sample was drawn"))
    assert main(_VERIFY_64) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "bound check: 1000 pairs sampled, 0 violations"


def test_bound_check_names_a_violation_the_sample_misses(capsys, monkeypatch):
    # The table raised at one separation is violated by every pair there,
    # none of which the one sampled pair is: the first in row-major order,
    # (0, sep), is named and the command fails.
    import random

    import ringfill.verify as verify

    n, seed = 25, 3
    draw = random.Random(seed).randrange
    a, b = draw(n), draw(n)
    sep = 6 if verify.cycle_dist(a, b, n) == 5 else 5
    table = verify.separation_lower_bounds

    def raised(build):
        bounds = table(build)
        bounds[sep] = sep + 1
        return bounds

    monkeypatch.setattr(verify, "separation_lower_bounds", raised)
    assert main(["verify", *_PARAMS_25, "--check-bound", "1", "--seed", str(seed)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "bound check: 1 pairs sampled, 0 violations",
        f"lower bound {sep + 1} exceeds distance {sep} for (0, {sep}): "
        "the first violation in row-major order, missed by the sample",
    ]


def test_bare_file_with_an_id_beyond_its_vertices_is_refused(tmp_path, capsys):
    from ringfill import Triangulation

    path = tmp_path / "bare.json"
    dump_json(triangulation_to_dict(Triangulation(3, 3, [(0, 1, 2), (0, 1, 5)])), str(path))
    assert main(["verify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid: ") and "delta" not in captured.out


@pytest.mark.parametrize(
    "compiler,message",
    [
        (("ringfill-no-such-compiler",), "No such file or directory"),
        ((sys.executable, "-c", "raise SystemExit('no kernel today')"), "exited 1: no kernel today"),
    ],
)
def test_unbuildable_kernel_is_a_named_error(tmp_path, capsys, monkeypatch, compiler, message):
    # every command that validates or searches needs the kernels: build, audit, verify and oracle
    from ringfill import _kernels

    monkeypatch.setattr(_kernels, "_CC", compiler)
    monkeypatch.setattr(_kernels, "_CACHE", tmp_path / "cache")
    for command, *args in (
        ("build", "--n", "25", "--rho", "1/10", "--eta", "1/4"),
        ("audit", "--n", "25", "--rho", "1/10", "--eta", "1/4"),
        ("verify", "--n", "25", "--rho", "1/10", "--eta", "1/4"),
        ("oracle", "--n", "5", "--max-interior", "2"),
    ):
        _kernels.library.cache_clear()
        try:
            assert main([command, *args]) == 1
        finally:
            _kernels.library.cache_clear()  # the next caller builds the package's own kernels
        err = capsys.readouterr().err
        assert err.startswith("error: cannot build the kernel library: ") and message in err, command
        assert err.count("\n") == 1, command  # one line, no traceback
        assert [p.name for p in (tmp_path / "cache").iterdir()] == []


def test_audit_requires_ledger(tmp_path, capsys):
    path = tmp_path / "cone5.json"
    dump_json(triangulation_to_dict(cone_over_cycle(5)), str(path))
    assert main(["audit", "--in", str(path)]) == 1
    assert "ledger" in capsys.readouterr().err


def test_bound_check_on_a_bare_complex_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    import ringfill.verify

    def _refuse(*args, **kwargs):
        raise AssertionError("boundary distances computed before the refusal")

    monkeypatch.setattr(ringfill.verify, "_graph_csr", _refuse)
    path = tmp_path / "cone5.json"
    dump_json(triangulation_to_dict(cone_over_cycle(5)), str(path))
    assert main(["verify", "--in", str(path), "--check-bound", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "bound check needs a build file with a ledger\n"
    assert captured.out == ""


def test_sweep_cli(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--n-list", "25,32", "--rho", "0.1", "--eta", "0.25", "--out", str(out)]) == 0
    assert out.read_text().startswith("n,rho,eta,vertices,density,delta")
    assert main(["sweep", "--n-list", "16", "--rho", "0.1", "--eta", "0.25"]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_oracle_cli(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    assert main(["oracle", "--n", "5", "--max-interior", "2", "--out", str(witness)]) == 0
    assert "6 vertices" in capsys.readouterr().out
    assert json.loads(witness.read_text())["n"] == 5


def test_analyze_cli(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "core inequality" in out
    assert "profile integral" in out
    assert "ordering 1/8 <= 1/6 < 1/(pi*sqrt3): True" in out


@pytest.mark.parametrize("eta", ["0", "0.25", "1"])
def test_analyze_core_inequality_is_exact(eta, capsys):
    assert main(["analyze", "--core-inequality", f"--eta={eta}"]) == 0
    assert "min slack 0, |slack| along s=1/2 max 0 (exact)" in capsys.readouterr().out


@pytest.mark.parametrize("eta", ["-1", "2"])
def test_analyze_rejects_eta_outside_unit_interval(eta, capsys):
    assert main(["analyze", "--core-inequality", f"--eta={eta}"]) == 1
    assert "error: eta must lie in [0, 1]" in capsys.readouterr().err


def test_a_bad_eta_fails_analyze_before_any_output():
    # every check that reads --eta reads it before the constants print, and
    # a huge eta is named shortened; --constants alone reads no --eta
    for eta, err in (
        ("1e999", "error: eta must lie in [0, 1], got 1000000000...0000000000\n"),
        ("nan", "error: Invalid literal for Fraction: 'nan'\n"),
        ("-1/3", "error: eta must lie in [0, 1], got -1/3\n"),
    ):
        for flags in ([], ["--core-inequality"], ["--profile-integral"], ["--constants", "--profile-integral"]):
            proc = subprocess.run([sys.executable, "-m", "ringfill.cli", "analyze", *flags, f"--eta={eta}"],
                                  capture_output=True, text=True, env=_subprocess_env())
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err), (eta, flags)
    proc = subprocess.run([sys.executable, "-m", "ringfill.cli", "analyze", "--constants", "--eta=1e999"],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0 and "ordering 1/8 <= 1/6 < 1/(pi*sqrt3): True" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--n", "32", "--rho", "1/0", "--eta", "0.25"],
        ["verify", "--n", "32", "--rho", "0.1", "--eta", "1/0"],
        ["sweep", "--n-list", "32", "--rho", "1/0", "--eta", "0.25"],
        ["analyze", "--eta", "1/0"],
    ],
    ids=lambda argv: argv[0],
)
def test_zero_denominator_on_the_command_line_is_a_named_error(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ringfill.cli", *argv],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 1
    assert "error: '1/0' has a zero denominator" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "value, shown",
    [
        ("1e10000000", "'1e10000000' (10 characters)"),
        ("1e-4301", "'1e-4301' (7 characters)"),
        ("1/" + "7" * 4301, "'1/77777777...7777777777' (4303 characters)"),
        ("0." + "0" * 4400 + "1", "'0.00000000...0000000001' (4403 characters)"),
    ],
    ids=["exponent", "negative-exponent", "denominator", "decimals"],
)
def test_hostile_parameters_are_refused_at_once(capsys, value, shown):
    # Fraction('1e10000000') alone takes 11 s, and a larger exponent hours:
    # the value is refused before it is parsed.
    start = time.perf_counter()
    assert main(["verify", "--n", "64", "--rho", "1/10", "--eta", value]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: {shown} has more than 4300 digits or a larger decimal exponent\n"


def test_largest_accepted_exponent_still_parses():
    assert ringfill.as_fraction("1e-4300") == Fraction(1, 10**4300)
    assert ringfill.as_fraction("2_5e-1") == Fraction(5, 2)


@pytest.mark.parametrize("n_list", [",", "", ",,", "25,x"], ids=["comma", "empty", "commas", "not-a-number"])
def test_sweep_without_a_boundary_length_is_a_usage_error(capsys, n_list):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n-list", n_list, "--rho", "0.1", "--eta", "0.25"])
    assert exc.value.code == 2
    assert "argument --n-list: must " in capsys.readouterr().err


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("ringfill ")]
    assert len(commands) >= 9
    for line in commands:
        argv = shlex.split(line)[1:]
        _parser(argv[0]).parse_args(argv)


_OPTIONS = {
    "build": "--n --rho --eta --out",
    "verify": "--in --n --rho --eta --jobs --out --dump-witness --check-bound --seed",
    "audit": "--in --n --rho --eta",
    "sweep": "--n-list --rho --eta --jobs --out",
    "oracle": "--n --max-interior --out",
    "analyze": "--constants --core-inequality --profile-integral --eta",
    "export": "--in --format --out",
}


def test_help_lists_every_command_and_each_command_its_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"  {{{','.join(_OPTIONS)}}}" in lines
    assert [line.split()[0] for line in lines if line.startswith("    ")] == list(_OPTIONS)
    for command, options in _OPTIONS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)
        assert set(listed) == {"--help", *options.split()}, command


def test_export_unknown_format_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--in", "x.json", "--format", "stl", "--out", "y"])
    assert exc.value.code == 2


def test_missing_source_is_an_error(capsys):
    assert main(["verify"]) == 2
    assert "--in FILE" in capsys.readouterr().err


def test_count_mismatch_is_an_error(monkeypatch, capsys):
    from ringfill.builder import Schedule

    monkeypatch.setattr(Schedule, "predicted_vertex_count", property(lambda self: -1))
    assert main(["build", "--n", "25", "--rho", "0.1", "--eta", "0.25"]) == 1
    assert "error: count mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--check-bound", "-5"],
        ["verify", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--jobs", "0"],
        ["sweep", "--n-list", "25", "--rho", "0.1", "--eta", "0.25", "--jobs", "-1"],
    ],
)
def test_nonpositive_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be a positive integer, got {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, bounds",
    [
        ("--n", str(oracle.MAX_BOUNDARY + 1), "3..7"),
        ("--n", "2", "3..7"),
        ("--n", "12345678901234567890", "3..7"),
        ("--max-interior", "-1", "0..4"),
        ("--max-interior", str(oracle.MAX_INTERIOR + 1), "0..4"),
        ("--max-interior", "12345678901234567890", "0..4"),
    ],
)
def test_oracle_bounds_are_usage_errors(option, value, bounds, capsys):
    # The parser's bounds are the search's: one past either end of each is refused before any search.
    argv = ["oracle", "--n", "5", option, value] if option != "--n" else ["oracle", "--n", value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: must lie in {bounds}, got {value}" in capsys.readouterr().err
    assert main(["oracle", "--n", "3", "--max-interior", "0"]) == 0
    assert capsys.readouterr().out.startswith("n=3: minimum isometric filling has 3 vertices")
