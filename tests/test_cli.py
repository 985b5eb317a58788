import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ringfill
import ringfill.serialize as serialize
from ringfill.cli import _parser, main
from ringfill.serialize import dump_json, triangulation_to_dict, vertex_records
from ringfill import Params, build_filling, cone_over_cycle


def test_build_writes_json(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert main(["build", "--n", "32", "--rho", "0.1", "--eta", "0.25", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert list(data)[:2] == ["version", "n"] and data["version"] == 2 and data["n"] == 32
    assert "ledger" in data and "schedule" in data and "vertices" not in data
    printed = capsys.readouterr().out
    assert "vertices=" in printed and "density=" in printed


def test_build_rejects_bad_eta(capsys):
    assert main(["build", "--n", "100", "--rho", "0.01", "--eta", "0.2"]) == 2
    assert "eta^2 < rho violated" in capsys.readouterr().err


def test_eta_rejection_prints_exact_rationals(capsys):
    # as floats, a positive rho of 1e-400 printed as 0.0
    assert main(["build", "--n", "64", "--rho", "1e-400", "--eta", "0.25"]) == 2
    assert capsys.readouterr().err == f"rejected: eta^2 < rho violated (1/16 >= 1/{10**400})\n"


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
    assert header.split()[0] == str(json.loads(build_path.read_text())["predicted_vertex_count"])


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


def test_audit_catches_tampered_phase(tmp_path, capsys):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "1/10", "--eta", "1/4", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    # turn cycle 3 a quarter turn: every vertex of it would move off its
    # position, so the ledger no longer restates the one its params give
    cycle = data["ledger"][3]
    cycle["phase_num"] = cycle["phase_num"] * 4 + 25 * cycle["phase_den"]
    cycle["phase_den"] *= 4
    build_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ledger[3].phase_num = ") and "disagrees with the ledger rebuilt from params" in err


def test_audit_catches_tampered_triangle(tmp_path, capsys):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    layer_of = {cycle["first_vertex"] + i: cycle["index"] for cycle in data["ledger"] for i in range(cycle["length"])}
    layer_of[data["apex"]] = len(data["ledger"])
    # a triangle of annulus 2 with one vertex on cycle 3: move that inner
    # endpoint of its slanted edges three steps along cycle 3
    tri = next(t for t in data["triangles"] if sorted(layer_of[v] for v in t) == [2, 2, 3])
    k = next(j for j, v in enumerate(tri) if layer_of[v] == 3)
    cycle = data["ledger"][3]
    tri[k] = cycle["first_vertex"] + (tri[k] - cycle["first_vertex"] + 3) % cycle["length"]
    build_path.write_text(json.dumps(data))
    assert main(["audit", "--in", str(build_path)]) == 1
    assert "violation: annulus 2 (collar)" in capsys.readouterr().err


def test_audit_validates_the_loaded_triangles(tmp_path, capsys):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    del data["triangles"][100]  # leaves a hole: the drift audit alone sees nothing wrong
    build_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    err = capsys.readouterr().err
    assert "invalid: unexpected boundary edges" in err
    assert "violation" not in err


@pytest.mark.parametrize("flip", ["layer-skipping", "chord", "apex"])
def test_audit_refuses_an_edge_of_no_annulus(tmp_path, capsys, flipped_builds, flip):
    build, line = flipped_builds[flip]
    build_path = tmp_path / "k.json"
    dump_json(serialize.build_to_dict(build), str(build_path))
    assert main(["audit", "--in", str(build_path)]) == 1
    captured = capsys.readouterr()
    assert "within_bounds=False" in captured.out
    assert f"violation: {line}\n" in captured.err and "invalid" not in captured.err


@pytest.mark.parametrize("field", ["phase_den", "rho"])
def test_zero_denominator_is_a_named_error(tmp_path, capsys, field):
    build_path = tmp_path / "k.json"
    assert main(["build", "--n", "25", "--rho", "0.1", "--eta", "0.25", "--out", str(build_path)]) == 0
    data = json.loads(build_path.read_text())
    if field == "phase_den":
        data["ledger"][2]["phase_den"] = 0
    else:
        data["params"]["rho"][1] = 0
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
        "k.json": "836147ec7ebc34e21279e1557f6d0b4e777e0acd2758247e42818d3f50a3322e",
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
            (lambda d, v=v: d.update(version=v), f"version must be 2, got {v!r}")
            for v in (3, 1, True, "2", None, 2.0)
        ),
        (lambda d: d.update(vertices=[]), "a version 2 build file has no vertices field: the ledger fixes every vertex"),
        (lambda d: d.pop("version"), "version must be 2, got missing"),
    ],
    ids=["3", "1", "true", "str", "null", "float", "v2-with-vertices", "v1-without-vertices"],
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


@pytest.mark.parametrize("command", ["verify", "audit", "export"])
def test_version_1_build_file_is_refused(tmp_path, capsys, command):
    # a build file as written before files were versioned: no version, and
    # vertex records that would pass as a bare complex's
    build = build_filling(Params(25, Fraction(1, 10), Fraction(1, 4)))
    data = serialize.build_to_dict(build)
    data.pop("version")
    data["vertices"] = list(vertex_records(build.triangulation, build.ledger))
    path = tmp_path / "k_v1.json"
    dump_json(data, str(path))
    out = tmp_path / "k.off"
    argv = [command, "--in", str(path)] + (["--format", "off", "--out", str(out)] if command == "export" else [])
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: version must be 2, got missing\n"
    assert not out.exists()


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
    data["n"] = data["params"]["n"] = n
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
    data = triangulation_to_dict(cone_over_cycle(3))
    data["vertices"][1]["theta_num"] = 10**400
    path = tmp_path / "bare.json"
    dump_json(data, str(path))
    assert main(["export", "--in", str(path), "--format", "off", "--out", str(tmp_path / "k.off")]) == 1
    assert capsys.readouterr().err == "error: integer division result too large for a float\n"


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
        ("apex", lambda d: d.update(apex="x")),
        ("schedule", lambda d: d.pop("schedule")),
        ("triangles", lambda d: d.pop("triangles")),
        ("ledger", lambda d: d.pop("ledger")),  # still a build file: it has a version
    ],
)
def test_malformed_build_file_is_a_named_error(tmp_path, capsys, field, tamper):
    build_path = _tampered_build(tmp_path, tamper)
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field,tamper",
    [
        ("ledger[2].drift_num", lambda d: d["ledger"][2].update(drift_num=3 * d["ledger"][2]["drift_num"])),
        (
            "schedule.layers_per_block",
            lambda d: d["schedule"].update(layers_per_block=d["schedule"]["layers_per_block"] + 1),
        ),
        ("predicted_vertex_count", lambda d: d.update(predicted_vertex_count=d["predicted_vertex_count"] + 7)),
    ],
)
def test_build_file_must_match_its_params(tmp_path, capsys, field, tamper):
    # each field is determined by params; a file that restates it wrongly is rejected, not audited
    build_path = _tampered_build(tmp_path, tamper)
    capsys.readouterr()
    assert main(["audit", "--in", str(build_path)]) == 1
    captured = capsys.readouterr()
    assert f"error: {field} = " in captured.err and "rebuilt from params" in captured.err
    assert "within_bounds" not in captured.out


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
    ],
    ids=["build", "audit", "verify", "oracle"],
)
def test_command_loads_no_hashlib(argv):
    # importing hashlib loads OpenSSL, some 3.5 MB of resident memory; the
    # kernel library is named by importlib's source hash instead
    code = (
        f"import sys; from ringfill.cli import main; assert main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m in ('hashlib', '_hashlib')), 'ringfill._kernels' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[] True"


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


@pytest.mark.parametrize(
    "argv,code", [(["--help"], 0), (["verify", "--jobs", "0"], 2), (["analyze"], 0)], ids=["help", "usage", "analyze"]
)
def test_command_runs_without_numpy(argv, code):
    assert _loaded_after(f"from ringfill.cli import main; sys.exit(main({argv!r}))", ("numpy",)) == (code, [])


def test_oracle_loads_only_the_search_layers():
    # The search and its validation run in the compiled kernels on stdlib
    # buffers: numpy and the complex type are loaded only to build a witness.
    layers = ("builder", "annuli", "analysis", "serialize", "verify", "simplicial")
    modules = ("numpy", *(f"ringfill.{m}" for m in layers))
    for argv, loaded in (
        (["oracle", "--n", "7", "--max-interior", "3"], []),
        (["oracle", "--n", "5", "--max-interior", "1"], ["numpy", "ringfill.simplicial"]),
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
    monkeypatch.setattr(cli, "_PAIRS", 7)  # several chunks, the last one short
    dist = verify.verify_filling(small_build.triangulation).boundary_distances
    for seed in range(5):
        want = _sampled_bound_check(small_build, dist, 100, seed), capsys.readouterr().out
        got = cli._check_bound(small_build, dist, 100, seed), capsys.readouterr().out
        assert got == want
        assert (want[0] > 0) == (raise_by > 0) and want[1].count("\n") == want[0]


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


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("ringfill ")]
    assert len(commands) >= 9
    for line in commands:
        _parser().parse_args(shlex.split(line)[1:])


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
