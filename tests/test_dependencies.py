"""The package needs nothing beyond the standard library and a C compiler at run time.

numpy is a test dependency only: the tests use it as an independent
reference and hand the kernels numpy arrays, but every public function runs
with numpy blocked from import.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringfill

ROOT = Path(__file__).resolve().parents[1]

# Runs the public API with ``import numpy`` refused, and prints the name and
# error of every step that fails (an empty list when all run).
_WITHOUT_NUMPY = r"""
import sys
sys.modules["numpy"] = None  # every import of numpy now raises ModuleNotFoundError

from array import array
from fractions import Fraction
from pathlib import Path

from ringfill import (
    EnumerationBudget, Params, annulus_triangles, boundary_distance_matrix, build_filling, check_core_inequality,
    cone_over_cycle, cone_triangles, constants_report, drift_audit, drift_integral, enumerate_fillings,
    is_isometric_filling, min_isometric_vertices, profile_integral, run_sweep, separation_lower_bounds,
    step_profile_eps, validate_disk, verify_filling, vertex_count_lower_bound,
)
from ringfill import oracle, serialize

out = Path(sys.argv[1])
failed = []


def step(name, check):
    try:
        if not check():
            failed.append(f"{name}: wrong result")
    except Exception as exc:
        failed.append(f"{name}: {type(exc).__name__}: {exc}")


def stack(fillings):
    rows = array("i", (x for f in fillings for row in f.triangles.tolist() for x in row))
    return memoryview(rows).cast("B").cast("i", (len(fillings), fillings[0].num_triangles, 3))


build = build_filling(Params(64, Fraction(1, 10), Fraction(1, 4)))
t = build.triangulation
step("validate_disk", lambda: validate_disk(t).ok)
step("verify_filling", lambda: verify_filling(t, jobs=1).delta == verify_filling(t, jobs=2).delta == 1)
step("boundary_distance_matrix", lambda: boundary_distance_matrix(t, jobs=2).tolist()[0][32] == 32)
step("drift_audit", lambda: drift_audit(build).ok)
step("separation_lower_bounds", lambda: len(separation_lower_bounds(build)) == 33)
step("step_profile_eps", lambda: step_profile_eps(build) > 0)
step("annulus_triangles", lambda: len(annulus_triangles(*build.ledger[:2])) > 0)
step("cone_triangles", lambda: len(cone_triangles(build.ledger[-1])) == build.ledger[-1].length)
fillings = []
step("enumerate_fillings", lambda: fillings.extend(enumerate_fillings(EnumerationBudget(5, 1))) or len(fillings) == 21)
step("validate_disk_batch", lambda: oracle.validate_disk_batch(5, 6, stack(fillings)).tolist() == [True] * 21)
step("is_isometric_filling", lambda: is_isometric_filling(cone_over_cycle(5)))
step("min_isometric_vertices", lambda: min_isometric_vertices(6).min_vertices == 9)


def round_trip():
    serialize.dump_json(serialize.build_to_dict(build), str(out / "build.json"))
    loaded = serialize.build_from_dict(serialize.load_json(str(out / "build.json")))
    return loaded.triangulation.triangles.tobytes() == t.triangles.tobytes()


def meshes():
    records = list(serialize.vertex_records(t, build.ledger))
    serialize.write_off(t, str(out / "k.off"), records)
    serialize.write_obj(t, str(out / "k.obj"), records)
    return (out / "k.off").read_text().startswith("OFF") and (out / "k.obj").stat().st_size > 0


step("build file round trip", round_trip)
step("write_off, write_obj", meshes)
step("run_sweep", lambda: [row.error for row in run_sweep([32, 48], "1/10", "1/4", csv_path=str(out / "s.csv"))] == [None] * 2)
step("check_core_inequality", lambda: check_core_inequality("1/4").ok)
step("profile_integral", lambda: profile_integral("1/4").error == 0)
step("constants_report", lambda: constants_report() is not None)
step("drift_integral", lambda: drift_integral(0.5) > 0)
step("vertex_count_lower_bound", lambda: vertex_count_lower_bound(64) > 0)
print(failed)
"""


def test_the_public_api_runs_without_numpy(tmp_path):
    src = str(Path(ringfill.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    assert done.stdout == "[]\n"


def test_numpy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    assert any(spec.startswith("numpy") for spec in project["optional-dependencies"]["test"])
