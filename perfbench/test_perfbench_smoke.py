"""Smoke test of the benchmark driver on tiny inputs (n = 64, oracle n = 5).

    python3 -m pytest -q perfbench/test_perfbench_smoke.py

Runs the same driver code as the real workloads, checks the result objects
against ``BENCHMARK.json`` and that the spans account for the traced time.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = (
    run.Workload(
        "verify-n64",
        (
            run.Command(
                ("verify", "--n", "64", "--rho", "1/10", "--eta", "1/4", "--jobs", "1",
                 "--check-bound", "200", "--seed", "{seed}"),
                {"n": "64", "delta": "1", "isometric": "True", "violations": "0"},
                {"vertices": "1235", "triangles": "2404"},
            ),
        ),
    ),
    run.Workload(
        "roundtrip-n64",
        (
            run.Command(
                ("build", "--n", "64", "--rho", "1/10", "--eta", "1/4", "--out", "{file}"),
                {"vertices": "1235", "triangles": "2404", "edges": "3638"},
            ),
            run.Command(("audit", "--in", "{file}"), {"within_bounds": "True", "tight": "15/15"}),
        ),
    ),
    run.Workload(
        "oracle-n5",
        (run.Command(("oracle", "--n", "5", "--max-interior", "4"), {"min_vertices": "6", "candidates": "11"}),),
    ),
    run.Workload(
        "oracle-n5-k0",
        (run.Command(("oracle", "--n", "5", "--max-interior", "0"), {"min_vertices": "unknown", "candidates": "5"}),),
    ),
)


def _names(section: str) -> list[str]:
    return [metric["name"] for metric in SPEC[section]]


def test_spec_matches_driver():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _names("end_to_end") == list(run.END_TO_END)
    assert _names("per_layer") == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]} == {
        **run.END_TO_END,
        **run.PER_LAYER,
    }


def test_untraced_run(tmp_path):
    result = run.run_workload(
        TINY[1], seed=3, seconds=0, trace=False, out_root=tmp_path, setup_samples=1, repetitions=1
    )
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == 1 + 2 + 5  # setup probe, two exit codes, five outputs
    assert list(result["metrics"]) == _names("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert not (tmp_path / TINY[1].name / "build.json").exists()


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run(tmp_path, workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=True, out_root=tmp_path, repetitions=1)
    assert (result["correct"], result["failed"]) == (True, 0)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert list(metrics) == _names("per_layer")

    spans = run.load_spans(tmp_path / workload.name / "spans.jsonl")
    assert {span["run"] for span in spans} == {spans[0]["run"]}
    roots = [span for span in spans if span["parent"] is None]
    assert [span["name"] for span in roots] == [f"cli.{c.name}" for c in workload.commands]
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layer_self == pytest.approx(metrics["trace.total_s"], rel=1e-9)
    assert metrics["cli.import_s"] > 0 and metrics["cli.cpu_s"] > 0
    if workload.name.startswith("oracle"):
        assert metrics["oracle.candidates"] == int(workload.commands[0].expect["candidates"])
        assert metrics["simplicial.validate_calls"] >= metrics["oracle.candidates"]
    else:
        assert metrics["builder.vertices"] == 1235
        assert metrics["builder.build_rss_mb"] > 0
    if workload.name.startswith("verify"):
        assert metrics["verify.bfs_sources"] == 64
        assert metrics["verify.lb_min_margin"] == -2  # the table falls short at s = 31, 32
    if workload.name.startswith("roundtrip"):
        assert metrics["serialize.file_mb"] > 0
        assert metrics["cli.build_s"] > 0 and metrics["cli.audit_s"] > 0


def test_wrong_output_counts_as_failure(tmp_path):
    command = run.Command(TINY[2].commands[0].argv, {"min_vertices": "5", "candidates": "11"})
    result = run.run_workload(
        run.Workload("oracle-n5-wrong", (command,)), seed=1, seconds=0, trace=False,
        out_root=tmp_path, setup_samples=1, repetitions=1,
    )
    assert (result["correct"], result["failed"], result["attempted"]) == (False, 1, 4)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = ["perfbench/run.py", "--workload", next(iter(run.WORKLOADS)), "--seed", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
