"""End-to-end and per-layer benchmark of the ``ringfill`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one after another

Run from the root of a source checkout; the program is taken from ``src/``.

With ``--trace 0`` each workload runs as ``ringfill`` child processes, one
per command, one command at a time (a closed loop with a single client).  A
run first starts Python and imports ``ringfill.cli`` several times
(``setup_s``), then repeats the workload's commands until ``--seconds`` have
passed and at least three times, and reports medians.  Every command's
output is checked against values observed on the construction's reference
commit; a failed check or a nonzero exit counts as a failure.

With ``--trace 1`` the run repeats the untraced commands the same way, then
replays each command once in a child that calls the same public functions in
the same order and records one span per call (``tracer.py``).  Spans are
written as JSON lines to ``perfbench/out/<workload>/spans.jsonl``; the
per-layer metrics are computed from them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name and unit, ``fail_ratio`` and the context of the
result (commit, ``nproc``, Python, numpy and scipy versions, seed).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"

RUN_LIMIT_S = 170.0  # every run ends within the 180 s a run may take
SETUP_SAMPLES = 3
# The host's speed changes from one burst to the next, so a run reports the
# median of at least three repetitions of small inputs rather than a single
# large one.
REPETITIONS = 3
LAYERS = ("cli", "builder", "simplicial", "verify", "serialize", "oracle")


@dataclass(frozen=True)
class Command:
    """One ``ringfill`` invocation and the outputs it must produce.

    ``argv`` follows the program name; ``{seed}`` and ``{file}`` are filled
    in per run.  ``expect`` is checked on both the untraced and the traced
    run; ``traced_expect`` holds values the command does not print, checked
    on the traced run only.
    """

    argv: tuple[str, ...]
    expect: dict[str, str]
    traced_expect: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    """Commands run in order; ``BENCHMARK.json`` records why each workload is there."""

    name: str
    commands: tuple[Command, ...]


# Expected outputs are those of the construction at (rho, eta) = (1/10, 1/4).
# Inputs are sized so that one repetition takes a few seconds (see REPETITIONS).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-n320",
            (
                Command(
                    ("verify", "--n", "320", "--rho", "1/10", "--eta", "1/4", "--jobs", "1",
                     "--check-bound", "10000", "--seed", "{seed}"),
                    {"n": "320", "delta": "1", "isometric": "True", "violations": "0"},
                    {"vertices": "31111", "triangles": "61900"},
                ),
            ),
        ),
        Workload(
            "roundtrip-n384",
            (
                Command(
                    ("build", "--n", "384", "--rho", "1/10", "--eta", "1/4", "--out", "{file}"),
                    {"vertices": "42693", "triangles": "85000", "edges": "127692"},
                ),
                Command(
                    ("audit", "--in", "{file}"),
                    {"within_bounds": "True", "tight": "119/119"},
                ),
            ),
        ),
        Workload(
            "oracle-n7-k3",
            (
                Command(
                    ("oracle", "--n", "7", "--max-interior", "3"),
                    {"min_vertices": "unknown", "candidates": "18852"},
                ),
            ),
        ),
    )
}

# Values each command prints, parsed back for the checks.
_PATTERNS = {
    "verify": (
        re.compile(r"^n=(?P<n>\d+) delta=(?P<delta>\S+) \(.*\) isometric=(?P<isometric>\w+)$", re.M),
        re.compile(r"^bound check: \d+ pairs sampled, (?P<violations>\d+) violations$", re.M),
    ),
    "build": (
        re.compile(
            r"^n=(?P<n>\d+) vertices=(?P<vertices>\d+) triangles=(?P<triangles>\d+) edges=(?P<edges>\d+)$",
            re.M,
        ),
    ),
    "audit": (
        re.compile(r"^n=(?P<n>\d+) annuli=(?P<annuli>\d+) within_bounds=(?P<within_bounds>\w+)$", re.M),
        re.compile(r"exactly: (?P<tight>\d+/\d+)$", re.M),
    ),
    "oracle": (
        re.compile(r"minimum isometric filling has (?P<min_vertices>\d+) vertices$", re.M),
        re.compile(r"; minimum (?P<min_vertices>unknown)", re.M),
        re.compile(r"^candidates examined: (?P<candidates>\d+)$", re.M),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: (unit, span name, how the span values are combined).
# "s" sums durations, "rss" takes the highest peak RSS at span end, and a
# count name sums (or for the margin, takes the least of) that span count.
_SPAN_METRICS = {
    "builder.schedule_s": ("s", "builder.schedule", "s"),
    "builder.build_s": ("s", "builder.build", "s"),
    "builder.build_rss_mb": ("MB", "builder.build", "rss"),
    "builder.vertices": ("count", "builder.build", "vertices"),
    "builder.triangles": ("count", "builder.build", "triangles"),
    "simplicial.edges_s": ("s", "simplicial.edges", "s"),
    "simplicial.validate_s": ("s", "simplicial.validate", "s"),
    "simplicial.validate_rss_mb": ("MB", "simplicial.validate", "rss"),
    "simplicial.edges": ("count", "simplicial.edges", "edges"),
    "simplicial.validate_small_s": ("s", "simplicial.validate_small", "s"),
    "simplicial.validate_calls": ("count", "simplicial.validate_small", "spans"),
    "verify.verify_s": ("s", "verify.verify", "s"),
    "verify.verify_rss_mb": ("MB", "verify.verify", "rss"),
    "verify.bfs_sources": ("count", "verify.verify", "bfs_sources"),
    "verify.eps_s": ("s", "verify.eps", "s"),
    "verify.lb_table_s": ("s", "verify.lb_table", "s"),
    "verify.lb_min_margin": ("count", "verify.lb_table", "lb_min_margin"),
    "verify.audit_s": ("s", "verify.audit", "s"),
    "verify.audit_rss_mb": ("MB", "verify.audit", "rss"),
    "serialize.to_dict_s": ("s", "serialize.to_dict", "s"),
    "serialize.dump_s": ("s", "serialize.dump", "s"),
    "serialize.load_s": ("s", "serialize.load", "s"),
    "serialize.from_dict_s": ("s", "serialize.from_dict", "s"),
    "serialize.load_rss_mb": ("MB", "serialize.from_dict", "rss"),
    "serialize.file_mb": ("MB", "serialize.dump", "file_mb"),
    "oracle.enumerate_s": ("s", "oracle.enumerate", "s"),
    "oracle.isometry_s": ("s", "oracle.isometry", "s"),
    "oracle.candidates": ("count", "oracle.isometry", "spans"),
    "oracle.duplicates": ("count", "oracle.enumerate", "duplicates"),
    "cli.import_s": ("s", "cli.import", "s"),
    "cli.build_s": ("s", "cli.build", "s"),
    "cli.audit_s": ("s", "cli.audit", "s"),
    "cli.verify_s": ("s", "cli.verify", "s"),
    "cli.oracle_s": ("s", "cli.oracle", "s"),
}

PER_LAYER = {name: spec[0] for name, spec in _SPAN_METRICS.items()}
PER_LAYER["cli.cpu_s"] = "s"
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({"trace.total_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})


@dataclass
class Child:
    """One finished child process, measured from launch to exit."""

    returncode: int
    started: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Checks:
    """Counts correctness checks and keeps the description of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def outputs(self, label: str, observed: dict[str, str], expected: dict[str, str]) -> None:
        for key, want in expected.items():
            got = observed.get(key)
            self.check(got == want, f"{label}: {key} = {got!r}, expected {want!r}")

    def child(self, label: str, child: Child) -> bool:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        return self.check(child.returncode == 0, f"{label}: exit code {child.returncode} {tail[0]}")


def spawn(argv: list[str], env: dict[str, str], deadline: float, scratch: Path) -> Child:
    """Run ``argv`` to completion and read its own rusage with ``os.wait4``.

    Standard output and error go to unnamed temporary files in ``scratch``,
    so the wait is on the child alone.  A child still running at
    ``deadline`` is killed.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            returncode=proc.returncode,
            started=start,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("RINGFILL_JOBS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def parse_output(command: str, stdout: str) -> dict[str, str]:
    observed: dict[str, str] = {}
    for pattern in _PATTERNS[command]:
        match = pattern.search(stdout)
        if match:
            observed.update(match.groupdict())
    return observed


def context(seed: int) -> dict[str, object]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
    }


class Runner:
    """Executes one workload for one seed and collects its measurements."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.out_dir = out_dir
        self.env = child_env()
        self.checks = Checks()
        self.file = str(out_dir / "build.json")

    def argv(self, command: Command) -> list[str]:
        return [arg.format(seed=self.seed, file=self.file) for arg in command.argv]

    def setup(self, count: int) -> list[float]:
        """Seconds to start Python and import ``ringfill.cli``, once per sample."""
        samples = []
        for i in range(count):
            child = spawn([sys.executable, "-c", "import ringfill.cli"], self.env, self.deadline, self.out_dir)
            self.checks.child(f"setup sample {i}", child)
            samples.append(child.wall_s)
        return samples

    def execute(self) -> list[Child]:
        """One repetition of the workload, each command checked."""
        children = []
        for command in self.workload.commands:
            argv = [sys.executable, "-m", "ringfill.cli", *self.argv(command)]
            child = spawn(argv, self.env, self.deadline, self.out_dir)
            children.append(child)
            if self.checks.child(command.name, child):
                self.checks.outputs(command.name, parse_output(command.name, child.stdout), command.expect)
        self._remove_file()
        return children

    def repeat(self, seconds: float, minimum: int) -> list[list[Child]]:
        """Repeat the workload until ``seconds`` have passed and ``minimum`` repetitions ran."""
        runs = []
        start = time.perf_counter()
        while True:
            children = self.execute()
            runs.append(children)
            last = sum(child.wall_s for child in children)
            now = time.perf_counter()
            if (len(runs) >= minimum and now - start >= seconds) or now + last > self.deadline:
                return runs

    def traced(self, run_id: str, spans_path: Path) -> list[dict]:
        """Replay each command once under the tracer; return every span."""
        spans_path.unlink(missing_ok=True)
        roots = []
        for i, command in enumerate(self.workload.commands):
            root = f"{run_id}/{i}"
            argv = [
                sys.executable, str(TRACER), "--spans", str(spans_path), "--run", run_id,
                "--parent", root, "--", *self.argv(command),
            ]
            child = spawn(argv, self.env, self.deadline, self.out_dir)
            roots.append(
                {"run": run_id, "id": root, "parent": None, "name": f"cli.{command.name}",
                 "start": child.started, "end": child.started + child.wall_s, "rss_mb": child.peak_rss_mb}
            )
            label = f"traced {command.name}"
            if self.checks.child(label, child):
                lines = child.stdout.strip().splitlines()
                observed = json.loads(lines[-1]) if lines else {}
                self.checks.outputs(label, observed, {**command.expect, **command.traced_expect})
        self._remove_file()
        with spans_path.open("a", encoding="utf-8") as fh:
            for span in roots:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        return load_spans(spans_path)

    def _remove_file(self) -> None:
        Path(self.file).unlink(missing_ok=True)


def load_spans(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of each span not covered by its child spans, keyed by span id."""
    covered: dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - covered.get(span["id"], 0.0) for span in spans}


def per_layer_metrics(spans: list[dict], untraced_wall_s: float, cpu_s: float) -> dict[str, float]:
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    metrics: dict[str, float] = {}
    for metric, (_, name, how) in _SPAN_METRICS.items():
        group = by_name.get(name, [])
        if how == "s":
            value = sum(span["end"] - span["start"] for span in group)
        elif how == "rss":
            value = max((span["rss_mb"] for span in group), default=0.0)
        elif how == "spans":
            value = len(group)
        else:
            counts = [span["counts"][how] for span in group if how in span.get("counts", {})]
            value = (min(counts, default=0) if how == "lb_min_margin" else sum(counts))
        metrics[metric] = value
    metrics["cli.cpu_s"] = cpu_s
    selfs = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            selfs[span["id"]] for span in spans if span["name"].split(".")[0] == layer
        )
    total = sum(span["end"] - span["start"] for span in spans if span["parent"] is None)
    metrics["trace.total_s"] = total
    metrics["trace.overhead_s"] = total - untraced_wall_s
    metrics["trace.spans"] = len(spans)
    return metrics


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_root: Path,
    setup_samples: int = SETUP_SAMPLES,
    repetitions: int = REPETITIONS,
) -> dict:
    """Measure one workload; return the result object the benchmark prints."""
    started = time.perf_counter()
    out_dir = out_root / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, out_dir, started + RUN_LIMIT_S)

    setup = [] if trace else runner.setup(setup_samples)
    runs = runner.repeat(seconds, repetitions)
    walls = [sum(child.wall_s for child in children) for children in runs]
    peaks = [max(child.peak_rss_mb for child in children) for children in runs]
    cpus = [sum(child.cpu_s for child in children) for children in runs]

    if trace:
        run_id = f"{workload.name}-seed{seed}-pid{os.getpid()}"
        spans = runner.traced(run_id, out_dir / "spans.jsonl")
        values = per_layer_metrics(spans, statistics.median(walls), statistics.median(cpus))
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(peaks),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END

    checks = runner.checks
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "trace": int(trace),
        "context": context(seed),
        "repetitions": len(runs),
        "samples": {"wall_s": walls, "peak_rss_mb": peaks, "cpu_s": cpus, "setup_s": setup},
        "failures": checks.failures,
        "result": result,
    }
    with (out_dir / f"result-trace{int(trace)}.json").open("w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    report(record)
    return result


def report(record: dict) -> None:
    result = record["result"]
    ctx = " ".join(f"{key}={value}" for key, value in record["context"].items())
    print(f"[{record['workload']}] context: {ctx}")
    print(f"[{record['workload']}] repetitions: {record['repetitions']}")
    for name, metric in result["metrics"].items():
        print(f"[{record['workload']}] {name} = {metric['value']!r} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"[{record['workload']}] fail_ratio = {ratio!r} ratio "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for failure in record["failures"]:
        print(f"[{record['workload']}] FAILED {failure}")


def combine(results: dict[str, dict]) -> dict:
    """One result object for several workloads, metrics prefixed by workload."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the normal path on SIGTERM, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ringfill" / "cli.py").is_file():
        print(f"error: no ringfill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = HERE / "out"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), out_root)
        for name in names
    }
    result = results[names[0]] if len(names) == 1 else combine(results)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
