"""Traced in-process replay of one ``ringfill`` command.

    python3 perfbench/tracer.py --spans FILE --run RUN --parent ID -- COMMAND ARGS...

Runs the public functions that ``ringfill COMMAND ARGS...`` calls, in the
order the command line calls them, and records one span per call: name,
start, end, parent span, run id, the process's peak RSS at the span's end
and the counts measured at that boundary.  Spans stay in memory and are
appended to FILE as JSON lines when the command ends.  The last line of
standard output is a JSON object with the outputs the benchmark checks, under
the same keys the benchmark parses from the untraced command's output.

Only the argument forms the benchmark's workloads use are supported.  Start
times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so they line up with the parent's spans.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import ringfill.cli  # noqa: E402,F401  (the import the command line pays)

_T_IMPORTED = time.perf_counter()

from ringfill.builder import Params, as_fraction, build_filling, compute_schedule, predict_density  # noqa: E402
from ringfill.oracle import (  # noqa: E402
    EnumerationBudget,
    EnumerationStats,
    enumerate_fillings,
    is_isometric_filling,
)
from ringfill.serialize import build_to_dict, complex_from_dict, dump_json, load_json  # noqa: E402
from ringfill.simplicial import validate_disk  # noqa: E402
from ringfill.verify import (  # noqa: E402
    cycle_dist,
    drift_audit,
    separation_lower_bounds,
    step_profile_eps,
    verify_filling,
)


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory span recorder for one traced command.

    Every span is a child of the command's root span, which the parent
    process records around the whole child process.
    """

    def __init__(self, run: str, parent: str) -> None:
        self.run = run
        self.parent = parent
        self.spans: list[dict] = []

    def record(self, name: str, start: float, end: float, rss: bool = False, counts: dict | None = None) -> dict:
        span = {
            "run": self.run,
            "id": f"{self.parent}.{len(self.spans)}",
            "parent": self.parent,
            "name": name,
            "start": start,
            "end": end,
        }
        if rss:
            span["rss_mb"] = peak_rss_mb()
        if counts is not None:
            span["counts"] = counts
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, rss: bool = False):
        """Time the body; counts set on the yielded dict, even after it ends, belong to the span."""
        counts: dict = {}
        start = time.perf_counter()
        try:
            yield counts
        finally:
            self.record(name, start, time.perf_counter(), rss, counts)

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _params(args: argparse.Namespace) -> Params:
    return Params(args.n, as_fraction(args.rho), as_fraction(args.eta))


def _build(tr: Tracer, params: Params):
    """``build_filling`` with its schedule timed on its own first."""
    with tr.span("builder.schedule"):
        compute_schedule(params)
    with tr.span("builder.build", rss=True) as counts:
        build = build_filling(params)
        counts["vertices"] = build.triangulation.num_vertices
        counts["triangles"] = build.triangulation.num_triangles
    return build


def _validate(tr: Tracer, t) -> None:
    """Edge incidence first, so its cost is not hidden inside validation."""
    with tr.span("simplicial.edges") as counts:
        counts["edges"] = t.num_edges
    with tr.span("simplicial.validate", rss=True):
        report = validate_disk(t)
    if not report.ok:
        raise SystemExit(f"invalid complex: {report.failures[:3]}")


def trace_verify(tr: Tracer, args: argparse.Namespace) -> dict:
    build = _build(tr, _params(args))
    t = build.triangulation
    _validate(tr, t)
    with tr.span("verify.verify", rss=True) as counts:
        report = verify_filling(t, jobs=args.jobs)
        counts["bfs_sources"] = t.n
    with tr.span("verify.eps"):
        report.eps = step_profile_eps(build)
    out = {
        "n": str(report.n),
        "delta": str(report.delta),
        "isometric": str(report.is_isometric),
        "vertices": str(t.num_vertices),
        "triangles": str(t.num_triangles),
    }
    if args.check_bound:
        with tr.span("verify.lb_table") as counts:
            table = separation_lower_bounds(build)
        counts["lb_min_margin"] = min(table[s] - s for s in range(1, len(table)))
        rng = random.Random(args.seed)
        dist = report.boundary_distances
        violations = 0
        for _ in range(args.check_bound):
            a = rng.randrange(t.n)
            b = rng.randrange(t.n)
            if table[cycle_dist(a, b, t.n)] > dist[a, b]:
                violations += 1
        out["violations"] = str(violations)
    return out


def trace_build(tr: Tracer, args: argparse.Namespace) -> dict:
    params = _params(args)
    build = _build(tr, params)
    t = build.triangulation
    _validate(tr, t)
    out = {
        "n": str(t.n),
        "vertices": str(t.num_vertices),
        "triangles": str(t.num_triangles),
        "edges": str(t.num_edges),
    }
    out["density"] = repr(float(build.density))
    out["asymptotic_bound"] = repr(float(predict_density(params)))
    if args.out:
        with tr.span("serialize.to_dict"):
            data = build_to_dict(build)
        with tr.span("serialize.dump") as counts:
            dump_json(data, args.out)
        counts["file_mb"] = os.path.getsize(args.out) / 2**20
    return out


def trace_audit(tr: Tracer, args: argparse.Namespace) -> dict:
    with tr.span("serialize.load", rss=True):
        data = load_json(args.in_path)
    with tr.span("serialize.from_dict", rss=True):
        t, build = complex_from_dict(data)
    del data
    with tr.span("verify.audit", rss=True):
        audit = drift_audit(build)
    equalish = [row for row in audit.rows if row.kind != "shrink"]
    tight = sum(1 for row in equalish if row.tight)
    return {
        "n": str(t.n),
        "annuli": str(len(audit.rows)),
        "within_bounds": str(audit.ok),
        "tight": f"{tight}/{len(equalish)}",
    }


def trace_oracle(tr: Tracer, args: argparse.Namespace) -> dict:
    """The loop of ``min_isometric_vertices``, with each step timed.

    Every enumerated filling is also validated once more from outside, so the
    cost of ``validate_disk`` on tiny complexes shows as its own span.
    """
    n = args.n
    EnumerationBudget(n, args.max_interior)  # rejects an out-of-range search, as the command does
    total = 0
    found = None
    clock = time.perf_counter
    for k in range(args.max_interior + 1):
        stats = EnumerationStats()
        fillings = enumerate_fillings(EnumerationBudget(n, k), stats)
        while True:
            start = clock()
            filling = next(fillings, None)
            step = tr.record("oracle.enumerate", start, clock())
            if filling is None:
                break
            start = clock()
            validate_disk(filling)
            tr.record("simplicial.validate_small", start, clock())
            if filling.num_vertices != n + k:
                continue
            total += 1
            start = clock()
            isometric = is_isometric_filling(filling)
            tr.record("oracle.isometry", start, clock())
            if isometric:
                found = n + k
                break
        step["counts"] = {"duplicates": stats.duplicates}
        if found is not None:
            break
    return {"min_vertices": "unknown" if found is None else str(found), "candidates": str(total)}


COMMANDS = {
    "verify": trace_verify,
    "build": trace_build,
    "audit": trace_audit,
    "oracle": trace_oracle,
}


def _command_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ringfill")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "build"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--rho", required=True)
        p.add_argument("--eta", required=True)
    sub.choices["build"].add_argument("--out")
    verify = sub.choices["verify"]
    verify.add_argument("--jobs", type=int)
    verify.add_argument("--check-bound", type=int)
    verify.add_argument("--seed", type=int, default=0)
    audit = sub.add_parser("audit")
    audit.add_argument("--in", dest="in_path", required=True)
    oracle = sub.add_parser("oracle")
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--max-interior", type=int, default=4)
    return parser


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file the spans are appended to")
    parser.add_argument("--run", required=True, help="run id stored on every span")
    parser.add_argument("--parent", required=True, help="id of the root span of this command")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    command = opts.command[1:] if opts.command[:1] == ["--"] else opts.command
    args = _command_parser().parse_args(command)

    tr = Tracer(opts.run, opts.parent)
    tr.record("cli.import", _T_START, _T_IMPORTED)
    result = COMMANDS[args.command](tr, args)
    tr.write(opts.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
