"""Command line entry points: build, verify, audit, sweep, oracle, analyze, export.

Every command exits 0 only if all of its assertions pass, so the whole
acceptance story is scriptable from shell CI.  ``--jobs`` sets the number
of BFS worker threads (default 1), at most one per CPU.
"""
# The docstring above is the --help description.  Importing this module loads
# argparse and the package root, not numpy: each command imports the layers it
# runs when it runs, and none of them imports numpy, reading and writing files
# included, nor dataclasses, whose inspect and ast take longer to import than a
# small command takes to run: the records are plain classes.  The parser adds
# the arguments of the invoked command alone.
from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import ScheduleError, as_fraction

if TYPE_CHECKING:
    from .builder import BuildResult
    from .simplicial import Triangulation
    from .verify import Certificate


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command with its help line, and the arguments of ``command`` alone.

    ``main`` passes the command it finds first in its arguments, so a run
    builds no other command's arguments; the root help and the error for an
    unknown command do not depend on ``command``.
    """
    parser = argparse.ArgumentParser(prog="ringfill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            add_arguments(p)
    return parser


def _build_arguments(p: argparse.ArgumentParser) -> None:
    _add_params(p, required=True)
    p.add_argument("--out", help="write the build (params and triangles) as JSON")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    p.add_argument("--jobs", type=_positive_int, default=1, help="BFS worker threads, at most one per CPU (default: 1)")
    p.add_argument("--out", help="write the verification report as JSON")
    p.add_argument("--dump-witness", action="store_true", help="print the worst shortcut path")
    p.add_argument(
        "--check-bound",
        type=_positive_int,
        metavar="COUNT",
        help="also check the analytic lower bound against BFS on every pair; on a violation, "
        "print those among COUNT sampled pairs, or the first one if the sample holds none, and exit 1",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for sampled pair checks")


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-list", required=True, type=_n_list, help="comma-separated boundary lengths")
    p.add_argument("--rho", required=True, help="collar fraction, e.g. 0.1")
    p.add_argument("--eta", required=True, help="stopping scale, e.g. 0.25")
    p.add_argument("--jobs", type=_positive_int, default=1, help="BFS worker threads, at most one per CPU (default: 1)")
    p.add_argument("--out", help="CSV output path")


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    # the search's bounds, oracle.MAX_BOUNDARY and MAX_INTERIOR, which the parser does not import
    p.add_argument("--n", type=_int_in(3, 7), required=True, help="boundary length, 3..7")
    p.add_argument("--max-interior", type=_int_in(0, 4), default=4, help="interior vertices, 0..4 (default: 4)")
    p.add_argument("--out", help="write the minimal witness as JSON")


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--constants", action="store_true")
    p.add_argument("--core-inequality", action="store_true")
    p.add_argument("--profile-integral", action="store_true")
    p.add_argument("--eta", default="0.25", help="stopping scale in [0, 1], e.g. 0.25")


def _export_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--format", choices=("off", "obj"), required=True)
    p.add_argument("--out", required=True)


def _positive_int(text: str) -> int:
    """A count that must be at least 1; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _int_in(low: int, high: int):
    """An argparse type for an integer in ``low..high``; anything else is a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer in {low}..{high}, got {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in {low}..{high}, got {value}")
        return value

    return parse


def _n_list(text: str) -> list[int]:
    """Comma-separated boundary lengths, at least one; anything else is a usage error (exit 2)."""
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"must list at least one boundary length, got {text!r}")
    return values


def _add_params(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--n", type=int, required=required)
    parser.add_argument("--rho", required=required, help="collar fraction, e.g. 0.1")
    parser.add_argument("--eta", required=required, help="stopping scale, e.g. 0.25")


def _add_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="in_path", help="complex or build JSON file")
    _add_params(parser, required=False)


def _load_source(args: argparse.Namespace):
    """Triangulation plus build metadata, from a file or built on the spot."""
    if args.in_path:
        from .serialize import complex_from_dict, load_json

        return complex_from_dict(load_json(args.in_path))
    if args.n is None or args.rho is None or args.eta is None:
        raise ScheduleError("either --in FILE or all of --n/--rho/--eta are required")
    from .builder import Params, build_filling

    build = build_filling(Params(args.n, as_fraction(args.rho), as_fraction(args.eta)))
    return build.triangulation, build


def _certified(build: BuildResult | None, bare: Triangulation | None = None) -> Certificate:
    """``certify(build)``, or a ``bare`` complex's disk validation (it has no strips), its lines printed."""
    from .verify import Certificate, DriftAudit, certify, validate_disk

    cert = certify(build) if build is not None else Certificate(validate_disk(bare), DriftAudit())
    for line in cert.lines():
        print(line, file=sys.stderr)
    return cert


def _cmd_build(args: argparse.Namespace) -> int:
    from . import verify  # _certified's layer, imported before the rows exist so that they reuse its memory
    from .builder import Params, build_filling, predict_density

    params = Params(args.n, as_fraction(args.rho), as_fraction(args.eta))
    build = build_filling(params)
    t = build.triangulation
    cert = _certified(build)
    if not cert.ok:
        return 1
    s = build.schedule
    print(f"n={t.n} vertices={t.num_vertices} triangles={t.num_triangles} edges={cert.report.counts['edges']}")
    print(
        f"collar_layers={s.collar_layers} blocks={s.num_blocks} layers_per_block={s.layers_per_block} "
        f"innermost={s.block_lengths[-1]}"
    )
    print(f"density={float(build.density)!r} asymptotic_bound={float(predict_density(params))!r}")
    if args.out:
        from .serialize import build_to_dict, dump_json

        dump_json(build_to_dict(build), args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # _certified's layer, imported before the rows exist so that they reuse its memory: this
    # command's peak RSS follows the import order, 0.2 MB higher with simplicial imported first
    from .verify import cycle_dist, separation_lower_bounds, step_profile_eps, verify_filling

    t, build = _load_source(args)
    if args.check_bound and build is None:
        print("bound check needs a build file with a ledger", file=sys.stderr)
        return 1
    if not _certified(build, t).ok:
        return 1
    table = separation_lower_bounds(build) if args.check_bound else None
    report = verify_filling(t, jobs=args.jobs, table=table)
    if build is not None:
        report.eps = step_profile_eps(build)
    x, y, d_k, d_c = report.worst_pair
    print(f"n={report.n} delta={report.delta} ({float(report.delta)!r}) isometric={report.is_isometric}")
    print(f"worst pair: ({x}, {y}) graph distance {d_k}, cycle distance {d_c}")
    if report.eps is not None:
        print(f"step-profile eps={report.eps!r}")
    if args.dump_witness and report.witness_path is not None:
        print("witness path:", " ".join(map(str, report.witness_path)))
    ok = True
    if args.check_bound:
        dist, first = report.boundary_distances, report.violation
        violations = 0 if first is None else _check_bound(table, dist, args.check_bound, args.seed)
        print(f"bound check: {args.check_bound} pairs sampled, {violations} violations")
        if first is not None and not violations:
            x, y = first
            print(
                f"lower bound {table[cycle_dist(x, y, report.n)]} exceeds distance {dist[x, y]} for ({x}, {y}): "
                "the first violation in row-major order, missed by the sample"
            )
        ok = first is None
    if args.out:
        from .serialize import dump_json, report_to_dict

        dump_json(report_to_dict(report, include_witness=args.dump_witness), args.out)
        print(f"wrote {args.out}")
    return 0 if ok else 1


def _check_bound(table: list[int], dist, count: int, seed: int) -> int:
    """Check the lower-bound ``table`` against ``dist`` on ``count`` sampled pairs; return the violations.

    Each pair (a, b) is two ``random.Random(seed).randrange`` draws, a first,
    and each violation prints in draw order.  ``dist`` is the ``(n, n)``
    BFS matrix, read one pair at a time.  ``verify`` draws only once the
    compiled judgement of every pair has found a violation.
    """
    import random

    from .verify import cycle_dist

    n = len(dist)
    draw = random.Random(seed).randrange
    violations = 0
    for _ in range(count):
        a, b = draw(n), draw(n)
        bound, got = table[cycle_dist(a, b, n)], dist[a, b]
        if bound > got:
            print(f"lower bound {bound} exceeds distance {got} for ({a}, {b})")
            violations += 1
    return violations


def _cmd_audit(args: argparse.Namespace) -> int:
    from . import verify  # _certified's layer, imported before the rows exist so that they reuse its memory

    t, build = _load_source(args)
    if build is None:
        print("audit needs a build file with a ledger (or --n/--rho/--eta)", file=sys.stderr)
        return 1
    cert = _certified(build)
    audit, annuli = cert.audit, build.ledger[:-1]  # an annulus that is no strip has no audit row
    tight = sum(1 for row in audit.rows if row.kind != "shrink" and row.tight)
    equalish = sum(1 for rec in annuli if rec.annulus_kind != "shrink")
    print(f"n={t.n} annuli={len(annuli)} within_bounds={audit.ok}")
    print(f"equal-length annuli achieving their bound exactly: {tight}/{equalish}")
    return 0 if cert.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import run_sweep

    rows = run_sweep(args.n_list, args.rho, args.eta, jobs=args.jobs, csv_path=args.out)
    failed = False
    for row in rows:
        if row.error is not None:
            failed = True
            print(f"n={row.n}: FAILED ({row.error})", file=sys.stderr)
        else:
            print(
                f"n={row.n} vertices={row.vertices} density={row.density!r} delta={row.delta!r} "
                f"isometric={row.is_isometric} eps={row.eps!r}"
            )
    if args.out:
        print(f"wrote {args.out}")
    return 1 if failed else 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import min_isometric_vertices

    result = min_isometric_vertices(args.n, args.max_interior)
    if result.known:
        print(f"n={args.n}: minimum isometric filling has {result.min_vertices} vertices")
    else:
        print(
            f"n={args.n}: no isometric filling within {args.max_interior} interior vertices; "
            "minimum unknown"
        )
    print(f"candidates examined: {result.enumerated}")
    if args.out and result.witness is not None:
        from .serialize import dump_json, triangulation_to_dict

        dump_json(triangulation_to_dict(result.witness), args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import check_core_inequality, constants_report, profile_integral

    run_all = not (args.constants or args.core_inequality or args.profile_integral)
    # the checks that read --eta run first, so that a bad --eta fails before any output
    rep = check_core_inequality(args.eta) if args.core_inequality or run_all else None
    check = profile_integral(args.eta) if args.profile_integral or run_all else None
    ok = True
    if args.constants or run_all:
        constants = constants_report()
        for line in constants.lines():
            print(line)
        ok = ok and constants.ordering_ok
    if rep is not None:
        print(
            f"core inequality at eta={rep.eta}: min slack {rep.min_slack}, "
            f"|slack| along s=1/2 max {rep.boundary_max_abs} (exact)"
        )
        ok = ok and rep.ok
    if check is not None:
        print(
            f"profile integral at eta={args.eta}: closed form {float(check.closed_form)!r} "
            f"({check.closed_form}), exact quadrature {check.quadrature}, error {check.error}"
        )
    return 0 if ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from .serialize import complex_from_dict, load_json, vertex_records, write_obj, write_off

    data = load_json(args.in_path)
    t, build = complex_from_dict(data)  # checks a bare file's records, which fix its positions
    records = data["vertices"] if build is None else list(vertex_records(t, build.ledger))
    write = write_off if args.format == "off" else write_obj
    write(t, args.out, records)
    print(f"wrote {args.out} ({t.num_vertices} vertices, {t.num_triangles} faces)")
    return 0


# Each command's help line, the function adding its arguments, and the function running it.
_COMMANDS = {
    "build": ("build a filling and optionally write it as JSON", _build_arguments, _cmd_build),
    "verify": ("exact isometry verification by boundary BFS", _verify_arguments, _cmd_verify),
    "audit": ("exact slanted-edge drift audit per annulus", _add_source, _cmd_audit),
    "sweep": ("build/validate/audit/verify over a list of n", _sweep_arguments, _cmd_sweep),
    "oracle": ("exhaustive minimum search for tiny boundaries", _oracle_arguments, _cmd_oracle),
    "analyze": ("exact core inequality, profile integral and constants", _analyze_arguments, _cmd_analyze),
    "export": ("export a complex to OFF or OBJ", _export_arguments, _cmd_export),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except ScheduleError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
