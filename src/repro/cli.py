"""Command-line interface: compile and run LAI programs.

Usage (also via ``python -m repro``):

.. code-block:: text

    repro compile prog.lai                 # the paper's full pipeline
    repro compile prog.lai -e C            # any Table 1 experiment
    repro compile prog.lai --variant opt   # Table 5 coalescer variants
    repro compile prog.lai --show-ssa      # dump the pinned SSA too
    repro compile prog.lai --trace t.json \\
                           --stats-json s.json -v   # observability
    repro run prog.lai main 3 4            # interpret a function
    repro experiments prog.lai             # move counts + per-phase
                                           # breakdown for all pipelines
    repro tables                           # the paper's tables on the
                                           # simulated suites
    repro serve --socket /tmp/repro.sock \\
                --jobs 4                   # warm compile service
                                           # (see docs/serving.md)

The compiler prints the transformed module to stdout (or ``-o FILE``)
plus a statistics footer on stderr, so output can be piped or diffed.
``--trace`` writes a Chrome ``trace_event`` file for ``chrome://tracing``
and ``--stats-json`` a ``repro.stats/v2`` document: the run's
deterministic ``result`` beside its ``env`` (timing, pool shape, cache
traffic; see docs/observability.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .interp import InterpreterError, run_module
from .ir.printer import format_module
from .lai import LaiSyntaxError, parse_module
from .observability import (COLLECTION_SCHEMA, Tracer, pass_profile,
                            phase_table, summary, write_chrome_trace)
from .pipeline import (EXPERIMENTS, PhaseOptions, run_experiment,
                       run_experiments, table5_variants)


def _load(path: str):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    try:
        return parse_module(source, name=path)
    except LaiSyntaxError as error:
        raise SystemExit(f"{path}: {error}")


def _options(args) -> Optional[PhaseOptions]:
    if args.variant == "base":
        return None
    return table5_variants()[args.variant]


def _tracer_for(args) -> Optional[Tracer]:
    """A recording tracer when any observability flag asks for one,
    ``None`` (= the zero-overhead null tracer) otherwise."""
    wants = (getattr(args, "trace", None) or
             getattr(args, "stats_json", None) or
             getattr(args, "verbose", False) or
             getattr(args, "profile_passes", False))
    return Tracer() if wants else None


def _write_json(path: str, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def cmd_compile(args) -> int:
    module = _load(args.file)
    verify = None
    if args.verify:
        name, *call_args = args.verify
        verify = [(name, [int(a, 0) for a in call_args])]
    if args.show_ssa:
        from .pipeline import run_phases

        phases = EXPERIMENTS[args.experiment]
        shown = run_phases(module, args.experiment,
                           phases[:phases.index("out-of-pinned-ssa")],
                           _options(args)).module
        print("; ---- pinned SSA ----", file=sys.stderr)
        print(format_module(shown), file=sys.stderr)

    tracer = _tracer_for(args)
    result = run_experiment(module, args.experiment,
                            options=_options(args), verify=verify,
                            tracer=tracer, jobs=args.jobs,
                            cache=args.cache_dir)
    document = result.to_stats()
    if args.trace:
        write_chrome_trace(tracer, args.trace)
    if args.stats_json:
        _write_json(args.stats_json, document)
    text = format_module(result.module)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    print(f"; experiment={args.experiment} moves={result.moves} "
          f"weighted={result.weighted} "
          f"instructions={result.instructions}", file=sys.stderr)
    if args.verbose:
        print(phase_table(document), file=sys.stderr)
        print(summary(tracer), file=sys.stderr)
    if args.profile_passes:
        print(pass_profile(tracer), file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    module = _load(args.file)
    try:
        trace = run_module(module, args.function,
                           [int(a, 0) for a in args.args])
    except InterpreterError as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return 1
    print(" ".join(str(v) for v in trace.results))
    if args.trace:
        for addr, value in trace.stores:
            print(f"store [{addr}] = {value}", file=sys.stderr)
        for callee, call_args in trace.calls:
            print(f"call {callee}{call_args}", file=sys.stderr)
        print(f"steps: {trace.steps}", file=sys.stderr)
    return 0


def cmd_experiments(args) -> int:
    module = _load(args.file)
    results = run_experiments(module, tracer=Tracer, jobs=args.jobs,
                              cache=args.cache_dir)
    runs = [r.to_stats() for r in results]
    document = {"schema": COLLECTION_SCHEMA, "runs": runs}
    if args.stats_json:
        _write_json(args.stats_json, document)
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        print(f"{'experiment':<14}{'moves':>7}{'weighted':>10}{'instrs':>8}")
        for result in results:
            print(f"{result.name:<14}{result.moves:>7}{result.weighted:>10}"
                  f"{result.instructions:>8}")
        for run in runs:
            print(f"\n-- {run['experiment']}: per-phase breakdown --")
            print(phase_table(run))
    return 0


def cmd_tables(args) -> int:
    from .benchgen import all_suites
    from .parallel import Job
    from .pipeline import TABLE_EXPERIMENTS, run_jobs

    suites = all_suites()
    names = [name for experiments in TABLE_EXPERIMENTS.values()
             for name in experiments]
    keys = [(suite.name, name) for suite in suites for name in names]
    # One batch: each suite's experiments are one plan, sharing their
    # phase prefixes, and with --jobs N each plan runs whole on a worker.
    results = run_jobs([Job(suite.module, name, EXPERIMENTS[name])
                        for suite in suites for name in names],
                       tracer=Tracer if args.stats_json else None,
                       jobs=args.jobs, cache=args.cache_dir)
    #: (suite, experiment) -> (table cell, stats document or None).
    cells: dict = {}
    for key, result in zip(keys, results):
        if isinstance(result, Exception):
            raise result
        cells[key] = (result.weighted if args.weighted else result.moves,
                      result.to_stats() if args.stats_json else None)
    runs = []
    for table, experiments in TABLE_EXPERIMENTS.items():
        print(f"--- {table} ---")
        print("suite".ljust(13) + "".join(e.rjust(14) for e in experiments))
        for suite in suites:
            row = suite.name.ljust(13)
            for name in experiments:
                value, document = cells[suite.name, name]
                row += str(value).rjust(14)
                if document is not None:
                    runs.append({**document, "table": table,
                                 "suite": suite.name})
            print(row)
    if args.stats_json:
        _write_json(args.stats_json,
                    {"schema": COLLECTION_SCHEMA, "runs": runs})
    return 0


def cmd_serve(args) -> int:
    """Run the warm compile service until SIGTERM/SIGINT (graceful
    drain) or a client ``shutdown`` op."""
    import asyncio

    from .serve.server import CompileServer

    server = CompileServer(args.socket, jobs=args.jobs,
                           cache=args.cache_dir)
    print(f"repro serve: jobs={server.jobs} cache={server.cache.path} "
          f"on unix:{args.socket}", file=sys.stderr)
    asyncio.run(server.run())
    return 0


def _parse_seed_range(text: str) -> range:
    try:
        lo, _, hi = text.partition(":")
        result = range(int(lo), int(hi))
    except ValueError:
        raise SystemExit(f"error: bad --seed-range {text!r} "
                         f"(expected A:B)")
    if not result:
        raise SystemExit(f"error: empty --seed-range {text!r}")
    return result


def cmd_fuzz(args) -> int:
    from .fuzz import (ALL_CHECKS, check_module, divergence_predicate,
                       load_regression, minimize, run_fuzz,
                       write_regression)

    if args.fuzz_command == "minimize":
        regression = load_regression(args.file)
        if not regression.verify:
            raise SystemExit(f"error: {args.file} has no '; verify:' "
                             f"header lines")
        divergence = None
        if regression.check:
            divergence = regression.divergence()
        else:
            found = check_module(regression.source, regression.verify)
            if found.divergences:
                divergence = found.divergences[0]
        if divergence is None:
            raise SystemExit("error: input does not reproduce any "
                             "divergence; nothing to minimize")
        predicate = divergence_predicate(divergence)
        try:
            shrunk = minimize(regression.source, regression.verify,
                              predicate, max_checks=args.max_checks)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        out = args.out or args.file
        write_regression(out, shrunk.source, shrunk.verify, divergence,
                         description=regression.description
                         or divergence.detail)
        print(f"minimized to {shrunk.functions} function(s) / "
              f"{shrunk.instructions} instruction(s) in {shrunk.checks} "
              f"check(s) -> {out}")
        return 0

    # fuzz run
    seeds = _parse_seed_range(args.seed_range)
    profiles = args.profile or ["default"]
    checks = tuple(args.checks.split(",")) if args.checks else ALL_CHECKS
    for check in checks:
        if check not in ALL_CHECKS:
            raise SystemExit(f"error: unknown check {check!r} "
                             f"(choose from {', '.join(ALL_CHECKS)})")
    progress = {"programs": 0}

    def tick(result) -> None:
        progress["programs"] += 1
        if args.verbose and progress["programs"] % 50 == 0:
            print(f"  ... {progress['programs']} programs",
                  file=sys.stderr)
        for divergence in result.divergences:
            print(f"seed {result.seed} [{result.profile}] "
                  f"{divergence.describe()}", file=sys.stderr)

    report = run_fuzz(seeds, profiles=profiles,
                      n_functions=args.functions, checks=checks,
                      jobs=args.jobs, max_seconds=args.max_seconds,
                      on_result=tick)
    for divergence in report.aggregate_violations:
        print(divergence.describe(), file=sys.stderr)
    print(report.summary())

    written = []
    if report.failures and args.out and not args.no_minimize:
        os.makedirs(args.out, exist_ok=True)
        seen = set()
        for failure in report.failures:
            for divergence in failure.divergences:
                if divergence.key() in seen:
                    continue
                seen.add(divergence.key())
                predicate = divergence_predicate(divergence)
                try:
                    shrunk = minimize(failure.source, failure.verify,
                                      predicate)
                except ValueError:
                    continue  # flaky (e.g. time-dependent): keep as-is
                name = (f"{failure.profile}_{failure.seed}_"
                        f"{divergence.check}.lai").replace(",", "_")
                path = os.path.join(args.out, name)
                write_regression(path, shrunk.source, shrunk.verify,
                                 divergence)
                written.append(path)
                print(f"minimized repro -> {path}", file=sys.stderr)

    if args.stats_json:
        document = {
            "schema": "repro.fuzz-report/v1",
            "seeds": report.seeds, "programs": report.programs,
            "functions": report.functions,
            "checks": list(report.checks),
            "elapsed_s": round(report.elapsed, 3),
            "timed_out": report.timed_out,
            "move_totals": report.move_totals,
            "aggregate_violations": [
                {"composition": d.composition, "detail": d.detail}
                for d in report.aggregate_violations],
            "repros": written,
            "failures": [
                {"seed": f.seed, "profile": f.profile,
                 "divergences": [
                     {"check": d.check, "composition": d.composition,
                      "kind": d.kind, "detail": d.detail}
                     for d in f.divergences]}
                for f in report.failures],
        }
        with open(args.stats_json, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    return 0 if report.ok else 1


def _add_interp(parser: argparse.ArgumentParser) -> None:
    from .interp import TIERS

    parser.add_argument("--interp", choices=TIERS, default=None,
                        help="interpreter tier for verify runs "
                             "(default $REPRO_INTERP or 'compiled'; "
                             "'both' runs the reference tree-walker in "
                             "lockstep and fails on any divergence)")


_CACHE_HELP = ("persistent content-addressed compilation cache directory "
               "(default $REPRO_CACHE, unset = no caching; output is "
               "identical cache-hot and cache-cold; $REPRO_CACHE_LIMIT "
               "caps the size in bytes)")
#: ``repro serve`` never runs uncached (see docs/serving.md).
_SERVE_CACHE_HELP = ("persistent content-addressed compilation cache "
                     "directory (default $REPRO_CACHE, unset = a private "
                     "temporary store removed at shutdown; "
                     "$REPRO_CACHE_LIMIT caps the size in bytes)")


def _add_jobs(parser: argparse.ArgumentParser,
              cache_help: str = _CACHE_HELP) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for parallel compilation "
                             "(0 = all cores; default $REPRO_JOBS or 1; "
                             "output is identical at any job count)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=cache_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-SSA translation with renaming constraints "
                    "(CGO 2004 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser(
        "compile", help="translate an LAI module out of SSA")
    compile_p.add_argument("file")
    compile_p.add_argument("-e", "--experiment", default="Lphi,ABI+C",
                           choices=sorted(EXPERIMENTS),
                           help="pipeline to run (paper Table 1 name)")
    compile_p.add_argument("--variant", default="base",
                           choices=["base", "depth", "opt", "pess"],
                           help="coalescer variant (paper Table 5)")
    compile_p.add_argument("-o", "--output", help="write result here")
    compile_p.add_argument("--show-ssa", action="store_true",
                           help="dump the pinned SSA to stderr first")
    compile_p.add_argument("--verify", nargs="+", metavar="FN/ARG",
                           help="function name and int args to replay "
                                "before/after as a semantic check")
    compile_p.add_argument("--trace", metavar="FILE",
                           help="write a Chrome trace_event JSON file "
                                "(open in chrome://tracing or Perfetto)")
    compile_p.add_argument("--stats-json", metavar="FILE",
                           help="write per-phase stats as a "
                                "repro.stats/v2 JSON document")
    compile_p.add_argument("-v", "--verbose", action="store_true",
                           help="print the per-phase breakdown and span "
                                "summary to stderr")
    compile_p.add_argument("--profile-passes", action="store_true",
                           help="print a per-pass self-time profile "
                                "(span duration minus nested spans, "
                                "aggregated by pass name) to stderr")
    _add_jobs(compile_p)
    _add_interp(compile_p)
    compile_p.set_defaults(fn=cmd_compile)

    run_p = sub.add_parser("run", help="interpret a function")
    run_p.add_argument("file")
    run_p.add_argument("function")
    run_p.add_argument("args", nargs="*")
    _add_interp(run_p)
    run_p.add_argument("--trace", action="store_true",
                       help="print stores/calls/step count to stderr")
    run_p.set_defaults(fn=cmd_run)

    exp_p = sub.add_parser(
        "experiments",
        help="move counts + per-phase breakdown for every pipeline")
    exp_p.add_argument("file")
    exp_p.add_argument("--format", default="table",
                       choices=["table", "json"],
                       help="human-readable tables (default) or a "
                            "repro.stats-collection/v1 JSON on stdout")
    exp_p.add_argument("--stats-json", metavar="FILE",
                       help="also write the stats collection here")
    _add_jobs(exp_p)
    _add_interp(exp_p)
    exp_p.set_defaults(fn=cmd_experiments)

    tables_p = sub.add_parser(
        "tables", help="paper tables over the simulated suites")
    tables_p.add_argument("--weighted", action="store_true",
                          help="report 5^depth-weighted counts")
    tables_p.add_argument("--stats-json", metavar="FILE",
                          help="write every run's stats as a "
                               "repro.stats-collection/v1 JSON document")
    _add_jobs(tables_p)
    _add_interp(tables_p)
    tables_p.set_defaults(fn=cmd_tables)

    serve_p = sub.add_parser(
        "serve", help="warm compile service: persistent worker pool, "
                      "one worker per request, response memo "
                      "(see docs/serving.md)")
    serve_p.add_argument("--socket", required=True, metavar="PATH",
                         help="unix socket to listen on (NDJSON "
                              "protocol)")
    _add_jobs(serve_p, cache_help=_SERVE_CACHE_HELP)
    serve_p.set_defaults(fn=cmd_serve)

    fuzz_p = sub.add_parser(
        "fuzz", help="differential fuzzing of the out-of-SSA pipelines "
                     "(see docs/fuzzing.md)")
    fuzz_sub = fuzz_p.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run_p = fuzz_sub.add_parser(
        "run", help="sweep seeded programs through every composition")
    fuzz_run_p.add_argument("--seed-range", default="0:100",
                            metavar="A:B",
                            help="half-open seed interval (default "
                                 "0:100)")
    fuzz_run_p.add_argument("--profile", action="append", default=None,
                            metavar="NAME",
                            help="generator profile (repeatable; 'all' "
                                 "= every profile; default: default)")
    fuzz_run_p.add_argument("--functions", type=int, default=3,
                            metavar="N",
                            help="functions per generated module "
                                 "(default 3)")
    fuzz_run_p.add_argument("--checks", default=None, metavar="LIST",
                            help="comma-separated check subset "
                                 "(default: all)")
    fuzz_run_p.add_argument("--jobs", type=int, default=4, metavar="N",
                            help="worker pool size: the pool runs "
                                 "the oracle, parallel and cache checks "
                                 "beside the compositions (default 4; "
                                 "1 runs every check in this process)")
    fuzz_run_p.add_argument("--max-seconds", type=float, default=None,
                            metavar="S",
                            help="time-box the sweep (finishes the "
                                 "in-flight seed)")
    fuzz_run_p.add_argument("--out", default=None, metavar="DIR",
                            help="write minimized repro files for "
                                 "failures into DIR")
    fuzz_run_p.add_argument("--no-minimize", action="store_true",
                            help="report failures without shrinking "
                                 "them")
    fuzz_run_p.add_argument("--stats-json", default=None, metavar="FILE",
                            help="write a repro.fuzz-report/v1 JSON "
                                 "summary")
    fuzz_run_p.add_argument("-v", "--verbose", action="store_true",
                            help="progress heartbeat on stderr")
    _add_interp(fuzz_run_p)
    fuzz_run_p.set_defaults(fn=cmd_fuzz)

    fuzz_min_p = fuzz_sub.add_parser(
        "minimize", help="delta-debug a repro file down to its core")
    fuzz_min_p.add_argument("file",
                            help="repro .lai with '; verify:' headers "
                                 "(and ideally '; check:' provenance)")
    fuzz_min_p.add_argument("-o", "--out", default=None, metavar="FILE",
                            help="write the minimized repro here "
                                 "(default: in place)")
    fuzz_min_p.add_argument("--max-checks", type=int, default=600,
                            metavar="N",
                            help="predicate-evaluation budget "
                                 "(default 600)")
    fuzz_min_p.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "interp", None):
        # Through the environment rather than a threaded parameter so
        # forked pool workers inherit the tier unchanged.
        from .interp import INTERP_ENV

        os.environ[INTERP_ENV] = args.interp
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
