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
    repro perf record --ledger runs.jsonl  # benchmark into the ledger
    repro perf diff -2 -1                  # compare two ledger entries
    repro perf trend --suite SPECint       # per-suite trajectory
    repro perf export --prometheus         # text exposition of latest

The compiler prints the transformed module to stdout (or ``-o FILE``)
plus a statistics footer on stderr, so output can be piped or diffed.
``--trace`` writes a Chrome ``trace_event`` file for ``chrome://tracing``
and ``--stats-json`` a ``repro.stats/v1`` document; ``--metrics``
enables the counter/gauge/histogram registry (embedded in the stats
document) and ``--ledger FILE`` appends one JSONL record per run to
the persistent run ledger behind ``repro perf`` (see
docs/observability.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .interp import InterpreterError, run_module
from .ir.printer import format_module
from .lai import LaiSyntaxError, parse_module
from .observability import (COLLECTION_SCHEMA, MetricsRegistry, Tracer,
                            pass_profile, phase_table, summary,
                            write_chrome_trace)
from .observability.ledger import make_record, resolve_ledger
from .observability.metrics import METRICS_ENV
from .pipeline import (EXPERIMENTS, PhaseOptions, run_experiment,
                       run_experiments, run_table, table5_variants)


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


def _wants_metrics(args) -> bool:
    """``--metrics`` or a non-empty ``$REPRO_METRICS``."""
    return bool(getattr(args, "metrics", False)
                or os.environ.get(METRICS_ENV))


def _breakdown_wall(result) -> Optional[float]:
    """Total per-phase wall time (a traced run's compile time), or
    ``None`` for untraced runs."""
    if not result.phase_breakdown:
        return None
    total_ns = sum(entry["duration_ns"] for entry in result.phase_breakdown)
    return round(total_ns / 1e9, 6)


def _append_ledger(ledger, result, *, suite, options, jobs, wall_s,
                   extra: Optional[dict] = None) -> None:
    """Build and append one ledger record (parent process only -- the
    single-writer contract of :mod:`repro.observability.ledger`)."""
    record = make_record(result, suite=suite, options=options, jobs=jobs,
                         wall_s=wall_s, metrics=result.metrics or None)
    if extra:
        record.update(extra)
    ledger.append(record)


def cmd_compile(args) -> int:
    module = _load(args.file)
    verify = None
    if args.verify:
        name, *call_args = args.verify
        verify = [(name, [int(a, 0) for a in call_args])]
    if args.show_ssa:
        from .machine.constraints import pinning_abi, pinning_sp
        from .outofssa import coalesce_phis
        from .pipeline import ensure_ssa
        from .ssa import optimize_ssa

        shown = module.copy()
        for function in shown.iter_functions():
            ensure_ssa(function)
            optimize_ssa(function)
            pinning_sp(function)
            if "pinningABI" in EXPERIMENTS[args.experiment]:
                pinning_abi(function)
            if "pinningPhi" in EXPERIMENTS[args.experiment]:
                coalesce_phis(function)
        print("; ---- pinned SSA ----", file=sys.stderr)
        print(format_module(shown), file=sys.stderr)

    tracer = _tracer_for(args)
    metrics = MetricsRegistry() if _wants_metrics(args) else None
    start = time.perf_counter()
    result = run_experiment(module, args.experiment,
                            options=_options(args), verify=verify,
                            tracer=tracer, jobs=args.jobs,
                            cache=args.cache_dir, metrics=metrics)
    wall_s = round(time.perf_counter() - start, 6)
    if args.trace:
        write_chrome_trace(tracer, args.trace)
    if args.stats_json:
        _write_json(args.stats_json, result.to_stats())
    ledger = resolve_ledger(args.ledger)
    if ledger is not None:
        _append_ledger(ledger, result, suite=args.file,
                       options=_options(args), jobs=args.jobs,
                       wall_s=wall_s)
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
        print(phase_table(result.phase_breakdown), file=sys.stderr)
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
    results = run_experiments(
        module, tracer=Tracer, jobs=args.jobs, cache=args.cache_dir,
        metrics=MetricsRegistry if _wants_metrics(args) else None)
    ledger = resolve_ledger(args.ledger)
    if ledger is not None:
        for result in results:
            _append_ledger(ledger, result, suite=args.file, options=None,
                           jobs=args.jobs, wall_s=_breakdown_wall(result))
    if args.stats_json:
        _write_json(args.stats_json,
                    {"schema": COLLECTION_SCHEMA,
                     "runs": [r.to_stats() for r in results]})
    if args.format == "json":
        document = {"schema": COLLECTION_SCHEMA,
                    "runs": [r.to_stats() for r in results]}
        print(json.dumps(document, indent=2))
    else:
        print(f"{'experiment':<14}{'moves':>7}{'weighted':>10}{'instrs':>8}")
        for result in results:
            print(f"{result.name:<14}{result.moves:>7}{result.weighted:>10}"
                  f"{result.instructions:>8}")
        for result in results:
            print(f"\n-- {result.name}: per-phase breakdown --")
            print(phase_table(result.phase_breakdown))
    return 0


def cmd_tables(args) -> int:
    from .benchgen import all_suites
    from .parallel import shared_pool
    from .pipeline import TABLE_EXPERIMENTS

    suites = all_suites()
    ledger = resolve_ledger(args.ledger)
    traced = bool(args.stats_json or ledger is not None)
    runs = []
    with shared_pool(args.jobs) as pool:
        for table, experiments in TABLE_EXPERIMENTS.items():
            print(f"--- {table} ---")
            header = "suite".ljust(13) + "".join(
                e.rjust(14) for e in experiments)
            print(header)
            for suite in suites:
                results = run_table(
                    suite.module, table,
                    tracer=Tracer if traced else None,
                    jobs=args.jobs, cache=args.cache_dir, pool=pool,
                    metrics=MetricsRegistry if _wants_metrics(args)
                    else None)
                cells = []
                for result in results:
                    value = result.weighted if args.weighted \
                        else result.moves
                    cells.append(str(value).rjust(14))
                    if args.stats_json:
                        document = result.to_stats()
                        document["table"] = table
                        document["suite"] = suite.name
                        runs.append(document)
                    if ledger is not None:
                        _append_ledger(ledger, result, suite=suite.name,
                                       options=None, jobs=args.jobs,
                                       wall_s=_breakdown_wall(result),
                                       extra={"table": table})
                print(suite.name.ljust(13) + "".join(cells))
    if args.stats_json:
        _write_json(args.stats_json,
                    {"schema": COLLECTION_SCHEMA, "runs": runs})
    return 0


def cmd_serve(args) -> int:
    """Run the warm compile service until SIGTERM/SIGINT (graceful
    drain) or a client ``shutdown`` op."""
    from .serve.server import CompileServer

    if args.socket is None and args.http_port is None:
        raise SystemExit("error: serve needs --socket PATH and/or "
                         "--http PORT")
    server = CompileServer(socket_path=args.socket,
                           http_port=args.http_port,
                           jobs=args.jobs, cache=args.cache_dir,
                           ledger=args.ledger,
                           batch_window=args.batch_window)
    def banner() -> None:
        # Runs after start(): an ``--http 0`` port is resolved by now.
        endpoints = [e for e in (
            args.socket and f"unix:{args.socket}",
            server.http_port is not None
            and f"http://{server.http_host}:{server.http_port}") if e]
        print(f"repro serve: jobs={server.jobs} "
              f"cache={server.cache.path} on {', '.join(endpoints)}",
              file=sys.stderr)

    import asyncio

    asyncio.run(server.run(ready=banner))
    return 0


def cmd_perf(args) -> int:
    from .observability.ledger import (diff_entries, export_prometheus,
                                       select_entries, trend_rows)

    ledger = resolve_ledger(args.ledger)
    if args.perf_command == "record":
        return _perf_record(args, ledger)
    if ledger is None and args.perf_command != "diff":
        raise SystemExit("error: no ledger (pass --ledger FILE or set "
                         "$REPRO_LEDGER)")

    if args.perf_command == "list":
        entries = ledger.entries()
        if ledger.skipped:
            print(f"warning: skipped {ledger.skipped} malformed line(s)",
                  file=sys.stderr)
        print(f"{'#':>4}  {'when':<19} {'rev':<12} {'suite':<12} "
              f"{'experiment':<14}{'wall_s':>10}{'moves':>8}")
        for i, record in enumerate(entries):
            when = time.strftime("%Y-%m-%d %H:%M:%S",
                                 time.localtime(record["ts"]))
            wall = record["timing"].get("wall_s")
            print(f"{i:>4}  {when:<19} {record['rev']:<12} "
                  f"{(record.get('suite') or '-'):<12} "
                  f"{record['experiment']:<14}"
                  f"{wall if wall is not None else '-':>10}"
                  f"{record['totals']['moves']:>8}")
        return 0

    if args.perf_command == "diff":
        old = select_entries(ledger, args.old)
        new = select_entries(ledger, args.new)
        findings = diff_entries(old, new, threshold=args.threshold)
        if not findings:
            print("no comparable entries (no shared suite/experiment/"
                  "options key)")
            return 0
        regressions = 0
        print(f"{'suite':<12} {'experiment':<14}{'old_s':>10}{'new_s':>10}"
              f"{'ratio':>8}  verdict")
        for f in findings:
            if f["regression"]:
                regressions += 1
                verdict = ("CONTENT DIVERGED" if f["kind"] == "content"
                           else "REGRESSION")
            else:
                verdict = "ok"
            print(f"{(f['suite'] or '-'):<12} {f['experiment']:<14}"
                  f"{f['old_s']:>10}{f['new_s']:>10}{f['ratio']:>8}"
                  f"  {verdict}")
        print(f"{len(findings)} compared, {regressions} regression(s) "
              f"at threshold {args.threshold:.0%}")
        return 1 if regressions else 0

    if args.perf_command == "trend":
        rows = trend_rows(ledger.entries(), suite=args.suite)
        print("| suite | experiment | rev | wall_s | moves | rps "
              "| speedup |")
        print("|---|---|---|---:|---:|---:|---:|")
        for row in rows:
            speedup = f"{row['speedup']:.3f}x" if row["speedup"] else "-"
            rps = row["rps"] if row.get("rps") is not None else "-"
            print(f"| {row['suite'] or '-'} | {row['experiment']} "
                  f"| {row['rev']} | {row['wall_s']} | {row['moves']} "
                  f"| {rps} | {speedup} |")
        return 0

    if args.perf_command == "export":
        sys.stdout.write(export_prometheus(ledger.entries()))
        return 0
    raise SystemExit(f"error: unknown perf command {args.perf_command!r}")


def _perf_record(args, ledger) -> int:
    """Benchmark the requested suites/experiments and append one
    min-time record each (the noise-robust statistic ``repro perf
    diff`` compares).  Runs untraced so the stats digest matches other
    untraced runs of the same revision."""
    from .benchgen import all_suites
    from .observability.ledger import git_rev

    if ledger is None:
        raise SystemExit("error: no ledger (pass --ledger FILE or set "
                         "$REPRO_LEDGER)")
    if args.serve_json:
        # Ingest a bench_serve.py result document instead of running
        # compile benchmarks: one serve:<suite> throughput row each.
        from .serve.bench import serve_records

        try:
            with open(args.serve_json) as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"error: cannot read {args.serve_json}: {error}")
        records = serve_records(document)
        for record in records:
            ledger.append(record)
            serve = record["serve"]
            print(f"recorded {record['suite']}/{record['experiment']}: "
                  f"p50 {serve['p50_s']}s rps {serve['rps']} "
                  f"at {record['rev']}")
        if not records:
            print(f"warning: {args.serve_json} has no rows",
                  file=sys.stderr)
        return 0
    suites = all_suites()
    if args.suite:
        wanted = set(args.suite)
        unknown = wanted - {s.name for s in suites}
        if unknown:
            raise SystemExit(f"error: unknown suite(s) "
                             f"{sorted(unknown)} (have "
                             f"{sorted(s.name for s in suites)})")
        suites = [s for s in suites if s.name in wanted]
    experiments = args.experiment or ["Lphi,ABI+C"]
    rev = git_rev()
    for suite in suites:
        for name in experiments:
            samples = []
            result = None
            metrics = None
            for round_index in range(max(1, args.rounds)):
                if args.metrics:
                    metrics = MetricsRegistry()
                start = time.perf_counter()
                result = run_experiment(suite.module, name,
                                        jobs=args.jobs,
                                        cache=args.cache_dir,
                                        metrics=metrics)
                samples.append(time.perf_counter() - start)
            record = make_record(result, suite=suite.name,
                                 jobs=args.jobs,
                                 wall_s=round(min(samples), 6),
                                 samples=samples,
                                 metrics=result.metrics or None,
                                 rev=rev)
            ledger.append(record)
            print(f"recorded {suite.name}/{name}: "
                  f"min {min(samples):.4f}s over {len(samples)} "
                  f"round(s) at {rev}")
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

    if args.fuzz_command == "corpus":
        from .fuzz import build_corpus, load_corpus

        manifest = build_corpus(args.out, args.programs,
                                n_functions=args.functions,
                                profile=args.profile, seed0=args.seed0)
        print(f"wrote {len(manifest['programs'])} programs "
              f"({manifest['functions']} functions, profile "
              f"{args.profile!r}) to {args.out}")
        if args.replay:
            bad = 0
            for name, source, verify in load_corpus(args.out):
                result = check_module(
                    source, verify,
                    checks=("roundtrip", "compositions"),
                    experiments=["Lphi,ABI+C"], jobs=1)
                for divergence in result.divergences:
                    bad += 1
                    print(f"{name}: {divergence.describe()}",
                          file=sys.stderr)
            print(f"replay: {bad} divergences")
            return 1 if bad else 0
        return 0

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


def _add_ledger(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="append-only JSONL run ledger (default "
                             "$REPRO_LEDGER, unset = no ledger)")


def _add_interp(parser: argparse.ArgumentParser) -> None:
    from .interp import TIERS

    parser.add_argument("--interp", choices=TIERS, default=None,
                        help="interpreter tier for verify runs "
                             "(default $REPRO_INTERP or 'compiled'; "
                             "'both' runs the reference tree-walker in "
                             "lockstep and fails on any divergence)")


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for parallel compilation "
                             "(0 = all cores; default $REPRO_JOBS or 1; "
                             "output is identical at any job count)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent content-addressed compilation "
                             "cache directory (default $REPRO_CACHE, "
                             "unset = no caching; output is identical "
                             "cache-hot and cache-cold; "
                             "$REPRO_CACHE_LIMIT caps the size in bytes)")
    parser.add_argument("--metrics", action="store_true",
                        help="record counters/gauges/latency histograms "
                             "into the stats document's 'metrics' block "
                             "(also enabled by a non-empty "
                             "$REPRO_METRICS; zero overhead when off)")
    _add_interp(parser)
    _add_ledger(parser)


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
                                "repro.stats/v1 JSON document")
    compile_p.add_argument("-v", "--verbose", action="store_true",
                           help="print the per-phase breakdown and span "
                                "summary to stderr")
    compile_p.add_argument("--profile-passes", action="store_true",
                           help="print a per-pass self-time profile "
                                "(span duration minus nested spans, "
                                "aggregated by pass name) to stderr")
    _add_jobs(compile_p)
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
    exp_p.set_defaults(fn=cmd_experiments)

    tables_p = sub.add_parser(
        "tables", help="paper tables over the simulated suites")
    tables_p.add_argument("--weighted", action="store_true",
                          help="report 5^depth-weighted counts")
    tables_p.add_argument("--stats-json", metavar="FILE",
                          help="write every run's stats as a "
                               "repro.stats-collection/v1 JSON document")
    _add_jobs(tables_p)
    tables_p.set_defaults(fn=cmd_tables)

    serve_p = sub.add_parser(
        "serve", help="warm compile service: persistent worker pool, "
                      "request batching, live metrics "
                      "(see docs/serving.md)")
    serve_p.add_argument("--socket", default=None, metavar="PATH",
                         help="unix socket to listen on (NDJSON "
                              "protocol)")
    serve_p.add_argument("--http", dest="http_port", type=int,
                         default=None, metavar="PORT",
                         help="also serve HTTP on 127.0.0.1:PORT "
                              "(POST /compile, GET /stats /metrics "
                              "/healthz); 0 picks a free port")
    serve_p.add_argument("--batch-window", type=float, default=0.0,
                         metavar="SECONDS",
                         help="wait this long after the first queued "
                              "request to coalesce more into the batch "
                              "(default 0: batch whatever is already "
                              "queued)")
    _add_jobs(serve_p)
    serve_p.set_defaults(fn=cmd_serve)

    perf_p = sub.add_parser(
        "perf", help="record, compare and export run-ledger telemetry")
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)

    record_p = perf_sub.add_parser(
        "record", help="benchmark suites into the ledger (min-time "
                       "over --rounds)")
    record_p.add_argument("--suite", action="append", metavar="NAME",
                          help="suite to benchmark (repeatable; default "
                               "all simulated suites)")
    record_p.add_argument("-e", "--experiment", action="append",
                          choices=sorted(EXPERIMENTS), metavar="EXP",
                          help="pipeline to benchmark (repeatable; "
                               "default Lphi,ABI+C)")
    record_p.add_argument("--rounds", type=int, default=3, metavar="N",
                          help="timing rounds per record (default 3; "
                               "the min is recorded)")
    record_p.add_argument("--serve-json", default=None, metavar="FILE",
                          help="ingest a benchmarks/bench_serve.py "
                               "result document (BENCH_serve.json) as "
                               "serve:<suite> throughput rows instead "
                               "of running compile benchmarks")
    _add_jobs(record_p)
    record_p.set_defaults(fn=cmd_perf)

    list_p = perf_sub.add_parser("list", help="print the ledger entries")
    _add_ledger(list_p)
    list_p.set_defaults(fn=cmd_perf)

    diff_p = perf_sub.add_parser(
        "diff", help="noise-aware min-time comparison of two entry "
                     "selections (exit 1 on regression)")
    diff_p.add_argument("old", help="ledger file, entry index (-1 = "
                                    "latest) or rev:<prefix>")
    diff_p.add_argument("new", help="same selector forms as OLD")
    diff_p.add_argument("--threshold", type=float, default=0.25,
                        metavar="F",
                        help="relative slowdown tolerated before a "
                             "timing regression is flagged "
                             "(default 0.25 = 25%%)")
    _add_ledger(diff_p)
    diff_p.set_defaults(fn=cmd_perf)

    trend_p = perf_sub.add_parser(
        "trend", help="markdown trajectory table of recorded wall times")
    trend_p.add_argument("--suite", default=None, metavar="NAME",
                         help="restrict to one suite")
    _add_ledger(trend_p)
    trend_p.set_defaults(fn=cmd_perf)

    export_p = perf_sub.add_parser(
        "export", help="Prometheus text exposition of the latest "
                       "entry per suite/experiment")
    export_p.add_argument("--prometheus", action="store_true",
                          help="emit Prometheus text format (the only "
                               "format; flag kept for clarity)")
    _add_ledger(export_p)
    export_p.set_defaults(fn=cmd_perf)

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
                            help="worker count for the parallel "
                                 "byte-identity check (default 4)")
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

    fuzz_corpus_p = fuzz_sub.add_parser(
        "corpus", help="generate a reproducible program corpus")
    fuzz_corpus_p.add_argument("--out", required=True, metavar="DIR")
    fuzz_corpus_p.add_argument("--programs", type=int, default=100,
                               metavar="N")
    fuzz_corpus_p.add_argument("--functions", type=int, default=5,
                               metavar="N",
                               help="functions per program (default 5)")
    fuzz_corpus_p.add_argument("--profile", default="default",
                               metavar="NAME")
    fuzz_corpus_p.add_argument("--seed0", type=int, default=0,
                               metavar="K",
                               help="first seed (default 0)")
    fuzz_corpus_p.add_argument("--replay", action="store_true",
                               help="compile + verify every program "
                                    "after writing it")
    fuzz_corpus_p.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "interp", None):
        # Through the environment rather than a threaded parameter so
        # forked pool workers and the serve worker pool inherit the
        # tier unchanged.
        from .interp import INTERP_ENV

        os.environ[INTERP_ENV] = args.interp
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
