"""Reference vs compiled interpreter tier benchmark and CI gate.

The closure-compiled tier (``src/repro/interp/compiled.py``) exists to
make interpretation cheap enough for fuzzing sweeps and profile-guided
weighting; this script measures what it actually buys and gates the
claim in the CI ``bench-smoke`` job:

* **speed** -- replaying every paper suite's verify runs (plus one
  fuzz-profile corpus) under the compiled tier must be at least
  ``--gate``x (default 4.5x) faster **in aggregate** than the reference
  tree-walker, comparing min-over-rounds wall times (min, not mean:
  both tiers do a fixed amount of work, so the least-disturbed sample
  is the honest one).  Compiled times are warm-cache -- the epoch-keyed
  code cache is the product configuration, and compile time is reported
  separately per workload as ``compile_s``;
* **correctness** -- before any timing, every run is executed once
  under ``tier="both"`` lockstep, so a result/steps divergence between
  the tiers fails the benchmark outright rather than timing a wrong
  answer.

Usage::

    PYTHONPATH=src python benchmarks/bench_interp.py \
        [--rounds 5] [--gate 4.5] [--update BENCH_interp.json]

``--update`` rewrites ``BENCH_interp.json`` with the measurements,
stamped with the git revision they were taken at.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

BENCH_SCHEMA = "repro.bench_interp/v1"
FUZZ_PROFILE = "wide-merges"
FUZZ_SEEDS = range(8)


def workloads() -> list[tuple[str, list]]:
    """``(name, [(module, verify), ...])`` pairs: the five paper suites
    plus one synthetic corpus from the fuzz profile whose phi-heavy
    merges stress the compiled tier's parallel-copy plans."""
    from repro.benchgen import all_suites
    from repro.benchgen.synthetic import generate_module, profile_config

    loads = [(suite.name, [(suite.module, suite.verify)])
             for suite in all_suites()]
    corpus = [generate_module(seed, config=profile_config(FUZZ_PROFILE),
                              name=f"fuzz{seed}")
              for seed in FUZZ_SEEDS]
    loads.append((f"fuzz:{FUZZ_PROFILE}", corpus))
    return loads


def min_seconds(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_lockstep(corpus: list) -> tuple[int, str]:
    """Run every verify pair under ``tier="both"`` (raises
    :class:`repro.interp.TierDivergence` on any observable or
    step-count mismatch).  Returns the total step count and a content
    digest over the observables: two ``BENCH_interp.json`` rows with
    different digests ran different interpreter behaviour."""
    from repro.interp import run_module

    steps = 0
    observables = []
    for module, verify in corpus:
        for fn_name, args in verify:
            trace = run_module(module, fn_name, list(args), tier="both")
            steps += trace.steps
            observables.append([list(trace.results), trace.steps,
                                trace.calls, trace.stores])
    blob = json.dumps(observables, sort_keys=True).encode()
    return steps, hashlib.sha256(blob).hexdigest()


def measure(rounds: int) -> list[dict]:
    from repro.interp.compiled import (CompiledInterpreter, clear_code_cache,
                                       compile_function)
    from repro.interp.interpreter import Interpreter

    rows = []
    for name, corpus in workloads():
        steps, digest = check_lockstep(corpus)

        def reference():
            for module, verify in corpus:
                interp = Interpreter(module)
                for fn_name, args in verify:
                    interp.run(fn_name, list(args))

        def compiled():
            for module, verify in corpus:
                interp = CompiledInterpreter(module)
                for fn_name, args in verify:
                    interp.run(fn_name, list(args))

        def compile_all():
            clear_code_cache()
            for module, verify in corpus:
                for function in module.iter_functions():
                    compile_function(function)

        compile_s = min_seconds(compile_all, rounds)
        reference_s = min_seconds(reference, rounds)
        compiled()  # warm the code cache before timing
        compiled_s = min_seconds(compiled, rounds)
        rows.append({
            "suite": name,
            "runs": sum(len(verify) for _, verify in corpus),
            "steps": steps,
            "digest": digest,
            "reference_s": round(reference_s, 6),
            "compiled_s": round(compiled_s, 6),
            "compile_s": round(compile_s, 6),
            "speedup": round(reference_s / compiled_s, 2),
        })
        print(f"{name}: ref {reference_s:.4f}s  compiled {compiled_s:.4f}s  "
              f"(compile {compile_s:.4f}s)  {reference_s / compiled_s:.2f}x")
    return rows


def aggregate(rows: list[dict]) -> dict:
    reference_s = sum(row["reference_s"] for row in rows)
    compiled_s = sum(row["compiled_s"] for row in rows)
    return {"reference_s": round(reference_s, 6),
            "compiled_s": round(compiled_s, 6),
            "speedup": round(reference_s / compiled_s, 2)}


def git_rev() -> str:
    """The short git revision of the working directory, or
    ``"unknown"`` outside a repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--gate", type=float, default=4.5,
                        help="minimum aggregate compiled-over-reference "
                             "speedup (0 disables)")
    parser.add_argument("--update", metavar="BENCH_JSON", default=None,
                        help="rewrite this file with the measurements")
    args = parser.parse_args(argv)

    rows = measure(args.rounds)
    total = aggregate(rows)
    print(f"aggregate: ref {total['reference_s']:.4f}s  "
          f"compiled {total['compiled_s']:.4f}s  ({total['speedup']:.2f}x)")

    from repro.cache.key import code_version
    document = {
        "schema": BENCH_SCHEMA,
        "ts": round(time.time(), 3),
        "rev": git_rev(),
        "code_version": code_version(),
        "rounds": args.rounds,
        "rows": rows,
        "aggregate": total,
        "note": ("min-over-rounds wall times of the paper suites' verify "
                 "runs plus one fuzz-profile corpus; compiled times are "
                 "warm-code-cache; the aggregate >=4.5x speedup is enforced "
                 "by benchmarks/bench_interp.py in CI bench-smoke."),
    }
    if args.update:
        with open(args.update, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.update}")

    if args.gate and total["speedup"] < args.gate:
        print(f"FAIL: aggregate compiled speedup {total['speedup']}x "
              f"< required {args.gate}x")
        return 1
    if args.gate:
        print(f"gate ok: aggregate {total['speedup']}x >= {args.gate}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
