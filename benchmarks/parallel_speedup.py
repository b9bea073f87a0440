"""Measure the worker-pool speedup of the paper-table batch and gate it.

The unit the pool splits is a *plan*: one module's experiments, run
whole on one worker (see :mod:`repro.parallel`).  This script times the
batch ``repro tables`` compiles -- every suite's Table 2-4 experiments,
one :func:`repro.pipeline.run_jobs` call of five plans and 50 jobs --
at ``jobs=1`` against the same batch on one warmed
:class:`~repro.parallel.WorkerPool` of N workers.  Rounds alternate
serial and pooled runs in one process; each side keeps its minimum.
It rewrites the ``parallel`` block of ``BENCH_compile_time.json`` with
what it measured and -- only when the host has >= N cores -- fails if
the speedup misses the gate.

What bounds the speedup on two workers: the largest plans, SPECint and
LAI_Large, take about 1.3 s and 1.05 s of a 2.8 s serial batch, so the
pooled batch cannot finish in much under 1.5 s; and every result
travels back pickled whole (module, stats, phase records: about 4.7 MB
for the batch, some 0.6 s to unpickle in the parent).

Usage::

    PYTHONPATH=src python benchmarks/parallel_speedup.py \
        [--jobs 2] [--rounds 10] [--gate 1.1] \
        [--update BENCH_compile_time.json]
"""

from __future__ import annotations

import argparse
import json
import os
import time


def table_batch() -> list:
    """The jobs of ``repro tables``: every suite x every Table 2-4
    experiment, in the CLI's order."""
    from repro.benchgen import all_suites
    from repro.parallel import Job
    from repro.pipeline import EXPERIMENTS, TABLE_EXPERIMENTS

    names = [name for experiments in TABLE_EXPERIMENTS.values()
             for name in experiments]
    return [Job(suite.module, name, EXPERIMENTS[name])
            for suite in all_suites() for name in names]


def timed(fn) -> float:
    start = time.perf_counter()
    results = fn()
    elapsed = time.perf_counter() - start
    failed = [r for r in results if isinstance(r, Exception)]
    if failed:
        raise failed[0]
    return elapsed


def measure(jobs: int, rounds: int) -> dict:
    from repro.parallel import WorkerPool
    from repro.pipeline import run_jobs

    batch = table_batch()
    serial, pooled = [], []
    with WorkerPool(jobs) as pool:
        pool.warm()
        # Warm imports, interpreter caches and the workers once.
        timed(lambda: run_jobs(batch, jobs=1))
        timed(lambda: run_jobs(batch, pool=pool))
        for i in range(rounds):
            serial.append(timed(lambda: run_jobs(batch, jobs=1)))
            pooled.append(timed(lambda: run_jobs(batch, pool=pool)))
            print(f"round {i}: serial {serial[-1]:.3f}s  jobs={jobs} "
                  f"{pooled[-1]:.3f}s  ({serial[-1] / pooled[-1]:.2f}x)")
        assert pool.respawns == 0, "a worker died during the measurement"
    ratios = [s / p for s, p in zip(serial, pooled)]
    row = {"jobs": len(batch), "rounds": rounds,
           "serial_s": round(min(serial), 4),
           f"jobs{jobs}_s": round(min(pooled), 4),
           "speedup": round(min(serial) / min(pooled), 2),
           "round_speedups": [round(min(ratios), 2), round(max(ratios), 2)]}
    print(f"tables batch: serial {row['serial_s']}s  jobs={jobs} "
          f"{row[f'jobs{jobs}_s']}s  ({row['speedup']}x, rounds "
          f"{row['round_speedups'][0]}-{row['round_speedups'][1]}x)")
    return row


def update_summary(path: str, jobs: int, gate: float, row: dict,
                   cpus: int) -> None:
    with open(path) as handle:
        summary = json.load(handle)
    summary["parallel"] = {
        "method": (f"one run_jobs batch of every suite's Table 2-4 "
                   f"experiments (the repro tables batch), jobs=1 against "
                   f"a warmed WorkerPool({jobs}), rounds interleaved in "
                   f"one process, min of each side; see docs/performance.md "
                   f"'Parallel compilation'"),
        "host_cpus": cpus,
        "target": f"tables batch jobs={jobs} >= {gate}x over serial on a "
                  f">={jobs}-core host",
        "tables": row,
    }
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--gate", type=float, default=1.1,
                        help="minimum tables-batch speedup on >=jobs-core "
                             "hosts (0 disables)")
    parser.add_argument("--update", metavar="SUMMARY_JSON", default=None,
                        help="rewrite this file's 'parallel' block with "
                             "the measurements")
    args = parser.parse_args(argv)
    cpus = os.cpu_count() or 1
    print(f"host cpus: {cpus}, measuring jobs={args.jobs} "
          f"over {args.rounds} rounds")
    row = measure(args.jobs, args.rounds)
    if args.update:
        update_summary(args.update, args.jobs, args.gate, row, cpus)
    if cpus < args.jobs:
        print(f"host has {cpus} < {args.jobs} cores: wall-clock speedup "
              f"is not measurable here, gate skipped")
        return 0
    if args.gate:
        if row["speedup"] < args.gate:
            print(f"FAIL: tables batch jobs={args.jobs} speedup "
                  f"{row['speedup']}x < required {args.gate}x")
            return 1
        print(f"gate ok: tables batch {row['speedup']}x >= {args.gate}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
