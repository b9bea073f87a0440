"""The repository's benchmark: one command per workload.

    python3 perfbench/run.py --workload paper-tables --seed 1 \\
        --seconds 15 --trace 0

Runs the workload's fixed op list for the seed, checks every output,
and prints every metric by name and unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` runs the workload a second time with per-layer spans and reports
the per-layer metrics.  Timings are reference seconds (see
``calib.py``); perfbench/README.md has the method and the metric map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from calib import HostClock
from common import percentile, ratio
from tracing import LAYERS, Recorder, install, uninstall

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: workload -> (module, class) under perfbench/.
WORKLOADS = {
    "paper-tables": ("paper_tables", "PaperTables"),
    "serve-mix": ("serve_mix", "ServeMix"),
    "fuzz-sweep": ("fuzz_sweep", "FuzzSweep"),
}

#: Timed set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 9


def _prepare_environment() -> None:
    """Run from the checkout root with a fixed, contained environment:
    no ``REPRO_*`` overrides, temporary files under ``.perfbench/``."""
    os.chdir(ROOT)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = SRC
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(0, SRC)


def _load(name: str):
    module_name, class_name = WORKLOADS[name]
    return getattr(importlib.import_module(module_name), class_name)


class ChildSetup:
    """Set-up of the batch workloads: a fresh interpreter that imports
    the workload and builds its inputs (``--setup-child``), timed from
    spawn to exit."""

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--setup-child"]

    def setup_once(self) -> None:
        subprocess.run(self.argv, check=True, timeout=120)

    def discard_setup(self) -> None:
        pass


def measure_setup(setup, reps: int = SETUP_REPS) -> list[float]:
    """Reference seconds of *reps* timed set-ups.

    Set-up children (:class:`ChildSetup`) run pinned, with the
    calibration, to one CPU: a fresh interpreter lands on either CPU,
    their speeds differ, and unpinned the calibration added noise
    instead of removing it.
    """
    cpus = os.sched_getaffinity(0)
    if isinstance(setup, ChildSetup):
        os.sched_setaffinity(0, {min(cpus)})
    try:
        clock = HostClock()
        for _ in range(reps):
            setup.discard_setup()
            clock.reopen()
            start = time.perf_counter()
            setup.setup_once()
            clock.close(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return [raw * clock.factor(block)
            for block, (raw, _) in enumerate(clock.blocks)]


def end_to_end(setup_s: list, outcome) -> dict:
    """The end-to-end metrics; every workload reports all of them."""
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "total_s": (outcome.total_s, "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "moves": (outcome.moves, "count"),
        "weighted_moves": (outcome.weighted_moves, "count"),
        "generated_steps": (outcome.generated_steps, "count"),
        "pass_rate": (1 - outcome.failed / outcome.attempted, "ratio"),
    }


def per_layer(recorder, traced, untraced, clock) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass, and the experiment x layer
    breakdown of the ``outofssa.*`` and ``analysis.build`` self times."""
    self_s, by_label = recorder.self_times()
    values = {f"{layer}_s": (self_s.get(layer, 0.0), "s")
              for layer in LAYERS}
    counts = recorder.counts
    analysis = {"hits": 0, "misses": 0, "oracle_hits": 0,
                "oracle_misses": 0}
    cache = {"hits": 0, "misses": 0, "bytes": 0}
    pool_s = merge_s = 0.0
    for op, result in recorder.results:
        for key in analysis:
            analysis[key] += result.analysis_cache.get(key, 0)
        for key in cache:
            cache[key] += result.cache.get(key, 0)
        factor = recorder.factor(op)
        pool_s += result.parallel.get("pool_ns", 0) / 1e9 * factor
        merge_s += result.parallel.get("merge_ns", 0) / 1e9 * factor
    layers = traced.layers
    lat = untraced.latencies

    def latency(cls: str, pct: float) -> tuple:
        return (percentile(lat[cls], pct) if lat else 0.0, "s")

    values.update({
        "lai.chars_per_s": (ratio(counts["lai.chars"],
                                  self_s.get("lai.parse", 0.0)), "chars/s"),
        "lai.output_rejects": (traced.output_rejects, "count"),
        "analysis.hit_ratio": (ratio(analysis["hits"], analysis["hits"]
                                     + analysis["misses"]), "ratio"),
        "analysis.oracle_hit_ratio": (
            ratio(analysis["oracle_hits"],
                  analysis["oracle_hits"] + analysis["oracle_misses"]),
            "ratio"),
        "interp.steps": (counts["interp.steps"], "count"),
        "cache.hit_ratio": (layers.get(
            "cache.hit_ratio",
            ratio(cache["hits"], cache["hits"] + cache["misses"])),
            "ratio"),
        "cache.bytes": (layers.get("cache.bytes", cache["bytes"]), "bytes"),
        "parallel.pool_s": (pool_s, "s"),
        "parallel.merge_s": (merge_s, "s"),
        "serve.server_s": (layers.get("serve.server_s", 0.0), "s"),
        "serve.queue_s": (layers.get("serve.queue_s", 0.0), "s"),
        "serve.batch_size_mean": (layers.get("serve.batch_size_mean", 0.0),
                                  "count"),
        "serve.memo_hits": (layers.get("serve.memo_hits", 0), "count"),
        "serve.dedup_hits": (layers.get("serve.dedup_hits", 0), "count"),
        "serve.cold_p50_s": latency("cold", 50),
        "serve.cold_p90_s": latency("cold", 90),
        "serve.hit_p50_s": latency("hit", 50),
        "serve.hit_p90_s": latency("hit", 90),
        "serve.memo_p50_s": latency("memo", 50),
        "serve.memo_p90_s": latency("memo", 90),
        "fuzz.divergences": (layers.get("fuzz.divergences", 0), "count"),
        "host.calib_s": (clock.calib_s, "s"),
        "host.raw_total_s": (untraced.raw_total_s, "s"),
        "trace.total_s": (traced.total_s, "s"),
        "trace.overhead": (ratio(traced.total_s, untraced.total_s), "x"),
        # Paper section 5: coalescing during translation against
        # cleaning up afterwards.
        "s5.LphiABI_C.translate_s": (
            by_label.get(("Lphi,ABI+C", "outofssa.pinningPhi"), 0.0)
            + by_label.get(("Lphi,ABI+C", "outofssa.reconstruct"), 0.0),
            "s"),
        "s5.C.coalescing_s": (
            by_label.get(("C", "outofssa.coalescing"), 0.0), "s"),
        "s5.naiveABI_C.coalescing_s": (
            by_label.get(("naiveABI+C", "outofssa.coalescing"), 0.0), "s"),
    })
    breakdown: dict = {}
    for (label, layer), seconds in sorted(by_label.items()):
        if layer.startswith("outofssa.") or layer == "analysis.build":
            breakdown.setdefault(label, {})[layer] = seconds
    return values, breakdown


def _print_breakdown(breakdown: dict) -> None:
    columns = ["outofssa.pinningPhi", "outofssa.sreedhar",
               "outofssa.reconstruct", "outofssa.naiveABI",
               "outofssa.coalescing", "analysis.build"]
    print("self reference-s by experiment: "
          + " | ".join(column.split(".")[-1] for column in columns))
    for label, row in breakdown.items():
        print(f"  {label:<22} "
              + " ".join(f"{row.get(column, 0.0):9.4f}"
                         for column in columns))


def run(args) -> dict:
    from checks import Verdicts, digest  # imports repro

    cls = _load(args.workload)
    passes = max(1, round(args.seconds / cls.nominal_pass_s))
    workload = cls(args.seed, passes)
    verdicts = Verdicts(os.path.join(".perfbench", "verdicts",
                                     f"{args.workload}.json"))
    setup = workload if hasattr(workload, "setup_once") \
        else ChildSetup(args.workload, args.seed)
    try:
        setup_s = measure_setup(setup)
        clock = HostClock()
        untraced = workload.measure(clock)
        untraced.total_s, untraced.raw_total_s = clock.ref_s, clock.raw_s
        workload.check(untraced, verdicts)
        checked = [untraced]
        if args.trace:
            recorder = Recorder()
            undo = install(recorder)
            try:
                if setup is workload:  # serve-mix: a fresh server
                    recorder.op = "setup"
                    setup_clock = HostClock()
                    start = time.perf_counter()
                    workload.setup_once()
                    block = setup_clock.close(time.perf_counter() - start)
                    recorder.blocks["setup"] = (setup_clock, block)
                trace_clock = HostClock()
                traced = workload.measure(trace_clock, recorder)
            finally:
                uninstall(undo)
            traced.total_s = trace_clock.ref_s
            traced.raw_total_s = trace_clock.raw_s
            workload.check(traced, verdicts)
            checked.append(traced)
    finally:
        workload.close()
        verdicts.save()

    attempted = sum(outcome.attempted for outcome in checked)
    failed = sum(outcome.failed for outcome in checked)
    for outcome in checked:
        for op_id, detail in outcome.failures:
            print(f"FAIL {op_id}: {detail}")
    print("outputs:", digest(*(f"{op}={value}" for op, value
                               in sorted(untraced.digests.items()))))
    if args.trace:
        metrics, breakdown = per_layer(recorder, traced, untraced, clock)
        _print_breakdown(breakdown)
        layer_sum = sum(metrics[f"{layer}_s"][0] for layer in LAYERS)
        print(f"layer self-times {layer_sum:.4f} ref-s vs traced total_s "
              f"{traced.total_s:.4f} ref-s")
        report = os.path.join(".perfbench",
                              f"trace-{args.workload}-{args.seed}.json")
        with open(report, "w") as handle:
            json.dump({"metrics": metrics, "breakdown": breakdown,
                       "spans": recorder.spans}, handle)
    else:
        metrics = end_to_end(setup_s, untraced)
        for cls, values in untraced.latencies.items():
            print(f"latency {cls}: p50 {percentile(values, 50):.6f} p90 "
                  f"{percentile(values, 90):.6f} ref-s over {len(values)}")
        print(f"host: calib_s {clock.calib_s:.5f} s; total_s raw "
              f"{untraced.raw_total_s:.3f} s -> {untraced.total_s:.3f} "
              f"ref-s; setup_s samples "
              f"{' '.join(f'{value:.3f}' for value in setup_s)} ref-s")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    _prepare_environment()
    if args.setup_child:
        importlib.import_module(WORKLOADS[args.workload][0]) \
            .setup_child(args.seed)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
