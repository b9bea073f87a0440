"""Compile-time comparison (the paper's section 5 'Compilation time').

The paper argues [CC3]: handling coalescing during the out-of-SSA
translation is cheaper than generating naive moves and cleaning them up
with repeated register coalescing, whose "complexity is proportional to
the number of move instructions in the program".  The authors could not
publish timings ("our implementation is too experimental"); we can:
these benchmarks time the two strategies on the same suites with
pytest-benchmark's real clock.

``ours``      SSA -> pins -> pinningφ -> reconstruction -> cleanup
``naive+C``   SSA -> reconstruction -> naiveABI -> cleanup

All workloads honour ``--jobs N`` (see :mod:`repro.parallel`): each
compile runs whole on a fork-pool worker and comes back unchanged, so
the *timings* change with the job count but the
stats document written by ``test_stats_snapshot`` must not -- the CI
bench-smoke job runs this file once serially and once with ``--jobs 2``
and diffs the snapshots with ``benchmarks/diff_stats.py``.
"""

import json
import os

import pytest

from repro.observability import Tracer
from repro.pipeline import run_experiment

from conftest import RESULTS_DIR

SUITE_NAMES = ("VALcc1", "LAI_Large", "SPECint")


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_time_ours(benchmark, suites, suite_name, jobs):
    suite = suites[suite_name]
    benchmark.pedantic(run_experiment, args=(suite.module, "Lphi,ABI+C"),
                       kwargs={"jobs": jobs},
                       rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_time_naive_plus_cleanup(benchmark, suites, suite_name, jobs):
    suite = suites[suite_name]
    benchmark.pedantic(run_experiment, args=(suite.module, "naiveABI+C"),
                       kwargs={"jobs": jobs},
                       rounds=3, iterations=1, warmup_rounds=1)


def test_stats_snapshot(suites, jobs):
    """Write each suite's traced stats document (one per suite) to
    ``results/compile_time.jobs<N>.stats.json`` so two runs at
    different job counts can be diffed for non-timing equality."""
    from repro.observability import COLLECTION_SCHEMA, validate_stats

    runs = []
    for suite_name in SUITE_NAMES:
        suite = suites[suite_name]
        result = run_experiment(suite.module, "Lphi,ABI+C",
                                tracer=Tracer(), jobs=jobs)
        document = result.to_stats()
        document["suite"] = suite_name
        runs.append(document)
    collection = {"schema": COLLECTION_SCHEMA, "runs": runs}
    validate_stats(collection)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"compile_time.jobs{jobs}.stats.json")
    with open(path, "w") as handle:
        json.dump(collection, handle, indent=2)


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_time_coalescing_phase_only(benchmark, suites, suite_name):
    """Isolate pinningφ itself: the part the paper adds to collect."""
    from repro.machine.constraints import pinning_abi, pinning_sp
    from repro.outofssa import coalesce_phis
    from repro.pipeline import ensure_ssa
    from repro.ssa import optimize_ssa

    suite = suites[suite_name]

    def prepare():
        module = suite.module.copy()
        for f in module.iter_functions():
            ensure_ssa(f)
            optimize_ssa(f)
            pinning_sp(f)
            pinning_abi(f)
        return module

    prepared = prepare()

    def phase():
        module = prepared.copy()
        for f in module.iter_functions():
            coalesce_phis(f)
        return module

    benchmark.pedantic(phase, rounds=3, iterations=1, warmup_rounds=1)
