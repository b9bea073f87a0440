"""Benchmark-suite configuration.

Each ``bench_table*.py`` reproduces one table of the paper: it runs the
table's experiments over the five simulated suites, *benchmarks* the
pipeline runtime (pytest-benchmark), prints the paper-style rows (first
column absolute, the rest as +/- deltas) and records everything into
``benchmarks/results/`` so EXPERIMENTS.md can cite the numbers.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import json
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", action="store", type=int, default=None, metavar="N",
        help="worker processes for the compile-time benchmarks "
             "(0 = all cores; default $REPRO_JOBS or 1 = serial); "
             "non-timing output is identical at any job count")


@pytest.fixture(scope="session")
def jobs(request):
    """The resolved ``--jobs`` worker count for parallel benchmarks."""
    from repro.parallel import resolve_jobs

    return resolve_jobs(request.config.getoption("--jobs"))


@pytest.fixture(scope="session")
def suites():
    """The five simulated suites, loaded once per session."""
    from repro.benchgen import all_suites

    return {suite.name: suite for suite in all_suites()}


class TableCollector:
    """Accumulates experiment counts and renders paper-style tables.

    When benchmarks hand over the full
    :class:`~repro.pipeline.ExperimentResult` (``result=``), its
    ``repro.stats/v2`` document is stashed too, and :meth:`save` writes
    a ``<table>.stats.json`` collection next to the legacy counts --
    the same schema the CLI emits, so trajectory tooling can consume
    benchmark output and ``repro tables --stats-json`` interchangeably.
    """

    def __init__(self):
        self.tables = {}
        self.stats_docs = []

    def record(self, table, suite, experiment, value, result=None):
        self.tables.setdefault(table, {}).setdefault(
            suite, {})[experiment] = value
        if result is not None and hasattr(result, "to_stats"):
            doc = result.to_stats()
            doc["table"] = table
            doc["suite"] = suite
            self.stats_docs.append(doc)

    def render(self, table, baseline):
        rows = self.tables.get(table, {})
        if not rows:
            return f"[{table}: no data]"
        experiments: list[str] = []
        for values in rows.values():
            for exp in values:
                if exp not in experiments:
                    experiments.append(exp)
        width = max(len(e) for e in experiments + ["benchmark"]) + 2
        lines = [f"--- {table} (first column absolute, rest deltas) ---"]
        header = "benchmark".ljust(14) + "".join(
            e.rjust(width) for e in experiments)
        lines.append(header)
        for suite, values in rows.items():
            cells = []
            base = values.get(baseline)
            for exp in experiments:
                val = values.get(exp)
                if val is None:
                    cells.append("-".rjust(width))
                elif exp == baseline or base is None:
                    cells.append(str(val).rjust(width))
                else:
                    cells.append(f"{val - base:+d}".rjust(width))
            lines.append(suite.ljust(14) + "".join(cells))
        return "\n".join(lines)

    def save(self, name):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(self.tables, handle, indent=2, sort_keys=True)
        docs = [d for d in self.stats_docs if d.get("table") == name]
        if docs:
            from repro.observability import COLLECTION_SCHEMA, validate_stats

            document = {"schema": COLLECTION_SCHEMA, "runs": docs}
            validate_stats(document)
            stats_path = os.path.join(RESULTS_DIR, f"{name}.stats.json")
            with open(stats_path, "w") as handle:
                json.dump(document, handle, indent=2)
        return path


@pytest.fixture(scope="session")
def collector():
    return TableCollector()


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark *fn* with a single measured round.

    The experiments are deterministic whole-pipeline runs; one round
    gives a faithful wall-clock figure without repeating seconds-long
    compilations dozens of times.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
