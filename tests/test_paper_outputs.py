"""The paper's outputs, pinned.

* **Golden numbers**: Tables 2-4 move counts and Table 5 weighted move
  counts of every suite equal the committed
  ``benchmarks/results/table{2,3,4,5}.json`` -- serially and through the
  parallel engine.  A change to any of them is a deliberate
  regeneration with the ``bench_table*`` harness, never a side effect.
* **Job-count identity**: ``format_module`` text and ``stats_digest``
  of every suite x Table 1 experiment x Table 5 variant are identical
  at ``jobs=1``, ``jobs=2`` and on a shared ``WorkerPool(2)``.
* **Printable output**: every paper output reparses, and
  print -> parse -> print is a fixpoint.
"""

import json
import os

import pytest

from repro.benchgen import all_suites
from repro.ir.printer import format_module
from repro.lai import parse_module
from repro.observability.statdiff import stats_digest
from repro.parallel import WorkerPool, fork_available
from repro.pipeline import (EXPERIMENTS, TABLE_EXPERIMENTS, run_table,
                            run_table5)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "results")
TABLES = ("table2", "table3", "table4", "table5")


def golden(table: str) -> dict:
    with open(os.path.join(RESULTS_DIR, f"{table}.json")) as handle:
        return json.load(handle)[table]


def table_runs(module, **kwargs) -> dict:
    """Every paper table on *module*: Tables 2-4 between them cover the
    10 Table 1 experiments, Table 5 adds the coalescer variants."""
    runs = {table: run_table(module, table, **kwargs)
            for table in TABLE_EXPERIMENTS}
    runs["table5"] = run_table5(module, **kwargs)
    return runs


def cells(runs: dict) -> dict:
    """``{table: {column: value}}`` as the harness records it: moves for
    Tables 2-4, weighted moves for Table 5."""
    return {table: {r.name: r.weighted if table == "table5" else r.moves
                    for r in results}
            for table, results in runs.items()}


def outputs(runs: dict) -> dict:
    """Label -> (module text, stats digest) of the 10 Table 1
    experiments and the three non-base Table 5 variants."""
    return {r.name: (format_module(r.module), stats_digest(r.to_stats()))
            for results in runs.values() for r in results
            if r.name != "base"}


@pytest.fixture(scope="module")
def suites():
    return all_suites()


@pytest.fixture(scope="module")
def serial(suites):
    return {suite.name: table_runs(suite.module, jobs=1)
            for suite in suites}


@pytest.fixture(scope="module")
def sharded(suites):
    if not fork_available():
        pytest.skip("platform lacks fork")
    return {suite.name: table_runs(suite.module, jobs=2)
            for suite in suites}


@pytest.mark.parametrize("runs", ["serial", "sharded"])
def test_tables_match_committed_results(request, runs):
    by_suite = request.getfixturevalue(runs)
    expected = {table: golden(table) for table in TABLES}
    for suite_name, suite_runs in by_suite.items():
        measured = cells(suite_runs)
        for table in TABLES:
            assert measured[table] == expected[table][suite_name], \
                f"{table} {suite_name} ({runs})"


def test_outputs_identical_at_any_job_count(suites, serial, sharded):
    with WorkerPool(2) as pool:
        for suite in suites:
            reference = outputs(serial[suite.name])
            assert set(reference) == set(EXPERIMENTS) | {"depth", "opt",
                                                         "pess"}
            assert outputs(sharded[suite.name]) == reference, suite.name
            pooled = table_runs(suite.module, pool=pool)
            assert outputs(pooled) == reference, suite.name


def test_outputs_reparse_to_a_fixpoint(serial):
    for suite_name, suite_runs in serial.items():
        for label, (text, _) in outputs(suite_runs).items():
            assert format_module(parse_module(text)) == text, \
                f"{suite_name} {label}"
