"""The numbers of the extensions beyond the paper's tables, pinned.

``benchmarks/results/{ablations,weights,regalloc,optimality}.json`` back
EXPERIMENTS.md's "Ablations" and "Beyond the paper" sections.  Each is
recomputed here by the function its ``bench_*`` harness times and saves
(``benchmarks/extensions.py``) and must equal the committed file cell
for cell: a change to any of them is a deliberate regeneration with
``pytest benchmarks/bench_<table>.py --benchmark-only``, never a side
effect.
"""

import importlib.util
import json
import os

import pytest

from repro.benchgen import all_suites

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks")
TABLES = ("ablations", "weights", "regalloc", "optimality")


def _load_extensions():
    spec = importlib.util.spec_from_file_location(
        "extensions", os.path.join(BENCHMARKS, "extensions.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


extensions = _load_extensions()


def committed(table: str) -> dict:
    with open(os.path.join(BENCHMARKS, "results", f"{table}.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suites():
    return {suite.name: suite for suite in all_suites()}


@pytest.mark.parametrize("table", TABLES)
def test_extension_matches_committed_results(suites, table):
    expected = committed(table)
    assert list(expected) == [table]
    assert getattr(extensions, table)(suites) == expected[table]
