"""Optimality gap of the greedy pruning heuristic.

The paper proves the phi-coalescing (pruning) problem NP-complete and
uses a greedy weight-ordered heuristic, observing that "affinity and
interference graphs are usually quite simple".  This bench measures it
directly: for every phi-bearing block of every suite, solve the
per-block pruning problem *exactly* (branch and bound) and compare the
kept affinity multiplicity against the greedy pipeline's.

Expected outcome (and the paper's implicit claim): the greedy result is
optimal on almost every block, because real affinity graphs are tiny
stars with sparse interference.
"""

from conftest import run_once, save_table
from extensions import optimality

TABLE = "optimality"


def test_optimality_gap(benchmark, suites, collector, capsys):
    rows = run_once(benchmark, optimality, suites)
    # No baseline column: every count prints absolute.
    save_table(collector, capsys, TABLE, rows, baseline=None)
    for suite_name, row in rows.items():
        assert row["greedy-kept"] <= row["optimal-kept"], suite_name
        # the paper's observation: the heuristic is near-exact in practice
        if row["blocks"]:
            assert row["suboptimal-blocks"] <= max(1, row["blocks"] // 10), \
                suite_name
