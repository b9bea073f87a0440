"""End-to-end: out-of-SSA strategy -> graph-coloring allocation.

Beyond the paper's scope ([LIM4] leaves register pressure out), but the
natural downstream question: after allocation, do the coalescing
differences survive?  Each strategy's output is allocated over the
8-register GPR pool; we report final move counts and spill
instructions.  Coalescing during out-of-SSA must not wreck
colorability on these suites (spills stay rare and comparable).
"""

from conftest import run_once, save_table
from extensions import REGALLOC_SUITES, regalloc

TABLE = "regalloc"


def test_allocated_moves(benchmark, suites, collector, capsys):
    rows = run_once(benchmark, regalloc, suites)
    save_table(collector, capsys, TABLE, rows, baseline="Lphi,ABI+C")
    for suite_name in REGALLOC_SUITES:
        values = rows[suite_name]
        assert values["Lphi,ABI+C"] <= values["naiveABI+C"] + 2, suite_name
