"""Static 5^depth weights vs measured execution counts.

Table 5's weighting is "a static approximation where each loop would
contain 5 iterations".  With the reference interpreter we can compare
the approximation against ground truth: for each suite, rank the four
with-ABI pipelines by (a) the static weighted count and (b) the dynamic
move-execution count over the verify runs, and report both.  The
reproduction claim: the static metric induces the same ranking.
"""

from conftest import run_once, save_table
from extensions import WEIGHT_SUITES, WITH_ABI, weights

TABLE = "weights"


def test_static_vs_dynamic(benchmark, suites, collector, capsys):
    rows = run_once(benchmark, weights, suites)
    save_table(collector, capsys, TABLE, rows, baseline="Lphi,ABI+C")
    for suite_name in WEIGHT_SUITES:
        static = rows[f"{suite_name}-static"]
        dynamic = rows[f"{suite_name}-dynamic"]
        # Ranking agreement between the approximation and the measurement.
        static_rank = sorted(WITH_ABI, key=static.get)
        dynamic_rank = sorted(WITH_ABI, key=dynamic.get)
        assert static_rank[0] == dynamic_rank[0] == "Lphi,ABI+C", \
            suite_name
