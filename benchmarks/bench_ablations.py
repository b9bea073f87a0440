"""Ablations of the design choices DESIGN.md calls out.

Not in the paper's tables, but each isolates one decision of the
algorithm (``extensions.ABLATIONS``):

* ``weight-ordered`` greedy pruning vs arbitrary-order pruning,
* ``inner-to-outer`` block traversal vs outer-to-inner vs layout order,
* corrected weight updates vs the paper's literal pseudo-code,
* allowing vs forbidding phi-web merges into physical registers
  (the [LIM1] cost-model approximation quantified).

``LAI_Large-weighted`` adds weighted counts for the traversal pair on
the deepest suite (traversal order should matter most under 5^depth
weights).
"""

from conftest import run_once, save_table
from extensions import ablations

TABLE = "ablations"


def test_ablations(benchmark, suites, collector, capsys):
    rows = run_once(benchmark, ablations, suites)
    save_table(collector, capsys, TABLE, rows, baseline="default")
