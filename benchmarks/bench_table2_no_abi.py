"""Paper Table 2: move counts when renaming (ABI) constraints are
ignored -- ``Lφ+C`` vs ``C`` vs ``Sφ+C``.

Reproduction target (shape, not absolute numbers):

* our coalescer beats plain Chaitin cleanup (``C`` column positive),
* Sreedhar et al. land close to us (small deltas either way; the paper
  itself reports Sφ+C *winning* on SPECint and flags it as optimistic).
"""

import pytest

from conftest import run_once
from repro.observability import Tracer
from repro.pipeline import run_experiment

TABLE = "table2"
EXPERIMENTS = ("Lphi+C", "C", "Sphi+C")
SUITE_NAMES = ("VALcc1", "VALcc2", "example1-8", "LAI_Large", "SPECint")


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_table2(benchmark, suites, collector, suite_name, experiment):
    suite = suites[suite_name]
    result = run_once(benchmark, run_experiment, suite.module, experiment,
                      tracer=Tracer())
    collector.record(TABLE, suite_name, experiment, result.moves,
                     result=result)


def test_table2_report(benchmark, suites, collector, capsys):
    run_once(benchmark, lambda: None)
    rows = collector.tables.get(TABLE, {})
    if any(len(rows.get(suite_name, {})) != len(EXPERIMENTS)
           for suite_name in SUITE_NAMES):
        pytest.skip("run with --benchmark-only to fill the table")
    with capsys.disabled():
        print()
        print(collector.render(TABLE, baseline="Lphi+C"))
        print("paper (Table 2): VALcc1 193/+59/+3  VALcc2 170/+44/+13  "
              "example1-8 14/+3/+3  LAI_Large 438/+44/+48  "
              "SPECint 6803/+3135/-59")
    # Saved first, so a failing claim still records what was measured.
    collector.save(TABLE)
    for suite_name in SUITE_NAMES:
        ours = rows[suite_name]["Lphi+C"]
        # The headline claim: handling phis with the pinning coalescer
        # needs no more moves than leaving everything to Chaitin.
        assert ours <= rows[suite_name]["C"], suite_name
