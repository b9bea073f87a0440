"""Paper Table 3: move counts with all renaming constraints active --
``Lφ,ABI+C`` vs ``Sφ+LABI+C`` vs ``LABI+C`` vs ``naiveABI+C``.

Reproduction target: our combined treatment is the best column (the
``naiveABI+C`` column shows "the importance of treating the ABI with the
algorithm of Leung et al.: many move instructions could not be removed
by the dead code and aggressive coalescing phases").
"""

import pytest

from conftest import run_once
from repro.observability import Tracer
from repro.pipeline import run_experiment

TABLE = "table3"
EXPERIMENTS = ("Lphi,ABI+C", "Sphi+LABI+C", "LABI+C", "naiveABI+C")
SUITE_NAMES = ("VALcc1", "VALcc2", "example1-8", "LAI_Large", "SPECint")


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_table3(benchmark, suites, collector, suite_name, experiment):
    suite = suites[suite_name]
    result = run_once(benchmark, run_experiment, suite.module, experiment,
                      tracer=Tracer())
    collector.record(TABLE, suite_name, experiment, result.moves,
                     result=result)


def test_table3_report(benchmark, suites, collector, capsys):
    run_once(benchmark, lambda: None)
    rows = collector.tables.get(TABLE, {})
    if any(len(rows.get(suite_name, {})) != len(EXPERIMENTS)
           for suite_name in SUITE_NAMES):
        pytest.skip("run with --benchmark-only to fill the table")
    with capsys.disabled():
        print()
        print(collector.render(TABLE, baseline="Lphi,ABI+C"))
        print("paper (Table 3): VALcc1 242/+7/+3/+386  "
              "VALcc2 220/+15/+29/+449  example1-8 15/+3/+3/+18  "
              "LAI_Large 1085/+26/+62/+634  SPECint 23930/+413/+482/+38623")
    # Saved first, so a failing claim still records what was measured.
    collector.save(TABLE)
    for suite_name in SUITE_NAMES:
        values = rows[suite_name]
        ours = values["Lphi,ABI+C"]
        assert ours <= values["LABI+C"], suite_name
        assert ours <= values["naiveABI+C"], suite_name
