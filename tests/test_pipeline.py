"""Experiment pipelines: the Table 1 matrix, self-verification, stats."""

import pytest

from repro import compile_module, pipeline
from repro.ir import validate_function
from repro.ir.printer import format_module
from repro.lai import parse_module
from repro.observability import Tracer
from repro.observability.statdiff import stats_digest
from repro.parallel import Job, fork_available
from repro.pipeline import (EXPERIMENTS, TABLE_EXPERIMENTS, PhaseOptions,
                            ensure_ssa, run_experiment, run_jobs,
                            run_phases, run_table, run_table5,
                            table5_variants)

from helpers import module_of

SIMPLE = """
func main
entry:
    input n
    make s, 0
    make i, 0
    br head
head:
    cmplt c, i, n
    cbr c, body, exit
body:
    add s, s, i
    autoadd i, i, 1
    br head
exit:
    ret s
endfunc
"""

VERIFY = [("main", [6]), ("main", [0])]


PAIR = """
func twice
entry:
    input a
    add b, a, a
    ret b
endfunc
func pick
entry:
    input a
    cbr a, l, r
l:
    add x, a, 2
    br j
r:
    sub x, a, 3
    br j
j:
    ret x
endfunc
"""


class TestRunJobs:
    """The one driver every batch of compiles goes through."""

    @pytest.mark.parametrize("jobs", [1, pytest.param(
        2, marks=pytest.mark.skipif(not fork_available(),
                                    reason="platform lacks fork"))])
    def test_mixed_batch_matches_each_jobs_own_run(self, jobs):
        # Two modules, three experiments and, in the middle, one job
        # with an unknown phase: every other slot equals that job's own
        # run_experiment, and the jobs after the bad one still run.
        loop, pair = module_of(SIMPLE, "loop"), module_of(PAIR, "pair")
        pess = table5_variants()["pess"]
        good = [(loop, "Lphi,ABI+C", None), (pair, "C", None),
                (pair, "Sphi+C", None), (loop, "Lphi,ABI+C", pess),
                (pair, "Lphi,ABI+C", None)]
        batch = [Job(module, name, EXPERIMENTS[name], options)
                 for module, name, options in good]
        batch.insert(2, Job(pair, "broken", ("ssa", "warp-drive")))
        results = run_jobs(batch, tracer=Tracer, jobs=jobs)
        assert len(results) == len(batch)
        bad = results.pop(2)
        assert isinstance(bad, ValueError)
        assert "unknown phase" in str(bad)
        for (module, name, options), result in zip(good, results):
            own = run_experiment(module, name, options=options,
                                 tracer=Tracer(), jobs=1)
            assert format_module(result.module) == \
                format_module(own.module)
            assert stats_digest(result.to_stats()) == \
                stats_digest(own.to_stats())
        assert bool(results[0].parallel) == (jobs > 1)


    def test_recording_run_measures_each_phase_boundary_once(
            self, monkeypatch):
        # A phase's ``before`` measures are the previous phase's
        # ``after``: P phases take P + 1 snapshots, not 2P.
        calls = []
        snapshot = pipeline._snapshot

        def counted(module):
            calls.append(module)
            return snapshot(module)

        monkeypatch.setattr(pipeline, "_snapshot", counted)
        phases = EXPERIMENTS["Lphi,ABI+C"]
        result = run_experiment(module_of(SIMPLE, "loop"), "Lphi,ABI+C",
                                tracer=Tracer(), jobs=1)
        assert len(calls) == len(phases) + 1
        breakdown = result.phase_breakdown
        assert [entry["phase"] for entry in breakdown] == list(phases)
        for prev, entry in zip(breakdown, breakdown[1:]):
            for fn_name, record in entry["functions"].items():
                assert record["before"] == \
                    prev["functions"][fn_name]["after"]


class TestMatrix:
    def test_experiment_names_match_paper_tables(self):
        assert set(TABLE_EXPERIMENTS["table2"]) <= set(EXPERIMENTS)
        assert set(TABLE_EXPERIMENTS["table3"]) <= set(EXPERIMENTS)
        assert set(TABLE_EXPERIMENTS["table4"]) <= set(EXPERIMENTS)

    def test_pinning_sp_always_active(self):
        """The paper: 'we choose to always execute pinningSP'."""
        for name, phases in EXPERIMENTS.items():
            assert "pinningSP" in phases, name

    def test_table4_has_no_late_coalescing(self):
        for name in TABLE_EXPERIMENTS["table4"]:
            assert "coalescing" not in EXPERIMENTS[name]

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_experiment_runs_and_verifies(self, name):
        module = module_of(SIMPLE)
        result = run_experiment(module, name, verify=VERIFY)
        for f in result.module.iter_functions():
            validate_function(f, allow_phis=False)
        assert result.moves >= 0
        assert result.instructions > 0

    def test_input_module_unchanged(self):
        module = module_of(SIMPLE)
        import repro.ir.printer as pr

        before = pr.format_module(module)
        run_experiment(module, "Lphi,ABI+C", verify=VERIFY)
        assert pr.format_module(module) == before

    def test_verification_catches_breakage(self):
        """A deliberately wrong 'verify' baseline must raise."""
        module = module_of(SIMPLE)
        with pytest.raises(Exception):
            run_experiment(module, "C", verify=[("main", [6, 6])])

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown phase"):
            run_phases(module_of(SIMPLE), "x", ["ssa", "warp-drive"])

    def test_run_table(self):
        results = run_table(module_of(SIMPLE), "table2", verify=VERIFY)
        assert [r.name for r in results] == list(TABLE_EXPERIMENTS["table2"])

    def test_table5_variants(self):
        assert set(table5_variants()) == {"base", "depth", "opt", "pess"}
        results = run_table5(module_of(SIMPLE), verify=VERIFY)
        assert [r.name for r in results] == ["base", "depth", "opt", "pess"]
        assert all(r.weighted >= r.moves for r in results)

    def test_compile_module_api(self):
        result = compile_module(module_of(SIMPLE), verify=VERIFY)
        assert result.name == "Lphi,ABI+C"
        assert "pinningPhi" in result.phase_stats


class TestOrderingExpectations:
    def test_ours_never_worse_than_naive_on_simple(self):
        module = module_of(SIMPLE)
        ours = run_experiment(module, "Lphi,ABI+C", verify=VERIFY).moves
        labi = run_experiment(module, "LABI+C", verify=VERIFY).moves
        naive = run_experiment(module, "naiveABI+C", verify=VERIFY).moves
        assert ours <= labi <= naive

    def test_table4_magnitudes(self):
        module = module_of(SIMPLE)
        ours = run_experiment(module, "Lphi,ABI", verify=VERIFY).moves
        labi = run_experiment(module, "LABI", verify=VERIFY).moves
        assert ours <= labi


class TestEnsureSsa:
    def test_ssa_source_accepted(self):
        module = module_of("""
func f
entry:
    input a
    cbr a, l, r
l:
    br j
r:
    br j
j:
    x = phi(a:l, a:r)
    ret x
endfunc
""")
        f = module.function("f")
        ensure_ssa(f)
        validate_function(f, ssa=True)

    def test_plain_source_constructed(self):
        module = module_of(SIMPLE)
        f = module.function("main")
        ensure_ssa(f)
        validate_function(f, ssa=True)
        assert any(block.phis for block in f.iter_blocks())
