"""The parallel compilation driver: determinism, merging, fallbacks.

The contract under test is the acceptance bar of the parallel engine:
paper-metric output -- the module text and the stats document's whole
``result`` block -- must be **identical at any job count**, and so must
the summed ``analysis_cache`` traffic and event count in ``env``.
Timing and the ``parallel`` block are ``env`` too and differ by
design.
"""

import os

import pytest

from repro.benchgen import load_suite
from repro.ir.printer import format_module
from repro.metrics import count_instructions
from repro.observability import Tracer, validate_stats
from repro.parallel import fork_available, partition, resolve_jobs
from repro.pipeline import (EXPERIMENTS, TABLE_EXPERIMENTS, PhaseOptions,
                            run_experiment, run_experiments, run_table,
                            run_table5)

from helpers import module_of

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")

def deterministic(doc: dict) -> tuple:
    """What a run must reproduce at any job count: the ``result`` block
    plus the ``env`` figures the workers' runs sum to."""
    env = doc["env"]
    return doc["result"], env["analysis_cache"], env["events"]


@pytest.fixture(scope="module")
def kernels():
    return load_suite("VALcc1")


TWO_FUNCTIONS = """
func f
entry:
    input a
    add b, a, 1
    ret b
endfunc
func g
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


class TestJobResolution:
    def test_explicit(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-2) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert resolve_jobs(None) == 1


def function_units(module):
    """The engine's ``(weight, key)`` units of one module."""
    return [(count_instructions(f), f.name)
            for f in module.iter_functions()]


class TestPartition:
    def test_covers_every_function_once(self, kernels):
        for workers in (1, 2, 4, 7):
            shards = partition(function_units(kernels.module), workers)
            names = [n for shard in shards for n in shard]
            assert sorted(names) == sorted(kernels.module.functions)
            assert len(shards) <= workers

    def test_deterministic(self, kernels):
        units = function_units(kernels.module)
        assert partition(units, 4) == partition(list(units), 4)

    def test_more_workers_than_functions(self):
        module = module_of(TWO_FUNCTIONS)
        shards = partition(function_units(module), 16)
        assert len(shards) == 2


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("experiment", ["Lphi,ABI+C", "naiveABI+C"])
    def test_stats_identical_modulo_timing(self, kernels, experiment):
        reference = None
        for jobs in (1, 2, 4):
            result = run_experiment(kernels.module, experiment,
                                    tracer=Tracer(), jobs=jobs)
            if jobs > 1:
                assert result.parallel, "parallel block missing"
            validate_stats(result.to_stats())
            doc = deterministic(result.to_stats())
            text = format_module(result.module)
            if reference is None:
                reference = (doc, text)
            else:
                assert doc == reference[0], f"jobs={jobs} stats diverged"
                assert text == reference[1], f"jobs={jobs} module diverged"

    def test_untraced_run_matches_too(self, kernels):
        serial = run_experiment(kernels.module, "Lphi,ABI+C", jobs=1)
        parallel = run_experiment(kernels.module, "Lphi,ABI+C", jobs=2)
        assert (serial.moves, serial.weighted, serial.instructions) == \
            (parallel.moves, parallel.weighted, parallel.instructions)
        assert serial.phase_stats == parallel.phase_stats
        assert serial.analysis_cache == parallel.analysis_cache
        assert format_module(serial.module) == \
            format_module(parallel.module)

    def test_workers_leave_the_paper_metrics_to_the_parent(
            self, kernels, monkeypatch):
        """Workers run the phases only: moves, weighted moves and
        instructions are counted once, on the merged module."""
        import repro.pipeline as pipeline

        parent = os.getpid()
        counted = pipeline.weighted_moves

        def parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a worker counted weighted moves")
            return counted(*args, **kwargs)

        # Patched before the per-call pool forks: workers inherit it.
        monkeypatch.setattr(pipeline, "weighted_moves", parent_only)
        serial = run_experiment(kernels.module, "Lphi,ABI+C",
                                tracer=Tracer(), jobs=1)
        parallel = run_experiment(kernels.module, "Lphi,ABI+C",
                                  tracer=Tracer(), jobs=2)
        assert parallel.parallel
        assert deterministic(parallel.to_stats()) == \
            deterministic(serial.to_stats())
        assert format_module(parallel.module) == \
            format_module(serial.module)

    def test_verify_runs_in_parallel_mode(self, kernels):
        result = run_experiment(kernels.module, "Lphi,ABI+C",
                                verify=kernels.verify[:3], jobs=2)
        assert result.moves >= 0

    def test_parallel_verification_catches_breakage(self):
        module = module_of(TWO_FUNCTIONS)
        with pytest.raises(Exception):
            run_experiment(module, "C", verify=[("f", [1, 2, 3])],
                           jobs=2)

    def test_tables_identical(self, kernels):
        for table in TABLE_EXPERIMENTS:
            serial = run_table(kernels.module, table, jobs=1)
            parallel = run_table(kernels.module, table, jobs=2)
            assert [r.name for r in serial] == [r.name for r in parallel]
            assert [(r.moves, r.weighted) for r in serial] == \
                [(r.moves, r.weighted) for r in parallel]
            assert [format_module(r.module) for r in serial] == \
                [format_module(r.module) for r in parallel]

    def test_table5_identical(self, kernels):
        serial = run_table5(kernels.module, jobs=1)
        parallel = run_table5(kernels.module, jobs=4)
        assert [r.name for r in serial] == \
            [r.name for r in parallel] == ["base", "depth", "opt", "pess"]
        assert [(r.moves, r.weighted) for r in serial] == \
            [(r.moves, r.weighted) for r in parallel]


class TestWorkerPayload:
    def test_phases_carry_records_not_deltas(self, kernels):
        """A worker ships each phase's per-function ``before``/``after``
        records; only the parent derives deltas, once, and the merged
        ``result`` equals the serial one."""
        from repro.parallel import Job, merge_job, run_units

        name = "Lphi,ABI+C"
        workers, pool_ns, (payloads,) = run_units(
            [Job(kernels.module, name, EXPERIMENTS[name])], jobs=2,
            traced=True)
        assert len(payloads) == 2
        for payload in payloads:
            assert [e["phase"] for e in payload["phases"]] == \
                list(EXPERIMENTS[name])
            for entry in payload["phases"]:
                assert set(entry) == {"phase", "seq", "start_ns",
                                      "duration_ns", "functions"}
                assert entry["functions"]
                for record in entry["functions"].values():
                    assert set(record) == {"before", "after"}
        merged = merge_job(kernels.module, name, payloads, tracer=Tracer(),
                           workers=workers, pool_ns=pool_ns)
        serial = run_experiment(kernels.module, name, tracer=Tracer())
        assert merged.to_stats()["result"] == serial.to_stats()["result"]


class TestTableParameterThreading:
    """Regression: run_table/run_table5 used to drop ``tracer``,
    ``validate`` and ``options``, so table stats documents had empty
    ``phases[]``."""

    def test_run_table_forwards_tracer(self):
        module = module_of(TWO_FUNCTIONS)
        results = run_table(module, "table2", tracer=Tracer)
        for result in results:
            assert result.phase_breakdown, result.name
            assert result.tracer.enabled
            doc = result.to_stats()
            assert doc["result"]["phases"], result.name
            validate_stats(doc)

    def test_run_table_tracers_are_per_run(self):
        module = module_of(TWO_FUNCTIONS)
        results = run_table(module, "table2", tracer=Tracer)
        tracers = {id(r.tracer) for r in results}
        assert len(tracers) == len(results)

    def test_run_table_forwards_options(self):
        module = module_of(TWO_FUNCTIONS)
        base, = [r for r in run_table(module, "table3",
                                      tracer=Tracer)
                 if r.name == "Lphi,ABI+C"]
        opt, = [r for r in run_table(module, "table3",
                                     options=PhaseOptions(mode="optimistic"),
                                     tracer=Tracer)
                if r.name == "Lphi,ABI+C"]
        assert "pinningPhi" in base.phase_stats
        assert "pinningPhi" in opt.phase_stats

    def test_run_table5_forwards_tracer(self):
        module = module_of(TWO_FUNCTIONS)
        results = run_table5(module, tracer=Tracer)
        assert all(r.phase_breakdown for r in results)

    def test_run_experiments_parallel_traced(self, kernels):
        serial = run_experiments(kernels.module, ["Lphi+C", "C"],
                                 tracer=Tracer, jobs=1)
        parallel = run_experiments(kernels.module, ["Lphi+C", "C"],
                                   tracer=Tracer, jobs=2)
        for left, right in zip(serial, parallel):
            assert deterministic(left.to_stats()) == \
                deterministic(right.to_stats())


class TestFallbacks:
    def test_single_function_module_stays_serial(self):
        module = module_of("""
func only
entry:
    input a
    ret a
endfunc
""")
        result = run_experiment(module, "C", jobs=4)
        assert not result.parallel

    def test_jobs_one_stays_serial(self, kernels):
        result = run_experiment(kernels.module, "C", jobs=1)
        assert not result.parallel

    def test_broken_pool_falls_back_to_serial(self, kernels,
                                              monkeypatch):
        import repro.parallel as par

        # ``run`` returns None only when even the respawned pool broke.
        monkeypatch.setattr(par.WorkerPool, "run",
                            lambda self, task, specs: None)
        result = run_experiment(kernels.module, "C", jobs=2)
        assert not result.parallel  # served by the serial path
        serial = run_experiment(kernels.module, "C", jobs=1)
        assert (result.moves, result.weighted) == \
            (serial.moves, serial.weighted)

    def test_fork_unavailable_falls_back(self, kernels, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par, "fork_available", lambda: False)
        result = run_experiment(kernels.module, "C", jobs=4)
        assert not result.parallel

    def test_worker_exceptions_propagate(self, monkeypatch):
        # A Python-level failure inside a worker (here: an unknown
        # phase) must raise exactly as it would serially, not silently
        # degrade.
        from repro.machine.st120 import ST120
        from repro.observability import NULL_TRACER
        from repro.parallel import Job, run_phases_parallel

        module = module_of(TWO_FUNCTIONS)
        (outcome,) = run_phases_parallel(
            [Job(module, "broken", ("ssa", "warp-drive"))], None,
            [NULL_TRACER], 2, None, None, ST120)
        with pytest.raises(ValueError, match="unknown phase"):
            raise outcome


def _exit_first_time(marker: str) -> int:
    """Pool task: kill this worker unless *marker* exists (creating it
    first), else return the pid."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return os.getpid()


class TestWorkerPool:
    """The persistent pool behind ``repro serve`` and ``pool=`` reuse:
    workers fork once, survive across calls, and a killed worker is
    respawned transparently (one retry, then serial fallback)."""

    def test_warm_spawns_distinct_workers(self):
        from repro.parallel import WorkerPool

        with WorkerPool(2) as pool:
            pids = pool.warm()
            assert len(pids) == 2
            assert os.getpid() not in pids
            assert pool.alive
            assert pool.ping()

    def test_workers_survive_across_runs(self, kernels):
        from repro.parallel import WorkerPool, _pool_ping

        with WorkerPool(2) as pool:
            before = set(pool.warm())
            executor = pool._pool
            for _ in range(2):
                results = run_experiments(kernels.module,
                                          ["Lphi,ABI+C", "C"],
                                          pool=pool)
                assert [r.name for r in results] == ["Lphi,ABI+C", "C"]
            for table in ("table2",):
                run_table(kernels.module, table, pool=pool)
            # Same executor, same worker processes, no respawn: the
            # whole point of passing ``pool=`` instead of ``jobs=``.
            assert pool._pool is executor
            assert pool.respawns == 0
            after = set(pool.run(_pool_ping, [0.05, 0.05]))
            assert after <= before

    def test_pool_results_match_serial(self, kernels):
        from repro.parallel import WorkerPool

        serial = run_experiments(kernels.module, ["Lphi,ABI+C", "C"],
                                 jobs=1)
        with WorkerPool(2) as pool:
            pooled = run_experiments(kernels.module,
                                     ["Lphi,ABI+C", "C"], pool=pool)
        assert [(r.moves, r.weighted) for r in serial] == \
            [(r.moves, r.weighted) for r in pooled]
        assert [format_module(r.module) for r in serial] == \
            [format_module(r.module) for r in pooled]

    def test_respawn_after_worker_killed(self, tmp_path):
        from repro.parallel import WorkerPool

        marker = str(tmp_path / "died")
        with WorkerPool(2) as pool:
            assert pool.warm()
            # The task kills its own worker on the first attempt, so
            # this very submission trips BrokenProcessPool; the pool
            # must respawn and retry once, not fail or fall serial.
            result = pool.run(_exit_first_time, [marker])
            assert result is not None and len(result) == 1
            assert os.path.exists(marker)
            assert pool.respawns == 1
            assert pool.ping()

    def test_killed_worker_does_not_break_experiments(self, kernels):
        import signal

        from repro.parallel import WorkerPool

        serial = run_experiments(kernels.module, ["Lphi,ABI+C", "C"],
                                 jobs=1)
        with WorkerPool(2) as pool:
            pids = pool.warm()
            os.kill(pids[-1], signal.SIGKILL)
            pooled = run_experiments(kernels.module,
                                     ["Lphi,ABI+C", "C"], pool=pool)
        assert [(r.moves, r.weighted) for r in serial] == \
            [(r.moves, r.weighted) for r in pooled]


class TestPhaseEntryUnion:
    """Regression: the per-phase delta iterated only the *after*
    measures, silently dropping functions removed by a phase from the
    deltas.  ``_phase_records`` builds every part's per-function
    records over the union of both maps, and ``_phase_delta`` is the
    one place a ``result.phases[]`` delta is computed."""

    def test_removed_function_reported_with_zero_after(self):
        from repro.pipeline import _phase_delta, _phase_records

        before = {"keep": {"instructions": 4, "moves": 1, "phis": 0},
                  "gone": {"instructions": 10, "moves": 3, "phis": 2}}
        after = {"keep": {"instructions": 3, "moves": 1, "phis": 0}}
        entry = _phase_delta(_phase_records(before, after))
        assert set(entry["functions"]) == {"keep", "gone"}
        gone = entry["functions"]["gone"]
        assert gone["after"] == {"instructions": 0, "moves": 0, "phis": 0}
        assert gone["delta"] == {"instructions": -10, "moves": -3,
                                 "phis": -2}
        assert entry["delta"]["instructions"] == -11
        assert entry["delta"]["moves"] == -3
        assert entry["delta"]["copies_removed"] == 3
        assert entry["delta"]["copies_inserted"] == 0

    def test_added_function_still_counted(self):
        from repro.pipeline import _phase_delta, _phase_records

        before = {}
        after = {"new": {"instructions": 5, "moves": 2, "phis": 1}}
        entry = _phase_delta(_phase_records(before, after))
        new = entry["functions"]["new"]
        assert new["before"] == {"instructions": 0, "moves": 0, "phis": 0}
        assert entry["delta"]["instructions"] == 5
