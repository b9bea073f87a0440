"""The parallel compilation driver: plan dispatch, determinism,
fallbacks.

The contract under test is the acceptance bar of the parallel engine:
paper-metric output -- the module text and the stats document's whole
``result`` block -- must be **identical at any job count**, and so must
the ``analysis_cache`` traffic and event count in ``env``.  Timing and
the ``parallel`` block are ``env`` too and differ by design.  The unit
of pool work is a plan, the jobs of one batch on one module: each plan
runs whole on a worker and its results come back in batch order.
"""

import os
import signal
import time

import pytest

from repro.benchgen import load_suite
from repro.ir.printer import format_module
from repro.observability import Tracer, stats_digest, validate_stats
from repro.parallel import Job, WorkerPool, fork_available, resolve_jobs
from repro.pipeline import (EXPERIMENTS, TABLE_EXPERIMENTS, PhaseOptions,
                            plans, run_experiment, run_experiments,
                            run_jobs, run_table, run_table5)

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

    def test_plan_counts_paper_metrics_in_its_worker(
            self, kernels, monkeypatch):
        """A plan runs whole on its worker, ``verified_run`` frame
        included: moves, weighted moves and instructions are counted
        there, never in the parent."""
        import repro.pipeline as pipeline

        parent = os.getpid()
        counted = pipeline.weighted_moves

        def worker_only(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("the parent counted weighted moves")
            return counted(*args, **kwargs)

        serial = run_experiment(kernels.module, "Lphi,ABI+C",
                                tracer=Tracer(), jobs=1)
        # Patched before the per-call pool forks: workers inherit it.
        monkeypatch.setattr(pipeline, "weighted_moves", worker_only)
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
        records; ``to_stats`` derives the deltas, once, and the pooled
        ``result`` equals the serial one."""
        name = "Lphi,ABI+C"
        pooled = run_experiment(kernels.module, name, tracer=Tracer(),
                                jobs=2)
        assert pooled.parallel
        assert [e["phase"] for e in pooled.phase_breakdown] == \
            list(EXPERIMENTS[name])
        for entry in pooled.phase_breakdown:
            assert set(entry) == {"phase", "seq", "start_ns",
                                  "duration_ns", "functions"}
            assert list(entry["functions"]) == \
                list(kernels.module.functions)
            for record in entry["functions"].values():
                assert set(record) == {"before", "after"}
        serial = run_experiment(kernels.module, name, tracer=Tracer())
        assert pooled.to_stats()["result"] == serial.to_stats()["result"]


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


def pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestPlanDispatch:
    """One unit of pool work: a module's plan, run whole on a worker,
    largest module first, its results returned in batch order."""

    @pytest.fixture(scope="class")
    def modules(self, kernels):
        return [kernels.module, load_suite("example1-8").module,
                module_of(TWO_FUNCTIONS)]

    @pytest.fixture(scope="class")
    def batch(self, modules):
        """Three modules' jobs, interleaved so no plan is contiguous."""
        names = ("Lphi,ABI+C", "C", "LABI+C")
        return [Job(module, name, EXPERIMENTS[name])
                for name in names for module in modules]

    @staticmethod
    def own_runs(batch):
        """Each job of *batch* compiled alone, serially."""
        return [run_experiment(job.module, job.name, tracer=Tracer(),
                               jobs=1) for job in batch]

    def test_plans_group_jobs_by_module(self, batch, modules):
        grouped = plans(batch)
        assert sorted(j for plan in grouped for j in plan) == \
            list(range(len(batch)))
        assert [[batch[j].module for j in plan][0] for plan in grouped] \
            == modules
        for plan in grouped:
            assert plan == sorted(plan)
            assert all(batch[j].module is batch[plan[0]].module
                       for j in plan)

    def test_results_in_batch_order_match_own_runs(self, batch):
        results = run_jobs(batch, tracer=Tracer, jobs=2)
        for job, result, own in zip(batch, results, self.own_runs(batch)):
            assert result.name == job.name
            assert result.parallel["jobs"] == 3
            assert format_module(result.module) == \
                format_module(own.module)
            assert stats_digest(result.to_stats()) == \
                stats_digest(own.to_stats())

    def test_more_workers_than_plans(self, batch):
        results = run_jobs(batch, jobs=4)
        assert [r.parallel["jobs"] for r in results] == [3] * len(batch)
        assert [r.moves for r in results] == \
            [own.moves for own in self.own_runs(batch)]

    def test_failing_job_stays_in_its_slot(self, batch, modules):
        broken = Job(modules[1], "broken", ("ssa", "warp-drive"))
        with_failure = batch[:4] + [broken] + batch[4:]
        results = run_jobs(with_failure, jobs=2)
        bad = results.pop(4)
        assert isinstance(bad, ValueError)
        assert "unknown phase" in str(bad)
        assert [format_module(r.module) for r in results] == \
            [format_module(own.module) for own in self.own_runs(batch)]

    def test_killed_worker_respawns_once(self, batch):
        reference = run_jobs(batch, jobs=1)
        with WorkerPool(2) as pool:
            victim = pool.warm()[0]
            os.kill(victim, signal.SIGKILL)
            # Once the executor has reaped its workers it is broken, so
            # the batch's first submission must respawn it.
            deadline = time.monotonic() + 60
            while pid_exists(victim):
                assert time.monotonic() < deadline, "worker never reaped"
                time.sleep(0.005)
            results = run_jobs(batch, pool=pool)
            assert pool.respawns == 1
        assert [format_module(r.module) for r in results] == \
            [format_module(r.module) for r in reference]
        assert [stats_digest(r.to_stats()) for r in results] == \
            [stats_digest(r.to_stats()) for r in reference]

    def test_traced_batch_has_unique_seqs_and_one_root_per_job(
            self, batch):
        tracer = Tracer()
        with tracer.span("batch") as outer:
            run_jobs(batch, tracer=tracer, jobs=2)
        seqs = [span.seq for span in tracer.spans] + \
            [event.seq for event in tracer.events]
        assert len(seqs) == len(set(seqs))
        roots = [span for span in tracer.spans
                 if span.name.startswith("experiment:")]
        assert sorted(span.name for span in roots) == \
            sorted(f"experiment:{job.name}" for job in batch)
        assert all(span.parent == outer.seq and span.depth == 1
                   for span in roots)
        for result in run_jobs(batch, tracer=Tracer, jobs=2):
            assert [span.name for span in result.tracer.spans
                    if span.parent is None] == [f"experiment:{result.name}"]
            validate_stats(result.to_stats())

    def test_serial_batch_shares_prefixes_per_module(self, batch, modules):
        def phase_spans(tracer):
            return sum(span.name.startswith("phase:")
                       for span in tracer.spans)

        together = Tracer()
        run_jobs(batch, tracer=together, jobs=1)
        alone = 0
        for module in modules:
            tracer = Tracer()
            run_jobs([job for job in batch if job.module is module],
                     tracer=tracer, jobs=1)
            alone += phase_spans(tracer)
        unshared = sum(len(job.phases) for job in batch)
        assert phase_spans(together) == alone < unshared


class TestFallbacks:
    def test_module_with_externals_stays_serial(self):
        """Externals are arbitrary callables: their plan runs in the
        caller, where ``verify`` can still call them."""
        module = module_of(TWO_FUNCTIONS)
        module.add_external("ext", lambda x: x)
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
