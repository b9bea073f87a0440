"""Parallel compilation: each module's plan runs whole on a pool worker.

The paper's Tables 2-5 are sums of independent per-module compiles, so
the unit of parallel work is a *plan*: the jobs of one batch that
compile the same module (:func:`repro.pipeline.plans`), in batch order,
sharing one :class:`~repro.pipeline.PrefixPlan` when uncached.
:func:`run_phases_parallel`, the pool half of
:func:`repro.pipeline.run_jobs` (the driver every batch of compiles
goes through), sends every plan as one task, :func:`_compile_plan`, to
a :class:`WorkerPool`, largest module (by instruction count) first.
The task runs :func:`repro.pipeline.run_plan` -- the code the caller
runs without a pool, ``verified_run`` frame included, so
``verify:before``/``verify:after`` replay where the plan runs -- and
pickles back each job's whole :class:`~repro.pipeline.ExperimentResult`
or the exception it raised.  Output is therefore **byte-identical at
any job count**; the parent only grafts each worker tracer's spans,
events and counters onto the caller's tracer (:func:`_graft_tracer`)
and returns the results in batch order.

``jobs`` semantics everywhere (``run_jobs``, ``run_experiment``,
``run_table``, ``run_table5``, the CLI ``--jobs`` and the benchmark
harness): ``None`` reads ``$REPRO_JOBS`` (default 1), ``0`` means all
cores, ``1`` is serial, ``N>1`` uses at most N workers.  ``pool=`` (a
:class:`WorkerPool`) reuses the caller's pool; with only ``jobs=N`` a
pool is opened for that one call.  ``repro serve`` and the fuzz sweep
hold one pool and submit whole tasks to it (:meth:`WorkerPool.submit`).

:func:`run_phases_parallel` returns ``None`` -- and ``run_jobs`` runs
the plans in the caller -- when the worker count resolves to 1, when
the platform lacks the ``fork`` start method, when a module carries
externals (arbitrary Python callables, which do not travel to a
worker), or when the pool broke even after a respawn.  Job exceptions
are not swallowed: each comes back as its job's outcome.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import (BrokenProcessPool,
                                        _ExceptionWithTraceback)
from typing import NamedTuple, Optional, Sequence

from .ir.function import Module
from .machine.target import Target
from .metrics import count_instructions
from .observability import NULL_TRACER, Tracer


# ----------------------------------------------------------------------
# Job resolution and platform capability
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``jobs=`` argument to a concrete worker count.

    ``None`` consults the ``REPRO_JOBS`` environment variable (default
    1, which is the serial path); ``0`` means one worker per CPU core;
    anything else is clamped to at least 1.
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def fork_available() -> bool:
    """Whether this platform can fork workers (:class:`WorkerPool` uses
    the ``fork`` start method, so ``spawn``-only platforms run
    serially)."""
    return "fork" in multiprocessing.get_all_start_methods()


class Job(NamedTuple):
    """One compile of a batch: *phases* applied to *module*."""

    module: Module
    name: str
    phases: tuple
    options: object = None


# ----------------------------------------------------------------------
# Worker side.  Forked once per pool; everything a task needs travels
# pickled in its spec, and only the picklable payload comes back.
# ----------------------------------------------------------------------
def _pool_ping(delay: float = 0.0) -> int:
    """Health-check task: returns the worker's pid."""
    if delay:
        time.sleep(delay)
    return os.getpid()


def _compile_plan(spec) -> tuple[list, list]:
    """The worker task: run one plan through
    :func:`repro.pipeline.run_plan` and return ``(outcomes, tracers)``
    -- per job its :class:`~repro.pipeline.ExperimentResult` (its
    ``tracer`` left for the parent to set) or the exception it raised,
    and one recording tracer per slot (*slots* maps each job to one, or
    ``None`` for the null tracer).  One job's failure never touches its
    plan-mates, or trips the pool's respawn logic."""
    from .pipeline import run_plan

    jobs, slots, recording, verify, cache, target = spec
    recorders = [Tracer() for _ in range(recording)]
    outcomes = run_plan(jobs, verify,
                        [NULL_TRACER if slot is None else recorders[slot]
                         for slot in slots], cache, target)
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            # Unpickles as the exception with the worker's traceback as
            # its __cause__, exactly what a failed future would raise.
            outcomes[i] = _ExceptionWithTraceback(outcome,
                                                  outcome.__traceback__)
        else:
            outcome.tracer = None
    return outcomes, recorders


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A create-once, reuse-forever fork pool -- the only place a
    ``ProcessPoolExecutor`` is built.

    Workers fork lazily on the first submission (or :meth:`warm`) and
    survive across calls, so the fork cost is paid once per pool.
    ``repro serve`` holds one for its whole lifetime and hands it one
    whole-request task per compile through :meth:`submit`; batch
    callers pass one to ``run_experiment``/``run_table``/
    ``run_experiments`` via ``pool=``, which runs one task per plan
    through :meth:`run`; a fuzz sweep also hands it single check tasks
    through :meth:`submit`.  Tasks carry their own state in a pickled
    spec.  A dead worker (``BrokenProcessPool``) is handled by discarding the
    executor, respawning a fresh one and retrying the submission once;
    compile tasks are pure, so the retry is safe.  :meth:`run` returns
    ``None`` only when the respawned pool breaks too.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.workers = resolve_jobs(jobs)
        self.respawns = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=context)
        return self._pool

    @property
    def alive(self) -> bool:
        """Whether an executor is currently up (it may still be broken
        -- :meth:`ping` actually exercises a worker)."""
        return self._pool is not None

    @property
    def pids(self) -> list[int]:
        """The live workers' pids, sorted (none before the first fork,
        nor once the executor has reaped workers after a break)."""
        processes = self._pool._processes if self._pool is not None \
            else None
        return sorted(pid for pid, process in dict(processes or {}).items()
                      if process.is_alive())

    def warm(self) -> list[int]:
        """Force every worker to spawn now (a brief sleep per task
        spreads them across distinct processes) and return their pids.
        Called at server startup so the fork happens before request
        threads exist."""
        delay = 0.05 if self.workers > 1 else 0.0
        pids = self.run(_pool_ping, [delay] * self.workers)
        return sorted(set(pids)) if pids else []

    def ping(self) -> bool:
        """Round-trip one trivial task (respawning if needed)."""
        return bool(self.run(_pool_ping, [0.0]))

    def run(self, task, specs) -> Optional[list]:
        """Map *task* over *specs*; results in submission order.

        On ``BrokenProcessPool`` (a worker died) the pool is respawned
        and the whole submission retried once; ``None`` means even the
        retry's pool broke.  Exceptions a task raises propagate
        unchanged.
        """
        specs = list(specs)
        for _ in range(2):
            pool = self._ensure()
            try:
                futures = [pool.submit(task, spec) for spec in specs]
                return [future.result() for future in futures]
            except (BrokenProcessPool, OSError):
                self.respawn()
        return None

    def submit(self, task, *args) -> Optional[Future]:
        """Start ``task(*args)`` on a worker and return its future.

        A pool that is already broken is respawned and the submission
        retried once, as in :meth:`run`; ``None`` means even the retry's
        pool broke.  A worker dying *after* submission surfaces as
        ``BrokenProcessPool`` from the future: the caller decides
        whether to :meth:`respawn` and where to rerun the task.
        """
        for _ in range(2):
            pool = self._ensure()
            try:
                return pool.submit(task, *args)
            except (BrokenProcessPool, OSError):
                self.respawn()
        return None

    def respawn(self) -> None:
        """Discard the (broken) executor; the next submission forks a
        fresh one."""
        pool, self._pool = self._pool, None
        self.respawns += 1
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the executor down, waiting for in-flight tasks."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (f"<WorkerPool workers={self.workers} {state} "
                f"respawns={self.respawns}>")


def shared_pool(jobs: Optional[int]):
    """The pool a looping caller holds across its engine calls: a
    :class:`WorkerPool` when ``jobs`` resolves to more than one worker
    on a fork-capable platform, else a null context yielding ``None``
    (the serial path)."""
    workers = resolve_jobs(jobs)
    if workers > 1 and fork_available():
        return WorkerPool(workers)
    return contextlib.nullcontext()


# ----------------------------------------------------------------------
# The pool half of run_jobs
# ----------------------------------------------------------------------
def _graft_tracer(parent: Tracer, worker: Tracer) -> tuple[int, int]:
    """Splice a worker tracer's records into *parent* and add its
    counters; returns the ``(seq, start_ns)`` offsets applied.

    Sequence numbers are renumbered into a fresh block of the parent's
    counter (so seqs stay unique); timestamps are rebased from the
    worker's perf-counter epoch to the parent's (``CLOCK_MONOTONIC`` is
    system-wide under fork); worker top-level spans are re-parented
    under the parent's open span, as a run in the caller would be.
    """
    base = parent._seq
    shift = worker.epoch_ns - parent.epoch_ns
    root = parent._stack[-1].seq if parent._stack else None
    for span in worker.spans:
        span.seq += base
        span.parent = span.parent + base if span.parent is not None \
            else root
        span.depth += len(parent._stack)
        span.start_ns += shift
        span.wall_start = parent.epoch_wall + span.start_ns / 1e9
        parent.spans.append(span)
    for event in worker.events:
        event.seq += base
        event.ts_ns += shift
        event.span = event.span + base if event.span is not None \
            else root
        parent.events.append(event)
    for counter, value in worker.counters.items():
        parent.counters[counter] = parent.counters.get(counter, 0) + value
    parent._seq = base + worker._seq
    return base, shift


def plan_spec(jobs: Sequence[Job], tracers: Sequence, verify, cache,
              target: Target) -> tuple[tuple, list]:
    """The :func:`_compile_plan` spec of one plan -- *jobs* on one
    module, each traced into its resolved tracer of *tracers* -- and
    the recording tracers its worker tracers stand for, one per
    distinct recording tracer, in slot order."""
    recording = list({id(tracer): tracer for tracer in tracers
                      if tracer.enabled}.values())
    slots = [recording.index(tracer) if tracer.enabled else None
             for tracer in tracers]
    return (list(jobs), slots, len(recording), verify, cache,
            target), recording


def run_phases_parallel(batch: Sequence[Job], verify, tracers, jobs,
                        pool, cache, target: Target) -> Optional[list]:
    """The pool half of :func:`repro.pipeline.run_jobs`: every plan of
    *batch* as one :func:`_compile_plan` task, largest module first,
    each job traced into its own resolved tracer of *tracers*.
    Returns, per job in batch order, its result or the exception it
    raised, or ``None`` when the caller must run the plans itself (see
    the module docstring)."""
    from .pipeline import plans

    configured = pool.workers if pool is not None else resolve_jobs(jobs)
    if configured <= 1 or not fork_available() or not batch \
            or any(job.module.externals for job in batch):
        return None
    groups = plans(batch)
    specs, owners = [], []
    for plan in groups:
        spec, recording = plan_spec([batch[j] for j in plan],
                                    [tracers[j] for j in plan],
                                    verify, cache, target)
        specs.append(spec)
        owners.append(recording)
    order = sorted(range(len(groups)), key=lambda p: -count_instructions(
        batch[groups[p][0]].module))
    start = time.perf_counter_ns()
    if pool is not None:
        done = pool.run(_compile_plan, [specs[p] for p in order])
    else:
        with WorkerPool(configured) as owned:
            done = owned.run(_compile_plan, [specs[p] for p in order])
    if done is None:  # even the respawned pool broke: degrade
        return None
    pool_ns = time.perf_counter_ns() - start

    returned = dict(zip(order, done))
    results: list = [None] * len(batch)
    for p, plan in enumerate(groups):
        merge_start = time.perf_counter_ns()
        outcomes, workers = returned[p]
        offsets = [_graft_tracer(owner, worker)
                   for owner, worker in zip(owners[p], workers)]
        block = {"jobs": len(groups), "workers": configured,
                 "pool_ns": pool_ns}
        for j, slot, outcome in zip(plan, specs[p][1], outcomes):
            results[j] = outcome
            if isinstance(outcome, Exception):
                continue
            outcome.tracer, outcome.parallel = tracers[j], block
            if slot is not None:
                base, shift = offsets[slot]
                outcome.phase_breakdown = [
                    {**entry, "seq": entry["seq"] + base,
                     "start_ns": entry["start_ns"] + shift}
                    for entry in outcome.phase_breakdown]
        block["merge_ns"] = time.perf_counter_ns() - merge_start
    return results
