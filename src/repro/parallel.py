"""Parallel compilation engine: ``(job, function)`` units on one pool.

Every phase of every experiment processes functions independently (the
same per-function independence the paper's Tables 2-5 rely on), so any
set of compile *jobs* -- one experiment, every experiment of a table
-- splits into ``(job, function)`` units.  :func:`run_units` places
every unit with one deterministic greedy-LPT partition
(:func:`partition`), runs each shard through one
worker task (:func:`_compile_units`) on a :class:`WorkerPool`, and
returns each job's payloads -- or the exception the job raised -- in
shard order.  :func:`merge_job` folds one job's payloads back into an
:class:`~repro.pipeline.ExperimentResult`.  Both are called by
:func:`run_phases_parallel` alone: the pool half of
:func:`repro.pipeline.run_jobs`, the driver every batch of compiles
(one experiment, a table, a ``repro serve`` request) goes through.

The merge is the actual contract of this module: paper-metric output
must be **byte-identical at any job count**.  A worker payload is a
*part* -- the shape :func:`repro.pipeline.fold` assembles every result
from, whether serial, cache hit or worker -- so :func:`merge_job` only
adds what is parallel-specific:

* worker span/event records are grafted into the parent tracer in
  shard-index order with renumbered ``seq``/rebased timestamps, so a
  ``--trace`` of a parallel run is one coherent Chrome trace;
* the ``analysis_cache`` and ``cache`` blocks are summed per key;
* the fold then lists functions in the *input module's* order,
  re-sequences ``phase_stats`` and ``phases[]`` the same way (a merged
  phase's ``seq`` is its index) and adds each worker's counters to the
  parent tracer, and :func:`repro.pipeline.verified_run` replays
  ``verify=`` in the parent, against the input and the merged module,
  exactly as the serial run does.

``jobs`` semantics everywhere (``run_jobs``, ``run_experiment``,
``run_table``, ``run_table5``, the CLI ``--jobs`` and the benchmark
harness): ``None`` reads ``$REPRO_JOBS`` (default 1), ``0`` means all
cores, ``1`` is serial, ``N>1`` uses at most N workers.  ``pool=`` (a
:class:`WorkerPool`) reuses the caller's pool; with only ``jobs=N`` a
pool is opened for that one call.  Callers that loop (``repro tables``,
a fuzz sweep, ``repro serve``) hold one pool across their calls;
``repro serve`` and the fuzz sweep submit whole tasks to it
(:meth:`WorkerPool.submit`) instead of sharding through the engine.

:func:`run_units` returns ``None`` -- and ``run_jobs`` runs its serial
path -- when the worker count resolves to 1, when there is at most one
unit, when the platform lacks the ``fork`` start method, or when the
pool broke even after a respawn.  Worker *exceptions* are not
swallowed: each comes back as its job's outcome.
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
from .machine.st120 import ST120
from .machine.target import Target
from .metrics import count_instructions
from .observability import NULL_TRACER, Tracer
from .observability import resolve as resolve_tracer


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


def partition(units: Sequence[tuple[int, object]],
              workers: int) -> list[list[object]]:
    """Deterministic greedy-LPT partition of ``(weight, key)`` units
    into at most *workers* shards.

    Units are taken heaviest first (input order as tie-break) and each
    goes to the least loaded shard (lowest index on ties) -- load
    balance without any dependence on hashing or arrival order.  Empty
    shards are dropped.
    """
    ordered = sorted(range(len(units)), key=lambda i: (-units[i][0], i))
    shards: list[list[object]] = [[] for _ in range(max(1, workers))]
    loads = [0] * len(shards)
    for i in ordered:
        weight, key = units[i]
        target = min(range(len(shards)), key=lambda j: (loads[j], j))
        shards[target].append(key)
        loads[target] += weight
    return [shard for shard in shards if shard]


def shard_module(module: Module, names: Sequence[str]) -> Module:
    """A module holding just *names*' functions (externals stripped --
    they are arbitrary callables, never pickled to a pool worker;
    ``compile_parts`` copies, so sharing the Function objects is safe)."""
    shard = Module(module.name)
    for fn_name in names:
        shard.add_function(module.functions[fn_name])
    return shard


class Job(NamedTuple):
    """One compile the engine shards: *phases* applied to *module*."""

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


def _compile_units(spec) -> list:
    """The worker task: run each job's slice of this shard through the
    phase pipeline (:func:`repro.pipeline.compile_parts`, without the
    ``verified_run`` frame: the parent replays ``verify=`` and counts
    the paper metrics on the merged module).  Returns ``(job index,
    payload or exception)`` pairs; one job's failure never touches its
    shard-mates (or trips the pool's respawn logic).

    A payload is the worker's run folded into one part of
    :func:`repro.pipeline.fold` -- per-function ``before``/``after``
    records, no deltas: only the parent derives those -- plus the
    environment blocks :func:`merge_job` sums (the module's externals
    -- arbitrary callables -- and the live tracer object stay
    behind)."""
    from . import pipeline as _pipeline
    from .analysis.manager import AnalysisManager

    subjobs, target, traced, cache = spec
    out = []
    for j, shard, phases, options in subjobs:
        tracer = Tracer() if traced else NULL_TRACER
        manager = AnalysisManager()
        cache_mark = cache.stats() if cache is not None else None
        start = time.perf_counter_ns()
        try:
            parts = _pipeline.compile_parts(
                shard, phases, options or _pipeline.PhaseOptions(), target,
                tracer, manager, cache)
            merged, phase_stats, breakdown = \
                _pipeline.fold(shard, parts, tracer)
        except Exception as error:  # noqa: BLE001 -- per-job isolation
            # Unpickles as *error* with the worker's traceback as its
            # __cause__, exactly what a failed future would raise.
            out.append((j, _ExceptionWithTraceback(error,
                                                   error.__traceback__)))
            continue
        out.append((j, {
            "functions": merged.functions,
            "phase_stats": phase_stats,
            # A worker's span seqs mean nothing in the parent: a merged
            # phase's ``seq`` is its index.
            "phases": [{**entry, "seq": i}
                       for i, entry in enumerate(breakdown)],
            "counters": tracer.counters if traced else {},
            "analysis_cache": manager.stats(),
            "cache": cache.stats_since(cache_mark)
            if cache is not None else {},
            "tracer": _tracer_payload(tracer) if traced else None,
            "wall_ns": time.perf_counter_ns() - start,
        }))
    return out


def _tracer_payload(tracer: Tracer) -> dict:
    return {"spans": tracer.spans, "events": tracer.events,
            "epoch_ns": tracer.epoch_ns, "seq": tracer._seq}


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
    ``run_experiments`` via ``pool=``; a fuzz sweep also hands it
    single check tasks through :meth:`submit`.  Tasks carry their own state in a pickled
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
# The engine
# ----------------------------------------------------------------------
def run_units(batch: Sequence[Job], jobs: Optional[int] = None,
              pool: Optional[WorkerPool] = None,
              target: Target = ST120, traced: bool = False, cache=None):
    """Compile every ``(job, function)`` unit of *batch* on a pool.

    Units are LPT-placed by instruction count across
    ``min(workers, units)`` shards; each shard is one
    :func:`_compile_units` task holding, per job, a sub-module of that
    job's functions.  *traced* gives every worker run its own tracer
    for :func:`merge_job` to graft.

    Returns ``(workers, pool_ns, outcomes)`` -- the shard count, the
    submit-to-last-result wall time, and per job either its payloads
    in shard order (each tagged with its ``"shard"`` index) or the
    first exception it raised -- or ``None`` when the caller must run
    serially (see the module docstring).
    """
    configured = pool.workers if pool is not None else resolve_jobs(jobs)
    if configured <= 1 or not fork_available():
        return None
    units = [(count_instructions(fn), (j, fn.name))
             for j, job in enumerate(batch)
             for fn in job.module.iter_functions()]
    workers = min(configured, len(units))
    if workers <= 1:
        return None

    specs = []
    for shard in partition(units, workers):
        grouped: dict[int, list[str]] = {}
        for j, fn_name in shard:
            grouped.setdefault(j, []).append(fn_name)
        subjobs = [(j, shard_module(batch[j].module, names),
                    tuple(batch[j].phases), batch[j].options)
                   for j, names in sorted(grouped.items())]
        specs.append((subjobs, target, traced, cache))
    start = time.perf_counter_ns()
    if pool is not None:
        shards = pool.run(_compile_units, specs)
    else:
        with WorkerPool(len(specs)) as owned:
            shards = owned.run(_compile_units, specs)
    if shards is None:  # even the respawned pool broke: degrade
        return None
    pool_ns = time.perf_counter_ns() - start

    outcomes: list = [[] for _ in batch]
    for index, shard in enumerate(shards):
        for j, payload in shard:
            if isinstance(outcomes[j], Exception):
                continue  # the job already failed in an earlier shard
            if isinstance(payload, Exception):
                outcomes[j] = payload
            else:
                payload["shard"] = index
                outcomes[j].append(payload)
    return len(specs), pool_ns, outcomes


# ----------------------------------------------------------------------
# Deterministic merging
# ----------------------------------------------------------------------
def _graft_tracer(parent: Tracer, payload: Optional[dict],
                  root_seq: Optional[int], depth_offset: int) -> None:
    """Splice a worker tracer's records into *parent*.

    Sequence numbers are renumbered into a fresh block of the parent's
    counter (so seqs stay unique and worker blocks sit in shard-index
    order); timestamps are rebased from the worker's perf-counter epoch
    to the parent's (``CLOCK_MONOTONIC`` is system-wide under fork);
    worker top-level spans are re-parented under *root_seq*.
    """
    if payload is None:
        return
    base = parent._seq
    shift = payload["epoch_ns"] - parent.epoch_ns
    for span in payload["spans"]:
        span.seq += base
        span.parent = span.parent + base if span.parent is not None \
            else root_seq
        span.depth += depth_offset
        span.start_ns += shift
        span.wall_start = parent.epoch_wall + span.start_ns / 1e9
        parent.spans.append(span)
    for event in payload["events"]:
        event.seq += base
        event.ts_ns += shift
        event.span = event.span + base if event.span is not None \
            else root_seq
        parent.events.append(event)
    parent._seq = base + payload["seq"]


def _merge_cache_stats(payloads: Sequence[dict]) -> dict:
    """The workers' ``analysis_cache`` blocks summed key by key."""
    totals: dict[str, int] = {}
    for payload in payloads:
        for key, value in payload["analysis_cache"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _merge_store_stats(payloads: Sequence[dict]) -> dict:
    """Persistent-cache traffic summed across workers (the workers
    probed/stored a shared directory; hits+misses therefore add up to
    the function count at any job count)."""
    from .cache import CACHE_STATS_KEYS

    if not any(p.get("cache") for p in payloads):
        return {}
    return {key: sum(p["cache"].get(key, 0) for p in payloads)
            for key in CACHE_STATS_KEYS}


def merge_job(module: Module, name: str, payloads: Sequence[dict],
              verify=None, tracer=None, workers: int = 1,
              pool_ns: int = 0):
    """Fold one job's worker *payloads* into the
    :class:`~repro.pipeline.ExperimentResult` the serial
    ``run_phases(module, name, ...)`` would have returned.

    Worker tracers are grafted under this run's ``experiment:`` span
    and the environment blocks are summed; the payloads themselves are
    parts, assembled by the same :func:`repro.pipeline.fold` and
    checked by the same :func:`repro.pipeline.verified_run` frame
    (``verify=`` replays here, in the parent) as a serial run.
    *workers*/*pool_ns* come from :func:`run_units` and only feed the
    ``parallel`` block.
    """
    from . import pipeline as _pipeline

    tracer = resolve_tracer(tracer)
    with _pipeline.verified_run(module, name, verify, tracer) \
            as (result, root):
        merge_start = time.perf_counter_ns()
        if tracer.enabled:
            for payload in payloads:
                _graft_tracer(tracer, payload["tracer"], root.seq,
                              root.depth + 1)
        result.analysis_cache = _merge_cache_stats(payloads)
        result.cache = _merge_store_stats(payloads)
        result.module, result.phase_stats, result.phase_breakdown = \
            _pipeline.fold(module, payloads, tracer)
        result.parallel = {
            "mode": "functions",
            "jobs": workers,
            "workers": len(payloads),
            "pool_ns": pool_ns,
            "merge_ns": time.perf_counter_ns() - merge_start,
            "shards": [{"worker": p["shard"],
                        "functions": len(p["functions"]),
                        "wall_ns": p["wall_ns"]} for p in payloads],
        }
    return result


def run_phases_parallel(batch: Sequence[Job], verify, tracers, jobs,
                        pool, cache, target: Target) -> Optional[list]:
    """The pool half of :func:`repro.pipeline.run_jobs`: every job of
    *batch* as units on the engine, each merged by :func:`merge_job`
    under its own resolved tracer of *tracers*.  Returns, per job, its
    result or the exception it raised (in a worker or in the merge's
    ``verify:after``), or ``None`` when :func:`run_units` declines and
    the caller runs serially."""
    sharded = run_units(batch, jobs, pool, target,
                        traced=any(tracer.enabled for tracer in tracers),
                        cache=cache)
    if sharded is None:
        return None
    workers, pool_ns, outcomes = sharded
    results = []
    for job, tracer, outcome in zip(batch, tracers, outcomes):
        if not isinstance(outcome, Exception):
            try:
                outcome = merge_job(job.module, job.name, outcome, verify,
                                    tracer, workers=workers,
                                    pool_ns=pool_ns)
            except Exception as error:  # noqa: BLE001 -- per-job isolation
                outcome = error
        results.append(outcome)
    return results
