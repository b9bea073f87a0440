"""Parallel compilation engine: ``(job, function)`` units on one pool.

Every phase of every experiment processes functions independently (the
same per-function independence the paper's Tables 2-5 rely on), so any
set of compile *jobs* -- one experiment, every experiment of a table,
a batch of ``repro serve`` requests -- splits into ``(job, function)``
units.  :func:`run_units` places every unit with one deterministic
greedy-LPT partition (:func:`partition`), runs each shard through one
worker task (:func:`_compile_units`) on a :class:`WorkerPool`, and
returns each job's payloads -- or the exception the job raised -- in
shard order.  :func:`merge_job` folds one job's payloads back into an
:class:`~repro.pipeline.ExperimentResult`.

The merge layer is the actual contract of this module: paper-metric
output must be **byte-identical at any job count**.  That means nothing
may depend on worker arrival order --

* the merged module lists functions in the *input module's* order, not
  shard order;
* ``phase_stats`` and every ``phases[]`` breakdown entry re-sequence
  their per-function payloads by a stable ``(phase, function)`` order;
* tracer counters, event counts, ``analysis_cache`` totals and metric
  snapshots (counters and histogram buckets add, gauges take the max)
  are summed per key (summation is order-free);
* worker span/event records are grafted into the parent tracer in
  shard-index order with renumbered ``seq``/rebased timestamps, so a
  ``--trace`` of a parallel run is one coherent Chrome trace;
* semantic verification (``verify=``) replays in the parent, against
  the input and the merged module, exactly as the serial run does.

``jobs`` semantics everywhere (``run_experiment``, ``run_table``,
``run_table5``, the CLI ``--jobs`` and the benchmark harness):
``None`` reads ``$REPRO_JOBS`` (default 1), ``0`` means all cores,
``1`` is serial, ``N>1`` uses at most N workers.  ``pool=`` (a
:class:`WorkerPool`) reuses the caller's pool; with only ``jobs=N`` a
pool is opened for that one call.  Callers that loop (``repro tables``,
a fuzz sweep, ``repro serve``) hold one pool across their calls.

:func:`run_units` returns ``None`` -- and the caller runs its serial
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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import (BrokenProcessPool,
                                        _ExceptionWithTraceback)
from typing import NamedTuple, Optional, Sequence

from .ir.function import Module
from .machine.st120 import ST120
from .machine.target import Target
from .metrics import count_instructions
from .observability import Tracer
from .observability import resolve as resolve_tracer

#: The integer keys of the ``analysis_cache`` block, in the canonical
#: order :meth:`AnalysisManager.stats` emits them.
_CACHE_KEYS = ("hits", "misses", "invalidations", "preserved",
               "oracle_hits", "oracle_misses")


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
    ``run_phases`` copies, so sharing the Function objects is safe)."""
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
    phase pipeline.  Returns ``(job index, payload or exception)``
    pairs; one job's failure never touches its shard-mates (or trips
    the pool's respawn logic)."""
    from . import pipeline as _pipeline
    from .observability.metrics import MetricsRegistry

    subjobs, target, validate, traced, metriced, cache = spec
    out = []
    for j, shard, name, phases, options in subjobs:
        tracer = Tracer() if traced else None
        metrics = MetricsRegistry() if metriced else None
        start = time.perf_counter_ns()
        try:
            result = _pipeline.run_phases(shard, name, phases, options,
                                          target, None, validate, tracer,
                                          cache=cache, metrics=metrics)
        except Exception as error:  # noqa: BLE001 -- per-job isolation
            # Unpickles as *error* with the worker's traceback as its
            # __cause__, exactly what a failed future would raise.
            out.append((j, _ExceptionWithTraceback(error,
                                                   error.__traceback__)))
        else:
            out.append((j, _result_payload(
                result, time.perf_counter_ns() - start)))
    return out


def _result_payload(result, wall_ns: int) -> dict:
    """The picklable slice of an :class:`ExperimentResult` a worker
    sends back (the module's externals -- arbitrary callables -- and
    the live tracer object stay behind)."""
    tracer = result.tracer
    return {
        "functions": dict(result.module.functions),
        "phase_stats": result.phase_stats,
        "phase_breakdown": result.phase_breakdown,
        "analysis_cache": result.analysis_cache,
        "cache": result.cache,
        "metrics": result.metrics or None,
        "tracer": _tracer_payload(tracer) if tracer.enabled else None,
        "wall_ns": wall_ns,
    }


def _tracer_payload(tracer: Tracer) -> dict:
    return {"spans": tracer.spans, "events": tracer.events,
            "counters": tracer.counters, "epoch_ns": tracer.epoch_ns,
            "seq": tracer._seq}


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A create-once, reuse-forever fork pool -- the only place a
    ``ProcessPoolExecutor`` is built.

    Workers fork lazily on the first submission (or :meth:`warm`) and
    survive across calls, so the fork cost is paid once per pool.
    ``repro serve`` holds one for its whole lifetime; batch callers
    pass one to ``run_experiment``/``run_table``/``run_experiments``
    via ``pool=``.  Tasks carry their own state in a pickled spec.  A
    dead worker (``BrokenProcessPool``) is handled by discarding the
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
              target: Target = ST120, validate: bool = True,
              traced: bool = False, metriced: bool = False, cache=None):
    """Compile every ``(job, function)`` unit of *batch* on a pool.

    Units are LPT-placed by instruction count across
    ``min(workers, units)`` shards; each shard is one
    :func:`_compile_units` task holding, per job, a sub-module of that
    job's functions.  *traced*/*metriced* give every worker run its own
    tracer/registry for :func:`merge_job` to graft.

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
                    batch[j].name, tuple(batch[j].phases),
                    batch[j].options)
                   for j, names in sorted(grouped.items())]
        specs.append((subjobs, target, validate, traced, metriced, cache))
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
    for key, value in payload["counters"].items():
        parent.counters[key] = parent.counters.get(key, 0) + value
    parent._seq = base + payload["seq"]


def _merge_module(module: Module, payloads: Sequence[dict]) -> Module:
    """Transformed functions re-assembled in the input module's order."""
    transformed: dict = {}
    for payload in payloads:
        transformed.update(payload["functions"])
    merged = Module(module.name)
    for fn_name in module.functions:
        merged.add_function(transformed[fn_name])
    merged.externals = dict(module.externals)
    return merged


def _merge_phase_stats(payloads: Sequence[dict],
                       order: dict[str, int]) -> dict:
    """Per-phase pass statistics, function keys in module order."""
    merged: dict = {}
    for payload in payloads:
        for phase, stats in payload["phase_stats"].items():
            merged.setdefault(phase, {}).update(stats)
    return {phase: {name: stats[name]
                    for name in sorted(stats, key=order.__getitem__)}
            for phase, stats in merged.items()}


def _merge_phase_breakdown(payloads: Sequence[dict],
                           order: dict[str, int]) -> list:
    """The ``phases[]`` entries, re-sequenced by the stable
    ``(phase, function)`` order.  Non-timing content equals the serial
    entry exactly; ``seq``/``start_ns``/``duration_ns`` become the
    phase index, the earliest worker start and the slowest worker
    duration (the documented non-deterministic timing fields)."""
    breakdowns = [p["phase_breakdown"] for p in payloads]
    merged = []
    for i in range(max((len(b) for b in breakdowns), default=0)):
        entries = [b[i] for b in breakdowns if i < len(b)]
        functions: dict = {}
        for entry in entries:
            functions.update(entry["functions"])
        functions = {name: functions[name]
                     for name in sorted(functions, key=order.__getitem__)}
        totals = {key: sum(per_fn["delta"][key]
                           for per_fn in functions.values())
                  for key in ("instructions", "moves", "phis")}
        moves_delta = totals["moves"]
        merged.append({
            "phase": entries[0]["phase"],
            "seq": i,
            "start_ns": min(e["start_ns"] for e in entries),
            "duration_ns": max(e["duration_ns"] for e in entries),
            "delta": {**totals,
                      "copies_inserted": max(moves_delta, 0),
                      "copies_removed": max(-moves_delta, 0)},
            "functions": functions,
        })
    return merged


def _merge_cache_stats(payloads: Sequence[dict]) -> dict:
    return {key: sum(p["analysis_cache"].get(key, 0) for p in payloads)
            for key in _CACHE_KEYS}


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
              verify=None, tracer=None, metrics=None, workers: int = 1,
              pool_ns: int = 0):
    """Fold one job's worker *payloads* into the
    :class:`~repro.pipeline.ExperimentResult` the serial
    ``run_phases(module, name, ...)`` would have returned.

    Semantic verification (``verify=``) runs here, in the parent,
    against the input and the *merged* module, reproducing the serial
    interpreter work exactly.  Worker tracers are grafted under this
    run's ``experiment:`` span; worker metric snapshots merge
    element-wise into *metrics*.  *workers*/*pool_ns* come from
    :func:`run_units` and only feed the ``parallel`` block.
    """
    from . import pipeline as _pipeline
    from .observability.metrics import resolve_metrics

    tracer = resolve_tracer(tracer)
    metrics = resolve_metrics(metrics)
    result = _pipeline.ExperimentResult(name=name, module=module,
                                        tracer=tracer)
    references = {}
    with tracer.span(f"experiment:{name}", experiment=name) as root:
        if verify:
            with tracer.span("verify:before"):
                for fn_name, args in verify:
                    references[(fn_name, tuple(args))] = \
                        _pipeline.run_module(module, fn_name, args,
                                             tracer=tracer).observable()

        merge_start = time.perf_counter_ns()
        if tracer.enabled:
            for payload in payloads:
                _graft_tracer(tracer, payload["tracer"], root.seq,
                              root.depth + 1)
        order = {fn_name: i for i, fn_name in enumerate(module.functions)}
        work = _merge_module(module, payloads)
        result.module = work
        result.phase_stats = _merge_phase_stats(payloads, order)
        if tracer.enabled:
            result.phase_breakdown = _merge_phase_breakdown(payloads, order)
        result.analysis_cache = _merge_cache_stats(payloads)
        result.cache = _merge_store_stats(payloads)
        if metrics.enabled:
            for payload in payloads:  # shard-index order (commutative)
                metrics.merge(payload["metrics"] or {})
            # Each worker counted its slice as one pipeline invocation;
            # collapse to the single logical run the caller asked for so
            # counters stay identical at any job count.
            metrics.counter("pipeline.runs").inc(1 - len(payloads))
            result.metrics = metrics.snapshot()
        merge_ns = time.perf_counter_ns() - merge_start

        if references:
            with tracer.span("verify:after"):
                for key, reference in references.items():
                    fn_name, args = key
                    after = _pipeline.run_module(
                        work, fn_name, args, tracer=tracer).observable()
                    if after != reference:
                        raise AssertionError(
                            f"{name}: {fn_name}{tuple(args)} changed "
                            f"behaviour: {reference} -> {after}")

        result.moves = _pipeline.count_moves(work)
        result.weighted = _pipeline.weighted_moves(work)
        result.instructions = _pipeline.count_instructions(work)
        result.parallel = {
            "mode": "functions",
            "jobs": workers,
            "workers": len(payloads),
            "pool_ns": pool_ns,
            "merge_ns": merge_ns,
            "shards": [{"worker": p["shard"],
                        "functions": len(p["functions"]),
                        "wall_ns": p["wall_ns"]} for p in payloads],
        }
    return result


def run_phases_parallel(module: Module, name: str, phases,
                        options=None, target: Target = ST120,
                        verify=None, validate: bool = True,
                        tracer=None, jobs: Optional[int] = None,
                        cache=None, metrics=None, pool=None):
    """Parallel twin of :func:`repro.pipeline.run_phases`: one job on
    the engine, merged by :func:`merge_job`.  Falls back to the serial
    path whenever :func:`run_units` declines; a worker exception is
    re-raised exactly as the serial run would raise it."""
    from . import pipeline as _pipeline
    from .observability.metrics import resolve_metrics

    tracer = resolve_tracer(tracer)
    metrics = resolve_metrics(metrics)
    phases = tuple(phases)
    sharded = run_units([Job(module, name, phases, options)], jobs, pool,
                        target=target, validate=validate,
                        traced=tracer.enabled, metriced=metrics.enabled,
                        cache=cache)
    if sharded is None:
        return _pipeline.run_phases(module, name, phases, options, target,
                                    verify, validate, tracer, cache=cache,
                                    metrics=metrics)
    workers, pool_ns, (outcome,) = sharded
    if isinstance(outcome, Exception):
        raise outcome
    return merge_job(module, name, outcome, verify, tracer, metrics,
                     workers=workers, pool_ns=pool_ns)
