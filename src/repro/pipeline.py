"""Experiment pipelines -- the pass compositions of the paper's Table 1.

Every experiment is a named sequence of phases applied to a *non-SSA*
input module:

========================  =====================================================
phase                      meaning
========================  =====================================================
``ssa``                    pruned SSA construction (always first)
``sreedhar``               Sreedhar et al. Method III conversion + pinningCSSA
``pinningSP``              re-pin stack-pointer webs (always on, section 5)
``pinningABI``             ABI/2-operand renaming constraints as pins
``pinningPhi``             the paper's coalescer (variants via options)
``out-of-pinned-ssa``      Leung & George-style reconstruction
``naiveABI``               late local ABI lowering (when pinningABI is off)
``coalescing``             Chaitin-style aggressive repeated coalescing (C)
========================  =====================================================

:data:`EXPERIMENTS` reproduces the exact bullet matrix of Table 1, keyed
by the labels used in Tables 2-4 (``Lφ+C``, ``Sφ+C``, ``LABI+C``, ...);
:func:`run_experiment` executes one of them on a module and returns the
transformed module plus the collected statistics.  The pipeline verifies
the IR between phases and can check semantic equivalence against the
reference interpreter (``verify=...``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .analysis.manager import AnalysisManager
from .interp import run_module
from .ir.function import Function, Module
from .ir.validate import validate_function
from .machine.constraints import pinning_abi, pinning_sp
from .machine.st120 import ST120
from .machine.target import Target
from .metrics import (count_instructions, count_moves, count_phis,
                      weighted_moves)
from .observability import NULL_TRACER, STATS_SCHEMA, jsonable
from .observability import resolve as resolve_tracer
from .observability.metrics import COUNT_BOUNDS, resolve_metrics
from .outofssa.chaitin import aggressive_coalesce
from .outofssa.leung_george import out_of_pinned_ssa
from .outofssa.naive_abi import naive_abi
from .outofssa.pinning_coalescer import coalesce_phis
from .outofssa.sreedhar import sreedhar_to_cssa
from .ssa.construction import construct_ssa
from .ssa.copyprop import optimize_ssa


def ensure_ssa(function: Function) -> None:
    """Bring *function* into SSA form.

    Sources already containing phi instructions (the paper's figure
    examples are written directly in SSA) are validated and get their
    critical edges split; everything else goes through pruned SSA
    construction.
    """
    from .ir.cfg import split_critical_edges

    if any(block.phis for block in function.iter_blocks()):
        split_critical_edges(function)
        validate_function(function, ssa=True)
    else:
        construct_ssa(function)


@dataclass
class PhaseOptions:
    """Knobs of the ``pinningPhi`` phase (paper Table 5 variants and the
    ablation benchmarks)."""

    mode: str = "base"  # "base" | "optimistic" | "pessimistic"
    depth_ordered: bool = False
    literal_weight_update: bool = False
    traversal: str = "inner-to-outer"
    weight_ordered: bool = True
    phys_affinity: bool = True


@dataclass
class ExperimentResult:
    name: str
    module: Module
    moves: int = 0
    weighted: int = 0
    instructions: int = 0
    phase_stats: dict = field(default_factory=dict)
    #: Per-phase timing + IR-delta entries (``repro.stats/v1`` shape);
    #: populated only when a recording tracer is installed.
    phase_breakdown: list = field(default_factory=list)
    #: The tracer the experiment ran under (NULL_TRACER by default).
    tracer: object = NULL_TRACER
    #: Shared-analysis cache behaviour over the whole run
    #: (hits/misses/invalidations/preserved, from
    #: :meth:`repro.analysis.manager.AnalysisManager.stats`).
    analysis_cache: dict = field(default_factory=dict)
    #: Parallel-execution breakdown (workers, shard sizes, per-worker
    #: wall time, merge time) when the run went through the parallel
    #: engine (:mod:`repro.parallel`); empty for serial runs.
    parallel: dict = field(default_factory=dict)
    #: Persistent-cache traffic of this run
    #: (hits/misses/stores/evictions/bytes/corrupt, from
    #: :meth:`repro.cache.CompilationCache.stats_since`); empty when no
    #: cache was configured.
    cache: dict = field(default_factory=dict)
    #: Metrics snapshot of this run
    #: (:meth:`repro.observability.metrics.MetricsRegistry.snapshot`:
    #: counters, gauges, latency histograms -- merged element-wise
    #: across workers in parallel runs); empty without a metrics
    #: registry.
    metrics: dict = field(default_factory=dict)

    def row(self) -> tuple:
        return (self.name, self.moves, self.weighted)

    def to_stats(self) -> dict:
        """This result as a ``repro.stats/v1`` document (see
        :mod:`repro.observability.schema` and docs/observability.md)."""
        tracer = self.tracer
        document = {
            "schema": STATS_SCHEMA,
            "experiment": self.name,
            "totals": {"moves": self.moves, "weighted": self.weighted,
                       "instructions": self.instructions},
            "phases": [dict(entry) for entry in self.phase_breakdown],
            "phase_stats": jsonable(self.phase_stats),
            "counters": dict(tracer.counters) if tracer.enabled else {},
            "events": len(tracer.events) if tracer.enabled else 0,
            "analysis_cache": dict(self.analysis_cache),
        }
        if self.parallel:
            document["parallel"] = jsonable(self.parallel)
        if self.cache:
            document["cache"] = dict(self.cache)
        if self.metrics:
            document["metrics"] = self.metrics
        if tracer.enabled:
            from .interp import resolve_tier

            counters = tracer.counters
            document["interp"] = {
                "tier": resolve_tier(),
                "code_cache": {
                    "hits": counters.get("interp.code_cache.hits", 0),
                    "misses": counters.get("interp.code_cache.misses", 0),
                    "compile_ns": counters.get("interp.compile_ns", 0),
                },
            }
        return document

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The stats document serialized to a JSON string."""
        return json.dumps(self.to_stats(), indent=indent, sort_keys=False)


#: The bullet matrix of paper Table 1: experiment -> active phases.
EXPERIMENTS: dict[str, tuple[str, ...]] = {
    # Table 2 (no ABI constraints)
    "Lphi+C": ("ssa", "copyprop", "pinningSP", "pinningPhi", "out-of-pinned-ssa",
               "coalescing"),
    "C": ("ssa", "copyprop", "pinningSP", "out-of-pinned-ssa", "coalescing"),
    "Sphi+C": ("ssa", "copyprop", "pinningSP", "sreedhar", "out-of-pinned-ssa",
               "coalescing"),
    # Table 3 (with renaming constraints)
    "Lphi,ABI+C": ("ssa", "copyprop", "pinningSP", "pinningABI", "pinningPhi",
                   "out-of-pinned-ssa", "coalescing"),
    "Sphi+LABI+C": ("ssa", "copyprop", "pinningSP", "pinningABI", "sreedhar",
                    "out-of-pinned-ssa", "coalescing"),
    "LABI+C": ("ssa", "copyprop", "pinningSP", "pinningABI", "out-of-pinned-ssa",
               "coalescing"),
    "naiveABI+C": ("ssa", "copyprop", "pinningSP", "out-of-pinned-ssa", "naiveABI",
                   "coalescing"),
    # Table 4 (no late coalescing: order-of-magnitude counts)
    "Lphi,ABI": ("ssa", "copyprop", "pinningSP", "pinningABI", "pinningPhi",
                 "out-of-pinned-ssa"),
    "Sphi": ("ssa", "copyprop", "pinningSP", "sreedhar", "out-of-pinned-ssa",
             "naiveABI"),
    "LABI": ("ssa", "copyprop", "pinningSP", "pinningABI", "out-of-pinned-ssa"),
}

#: What each phase declares it *preserves* of the shared analysis cache
#: even though it mutated the IR (consumed by
#: :meth:`repro.analysis.manager.AnalysisManager.invalidate` after the
#: phase ran).  Pin-only phases (``pinningSP``/``pinningABI``/
#: ``pinningPhi``) never bump the mutation epoch -- pins are resources,
#: not IR -- so their caches survive by epoch equality alone; declaring
#: ``"all"`` documents the contract and keeps them preserved even if a
#: future edit makes them touch the body.  Rewriting phases preserve
#: nothing: their own epoch bumps discard stale entries.  Dominator
#: trees and loop forests are keyed to the *CFG* epoch and therefore
#: survive every straight-line rewrite with no declaration needed.
PHASE_PRESERVES: dict[str, frozenset] = {
    "ssa": frozenset(),
    "copyprop": frozenset(),
    "pinningSP": frozenset({"all"}),
    "pinningABI": frozenset({"all"}),
    "sreedhar": frozenset(),
    "pinningPhi": frozenset({"all"}),
    "out-of-pinned-ssa": frozenset(),
    "naiveABI": frozenset(),
    "coalescing": frozenset(),
}

#: Paper table -> experiments, first column is the baseline the deltas
#: are computed against (the tables print "+N" relative to it).
TABLE_EXPERIMENTS: dict[str, tuple[str, ...]] = {
    "table2": ("Lphi+C", "C", "Sphi+C"),
    "table3": ("Lphi,ABI+C", "Sphi+LABI+C", "LABI+C", "naiveABI+C"),
    "table4": ("Lphi,ABI", "Sphi", "LABI"),
}


def run_experiment(module: Module, name: str,
                   options: Optional[PhaseOptions] = None,
                   target: Target = ST120,
                   verify: Optional[Sequence[tuple[str, Sequence[int]]]]
                   = None,
                   validate: bool = True,
                   tracer=None,
                   jobs: Optional[int] = None,
                   cache=None,
                   metrics=None,
                   pool=None) -> ExperimentResult:
    """Run experiment *name* on a fresh copy of *module*.

    ``verify`` is an optional list of ``(function_name, args)`` pairs;
    the observable trace of each is compared before and after the whole
    pipeline, making every experiment self-checking.  ``tracer`` (an
    :class:`repro.observability.Tracer`) records per-phase spans, IR
    deltas and decision counters; ``None`` installs the zero-overhead
    null tracer.  ``jobs`` shards the module's functions across a
    worker pool (see :mod:`repro.parallel`): ``None`` reads
    ``$REPRO_JOBS`` (default 1 = serial), ``0`` uses every core;
    results are merged deterministically, so output is identical at
    any job count.  ``cache`` enables the persistent compilation cache
    (:mod:`repro.cache`): a :class:`~repro.cache.CompilationCache`, a
    directory path, or ``None`` to consult ``$REPRO_CACHE`` (unset =
    no caching); output is identical cache-hot and cache-cold.
    ``metrics`` (a :class:`~repro.observability.MetricsRegistry`,
    ideally fresh per run) records latency histograms and traffic
    counters into ``result.metrics``; ``None`` installs the
    zero-overhead null registry.  Neither observability knob changes
    a single output byte.  ``pool`` (a
    :class:`~repro.parallel.WorkerPool`) reuses a persistent executor
    instead of forking per call -- same merge, same bytes, no per-call
    fork cost.
    """
    phases = EXPERIMENTS[name]
    from .cache import resolve_cache
    from .parallel import fork_available, resolve_jobs

    cache = resolve_cache(cache)
    configured = pool.workers if pool is not None else resolve_jobs(jobs)
    if configured > 1 and len(module.functions) > 1 and fork_available():
        from .parallel import run_phases_parallel

        return run_phases_parallel(module, name, phases, options, target,
                                   verify, validate, tracer, jobs=jobs,
                                   cache=cache, metrics=metrics,
                                   pool=pool)
    return run_phases(module, name, phases, options, target, verify,
                      validate, tracer, cache=cache, metrics=metrics)


def _snapshot(module: Module) -> dict[str, dict[str, int]]:
    """Per-function IR measures, diffed around every phase when a
    recording tracer is installed (never called on the null path)."""
    return {f.name: {"instructions": count_instructions(f),
                     "moves": count_moves(f),
                     "phis": count_phis(f)}
            for f in module.iter_functions()}


def _phase_entry(phase: str, span, before: dict, after: dict) -> dict:
    """One ``phases[]`` entry of the ``repro.stats/v1`` document."""
    functions = {}
    totals = {"instructions": 0, "moves": 0, "phis": 0}
    empty = {"instructions": 0, "moves": 0, "phis": 0}
    # Iterate the *union* of the two snapshots: a function present
    # before the phase but absent after it (removed by the pass) must
    # still contribute its (negative) delta, reported with an ``after``
    # of zeros -- iterating only ``after`` under-reports removals.
    for fname in {**before, **after}:
        b = before.get(fname, empty)
        a = after.get(fname, empty)
        delta = {key: a[key] - b[key] for key in totals}
        functions[fname] = {"before": dict(b), "after": dict(a),
                            "delta": delta}
        for key in totals:
            totals[key] += delta[key]
    moves_delta = totals["moves"]
    return {
        "phase": phase,
        "seq": span.seq,
        "start_ns": span.start_ns,
        "duration_ns": span.duration_ns,
        "delta": {**totals,
                  # Net split of the move delta: a phase both inserting
                  # and removing copies reports the net direction only.
                  "copies_inserted": max(moves_delta, 0),
                  "copies_removed": max(-moves_delta, 0)},
        "functions": functions,
    }


def _phase_runner(phase: str, options: PhaseOptions, target: Target,
                  tracer, manager: AnalysisManager):
    """The per-function callable implementing *phase* (returns that
    function's pass statistics; ``ssa`` returns ``None``)."""
    if phase == "ssa":
        return lambda f: ensure_ssa(f)
    if phase == "copyprop":
        return lambda f: optimize_ssa(f)
    if phase == "pinningSP":
        return lambda f: pinning_sp(f, target)
    if phase == "pinningABI":
        return lambda f: pinning_abi(f, target, analyses=manager)
    if phase == "sreedhar":
        return lambda f: sreedhar_to_cssa(f, tracer=tracer,
                                          analyses=manager)
    if phase == "pinningPhi":
        return lambda f: coalesce_phis(
            f, mode=options.mode,
            depth_ordered=options.depth_ordered,
            literal_weight_update=options.literal_weight_update,
            traversal=options.traversal,
            weight_ordered=options.weight_ordered,
            phys_affinity=options.phys_affinity,
            tracer=tracer, analyses=manager)
    if phase == "out-of-pinned-ssa":
        return lambda f: out_of_pinned_ssa(f, analyses=manager)
    if phase == "naiveABI":
        return lambda f: naive_abi(f, target)
    if phase == "coalescing":
        return lambda f: aggressive_coalesce(f, tracer=tracer,
                                             analyses=manager)
    raise ValueError(f"unknown phase {phase!r}")


_EMPTY_MEASURES = {"instructions": 0, "moves": 0, "phis": 0}


def _merge_cached(module: Module, work: Module, cached: dict,
                  result: ExperimentResult, tracer) -> Module:
    """Fold cache-hit payloads back into the run's outputs.

    Rebuilds the module in the *input module's* function order (the
    same determinism contract as the parallel merge), splices each
    payload's per-phase pass statistics and IR measures into
    ``phase_stats`` / ``phase_breakdown`` at their stable positions,
    and replays the stored decision counters onto the tracer.
    """
    merged = Module(module.name)
    for fn_name in module.functions:
        if fn_name in cached:
            merged.add_function(cached[fn_name]["function"])
        elif fn_name in work.functions:
            merged.add_function(work.functions[fn_name])
    merged.externals = dict(module.externals)

    order = {fn_name: i for i, fn_name in enumerate(module.functions)}
    for payload in cached.values():
        for phase in payload["phase_stats"]:
            result.phase_stats.setdefault(phase, {})
    result.phase_stats = {
        phase: dict(sorted(
            {**stats, **{fn_name: payload["phase_stats"][phase]
                         for fn_name, payload in cached.items()
                         if phase in payload["phase_stats"]}}.items(),
            key=lambda item: order[item[0]]))
        for phase, stats in result.phase_stats.items()}

    if tracer.enabled:
        for payload in cached.values():
            for counter, value in payload["counters"].items():
                tracer.counters[counter] = \
                    tracer.counters.get(counter, 0) + value
        for i, entry in enumerate(result.phase_breakdown):
            functions = dict(entry["functions"])
            for fn_name, payload in cached.items():
                measures = payload["breakdown"][i]
                b, a = measures["before"], measures["after"]
                functions[fn_name] = {
                    "before": dict(b), "after": dict(a),
                    "delta": {key: a[key] - b[key] for key in a}}
            entry["functions"] = dict(sorted(
                functions.items(), key=lambda item: order[item[0]]))
            totals = {key: sum(per_fn["delta"][key]
                               for per_fn in functions.values())
                      for key in _EMPTY_MEASURES}
            moves_delta = totals["moves"]
            entry["delta"] = {**totals,
                              "copies_inserted": max(moves_delta, 0),
                              "copies_removed": max(-moves_delta, 0)}
    return merged


def run_phases(module: Module, name: str, phases: Iterable[str],
               options: Optional[PhaseOptions] = None,
               target: Target = ST120,
               verify: Optional[Sequence[tuple[str, Sequence[int]]]] = None,
               validate: bool = True,
               tracer=None,
               cache=None,
               metrics=None,
               analyses: Optional[AnalysisManager] = None) \
        -> ExperimentResult:
    tracer = resolve_tracer(tracer)
    metrics = resolve_metrics(metrics)
    # Hoisted once: the hot loops below guard *every* timing call and
    # argument construction behind this bool, so the default (null
    # registry) path performs no perf-counter reads and no allocations
    # -- the same structural zero-overhead contract as the null tracer.
    measuring = metrics.enabled
    options = options or PhaseOptions()
    phases = tuple(phases)
    work = module.copy()
    result = ExperimentResult(name=name, module=work, tracer=tracer)
    references = {}
    # ``analyses`` lets a long-lived caller (the serve serial path) keep
    # one process-lifetime manager across runs; its ``analysis_cache``
    # block then reports this run's deltas, not lifetime totals.
    manager = analyses if analyses is not None else AnalysisManager(tracer)
    analysis_mark = manager.stats() if analyses is not None else None
    cache_mark = cache.stats() if cache is not None else None
    with tracer.span(f"experiment:{name}", experiment=name):
        if verify:
            with tracer.span("verify:before"):
                for fn_name, args in verify:
                    references[(fn_name, tuple(args))] = \
                        run_module(module, fn_name, args,
                                   tracer=tracer).observable()

        # Cache probe: hit functions leave the working module entirely
        # (their stored results are merged back after the phase loop);
        # only misses flow through the phases below.
        cached: dict[str, dict] = {}
        miss_keys: dict[str, str] = {}
        if cache is not None:
            with tracer.span("cache:probe",
                             functions=len(work.functions)):
                probe_timer = metrics.histogram("cache.probe_seconds") \
                    if measuring else None
                for function in list(work.iter_functions()):
                    key = cache.key(function, phases, options, target)
                    if measuring:
                        probe_start = time.perf_counter_ns()
                    payload = cache.probe(key)
                    if measuring:
                        probe_timer.observe(
                            (time.perf_counter_ns() - probe_start) / 1e9)
                    if payload is None:
                        miss_keys[function.name] = key
                    else:
                        cached[function.name] = payload
                        del work.functions[function.name]
                if measuring:
                    metrics.counter("cache.hits").inc(len(cached))
                    metrics.counter("cache.misses").inc(len(miss_keys))
        #: miss function -> per-phase IR measures and counter deltas,
        #: captured so the stored entry can replay them on later hits.
        records: dict[str, dict] = {
            fn_name: {"counters": {}, "breakdown": []}
            for fn_name in miss_keys}
        recording = bool(records)

        in_ssa = False
        #: function -> (epoch, cfg_epoch, in_ssa) at its last clean
        #: validation.  A phase that left both epochs alone (pin-only
        #: phases by contract, or a fixpoint pass that found nothing to
        #: do) cannot have changed what the validator looks at -- pins
        #: are resources, not IR -- so the check is skipped.
        validated: dict[Function, tuple[int, int, bool]] = {}
        #: function -> accumulated compile ns across all phases, fed
        #: into the ``compile.function_seconds`` histogram at the end.
        function_ns: dict[str, int] = {}
        for phase in phases:
            runner = _phase_runner(phase, options, target, tracer, manager)
            before = _snapshot(work) if tracer.enabled or recording \
                else None
            with tracer.span(f"phase:{phase}", phase=phase) as span:
                stats = None if phase == "ssa" else {}
                capture = tracer.enabled and recording
                # One observation per (phase, function): the histogram's
                # count is worker-independent, its sum is the phase's
                # self time.
                phase_timer = metrics.histogram("phase.seconds",
                                                phase=phase) \
                    if measuring else None
                for function in work.iter_functions():
                    base = dict(tracer.counters) if capture else None
                    if measuring:
                        fn_start = time.perf_counter_ns()
                    value = runner(function)
                    if measuring:
                        fn_ns = time.perf_counter_ns() - fn_start
                        function_ns[function.name] = \
                            function_ns.get(function.name, 0) + fn_ns
                        phase_timer.observe(fn_ns / 1e9)
                    if stats is not None:
                        stats[function.name] = value
                    if base is not None:
                        deltas = records[function.name]["counters"]
                        for counter, total in tracer.counters.items():
                            # Pass *decision* counters replay exactly on
                            # a later hit; ``analysis.*`` traffic belongs
                            # to whichever run actually executed (a warm
                            # run has its own) and is never replayed.
                            if counter.startswith("analysis."):
                                continue
                            delta = total - base.get(counter, 0)
                            if delta:
                                deltas[counter] = \
                                    deltas.get(counter, 0) + delta
            if phase == "ssa":
                in_ssa = True
            elif phase == "out-of-pinned-ssa":
                in_ssa = False
            after = _snapshot(work) if tracer.enabled or recording \
                else None
            if recording:
                for fn_name, record in records.items():
                    record["breakdown"].append(
                        {"phase": phase,
                         "before": before.get(fn_name, _EMPTY_MEASURES),
                         "after": after.get(fn_name, _EMPTY_MEASURES)})
            for function in work.iter_functions():
                manager.invalidate(function,
                                   preserves=PHASE_PRESERVES[phase])
            if stats is not None:
                result.phase_stats[phase] = stats
            if tracer.enabled:
                result.phase_breakdown.append(
                    _phase_entry(phase, span, before, after))
            if validate:
                with tracer.span(f"validate:{phase}"):
                    for function in work.iter_functions():
                        stamp = (function.epoch, function.cfg_epoch, in_ssa)
                        if validated.get(function) == stamp:
                            continue
                        validate_function(function, ssa=in_ssa,
                                          allow_phis=in_ssa)
                        validated[function] = stamp

        if cache is not None and miss_keys:
            with tracer.span("cache:store", functions=len(miss_keys)):
                store_timer = metrics.histogram("cache.store_seconds") \
                    if measuring else None
                for fn_name, key in miss_keys.items():
                    function = work.functions.get(fn_name)
                    if function is None:
                        continue  # removed by a pass: nothing to replay
                    if measuring:
                        store_start = time.perf_counter_ns()
                    cache.store(key, {
                        "function": function,
                        "phase_stats": {
                            phase: stats[fn_name]
                            for phase, stats in result.phase_stats.items()
                            if fn_name in stats},
                        "counters": records[fn_name]["counters"],
                        "breakdown": records[fn_name]["breakdown"],
                    })
                    if measuring:
                        store_timer.observe(
                            (time.perf_counter_ns() - store_start) / 1e9)
        if cached:
            work = _merge_cached(module, work, cached, result, tracer)
            result.module = work

        if references:
            with tracer.span("verify:after"):
                for key, reference in references.items():
                    fn_name, args = key
                    after = run_module(work, fn_name, args,
                                       tracer=tracer).observable()
                    if after != reference:
                        raise AssertionError(
                            f"{name}: {fn_name}{tuple(args)} changed "
                            f"behaviour: {reference} -> {after}")

        result.moves = count_moves(work)
        result.weighted = weighted_moves(work, analyses=manager)
        result.instructions = count_instructions(work)
        result.analysis_cache = manager.stats() if analysis_mark is None \
            else manager.stats_since(analysis_mark)
        if cache is not None:
            result.cache = cache.stats_since(cache_mark)
        if measuring:
            function_timer = metrics.histogram("compile.function_seconds")
            for fn_name in sorted(function_ns):
                function_timer.observe(function_ns[fn_name] / 1e9)
            metrics.counter("pipeline.runs").inc()
            metrics.counter("pipeline.functions").inc(
                len(module.functions))
            analysis = result.analysis_cache
            metrics.counter("analysis.hits").inc(analysis.get("hits", 0))
            metrics.counter("analysis.misses").inc(
                analysis.get("misses", 0))
            metrics.counter("oracle.hits").inc(
                analysis.get("oracle_hits", 0))
            metrics.counter("oracle.misses").inc(
                analysis.get("oracle_misses", 0))
            # The oracle's per-run query batch: how many interference
            # verdicts one pipeline run asked for (a size, not a
            # latency -- hence the count ladder).
            metrics.histogram("oracle.query_batch",
                              bounds=COUNT_BOUNDS).observe(
                float(analysis.get("oracle_hits", 0)
                      + analysis.get("oracle_misses", 0)))
            if result.cache:
                metrics.gauge("cache.store_bytes").set(
                    result.cache.get("bytes", 0))
            result.metrics = metrics.snapshot()
    return result


def _run_labelled(module: Module, specs, verify, validate, tracer,
                  jobs, cache=None, metrics=None,
                  pool=None) -> list[ExperimentResult]:
    """Run ``(label, experiment, options)`` *specs*, serially or -- when
    ``jobs``/``pool`` allow -- as one batch of ``(experiment, function)``
    units on the parallel engine (:mod:`repro.parallel`).

    ``tracer`` may be a tracer instance (shared across all runs) or a
    zero-argument factory such as the :class:`Tracer` class itself (one
    fresh tracer per run, which is what per-run stats documents want);
    ``metrics`` works the same way with
    :class:`~repro.observability.MetricsRegistry`.  ``pool`` reuses a
    persistent :class:`~repro.parallel.WorkerPool` across calls.
    """
    from .cache import resolve_cache
    from .parallel import Job, merge_job, run_units

    cache = resolve_cache(cache)
    tracers = [tracer() if callable(tracer) else tracer for _ in specs]
    registries = [metrics() if callable(metrics) else metrics
                  for _ in specs]
    sharded = run_units(
        [Job(module, name, EXPERIMENTS[name], options)
         for _, name, options in specs], jobs, pool,
        validate=validate,
        traced=any(resolve_tracer(t).enabled for t in tracers),
        metriced=any(resolve_metrics(m).enabled for m in registries),
        cache=cache)
    results = []
    for i, (label, name, options) in enumerate(specs):
        if sharded is None:
            result = run_experiment(module, name, options=options,
                                    verify=verify, validate=validate,
                                    tracer=tracers[i], jobs=1, cache=cache,
                                    metrics=registries[i])
        else:
            workers, pool_ns, outcomes = sharded
            if isinstance(outcomes[i], Exception):
                raise outcomes[i]
            result = merge_job(module, name, outcomes[i], verify,
                               tracers[i], registries[i],
                               workers=workers, pool_ns=pool_ns)
        result.name = label
        results.append(result)
    return results


def run_table(module: Module, table: str,
              verify: Optional[Sequence[tuple[str, Sequence[int]]]] = None,
              options: Optional[PhaseOptions] = None,
              validate: bool = True,
              tracer=None,
              jobs: Optional[int] = None,
              cache=None,
              metrics=None,
              pool=None) -> list[ExperimentResult]:
    """Run all experiments of one paper table on *module*.

    ``options``/``validate``/``tracer``/``cache``/``metrics`` are
    forwarded to every :func:`run_experiment`; ``tracer`` and
    ``metrics`` may be factories (e.g. the ``Tracer`` /
    ``MetricsRegistry`` classes) to give each run its own recorder.
    ``jobs > 1`` (or ``pool``) shards the ``(experiment, function)``
    units of the whole table across one worker pool.
    """
    specs = [(name, name, options) for name in TABLE_EXPERIMENTS[table]]
    return _run_labelled(module, specs, verify, validate, tracer, jobs,
                         cache=cache, metrics=metrics, pool=pool)


def run_experiments(module: Module,
                    names: Optional[Sequence[str]] = None,
                    verify: Optional[Sequence[tuple[str, Sequence[int]]]]
                    = None,
                    options: Optional[PhaseOptions] = None,
                    validate: bool = True,
                    tracer=None,
                    jobs: Optional[int] = None,
                    cache=None,
                    metrics=None,
                    pool=None) -> list[ExperimentResult]:
    """Run several experiments (default: the whole Table 1 matrix) on
    *module*, optionally sharding their ``(experiment, function)`` units
    across a worker pool (``pool`` reuses a persistent
    :class:`~repro.parallel.WorkerPool`)."""
    specs = [(name, name, options) for name in (names or EXPERIMENTS)]
    return _run_labelled(module, specs, verify, validate, tracer, jobs,
                         cache=cache, metrics=metrics, pool=pool)


def table5_variants() -> dict[str, PhaseOptions]:
    """The four Table 5 configurations of the coalescer."""
    return {
        "base": PhaseOptions(),
        "depth": PhaseOptions(depth_ordered=True),
        "opt": PhaseOptions(mode="optimistic"),
        "pess": PhaseOptions(mode="pessimistic"),
    }


def run_table5(module: Module,
               verify: Optional[Sequence[tuple[str, Sequence[int]]]] = None,
               validate: bool = True,
               tracer=None,
               jobs: Optional[int] = None,
               cache=None,
               metrics=None,
               pool=None) -> list[ExperimentResult]:
    """Table 5: weighted move counts of the coalescer variants, using
    the full constrained pipeline (``Lφ,ABI+C``)."""
    specs = [(label, "Lphi,ABI+C", options)
             for label, options in table5_variants().items()]
    return _run_labelled(module, specs, verify, validate, tracer, jobs,
                         cache=cache, metrics=metrics, pool=pool)
