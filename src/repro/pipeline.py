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
transformed module plus the collected statistics; :func:`run_jobs`, the
one driver every caller compiles through, runs any batch of them,
serially or on the worker pool.  The pipeline validates the IR after
every phase and can check semantic equivalence against the reference
interpreter (``verify=...``).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import astuple, dataclass, field
from typing import Iterable, Optional, Sequence

from .analysis.manager import AnalysisManager
from .interp import CODE_CACHE, resolve_tier, run_module
from .ir.function import Function, Module
from .ir.validate import validate_function
from .machine.constraints import pinning_abi, pinning_sp
from .machine.st120 import ST120
from .machine.target import Target
from .metrics import (count_instructions, count_moves, count_phis,
                      weighted_moves)
from .observability import NULL_TRACER, STATS_SCHEMA, jsonable
from .observability import resolve as resolve_tracer
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
    #: One entry per phase, built by :func:`fold` only under a
    #: recording tracer: ``phase``, its timing (``seq``/``start_ns``/
    #: ``duration_ns``) and ``functions``, each function's ``before``/
    #: ``after`` IR measures.  :meth:`to_stats` derives the deltas.
    phase_breakdown: list = field(default_factory=list)
    #: The tracer the experiment ran under (NULL_TRACER by default).
    tracer: object = NULL_TRACER
    #: Shared-analysis cache behaviour over the whole run
    #: (hits/misses/invalidations/preserved and the oracle's memo
    #: traffic, from :meth:`repro.analysis.manager.AnalysisManager.stats`).
    analysis_cache: dict = field(default_factory=dict)
    #: Pool breakdown (worker count, plans dispatched, pool wall time,
    #: merge time) when the run's plan ran on a pool worker
    #: (:mod:`repro.parallel`); empty for runs in the caller.
    parallel: dict = field(default_factory=dict)
    #: Persistent-cache traffic of this run
    #: (hits/misses/stores/evictions/bytes/corrupt, from
    #: :meth:`repro.cache.CompilationCache.stats_since`); empty when no
    #: cache was configured.
    cache: dict = field(default_factory=dict)
    #: The interpreter tier behind the verify passes and the compiled
    #: tier's code-cache traffic during the run (from
    #: :meth:`repro.interp.compiled.CodeCache.stats_since`).
    interp: dict = field(default_factory=dict)

    def row(self) -> tuple:
        return (self.name, self.moves, self.weighted)

    def to_stats(self) -> dict:
        """This result as a ``repro.stats/v2`` document (see
        :mod:`repro.observability.schema` and docs/observability.md):
        what the run produced in ``result``, how it ran in ``env``."""
        tracer = self.tracer
        env = {
            "analysis_cache": dict(self.analysis_cache),
            "events": len(tracer.events) if tracer.enabled else 0,
            "interp": jsonable(self.interp),
            "phases": [{"phase": entry["phase"], "seq": entry["seq"],
                        "start_ns": entry["start_ns"],
                        "duration_ns": entry["duration_ns"]}
                       for entry in self.phase_breakdown],
        }
        if self.parallel:
            env["parallel"] = jsonable(self.parallel)
        if self.cache:
            env["cache"] = dict(self.cache)
        return {
            "schema": STATS_SCHEMA,
            "experiment": self.name,
            "result": {
                "totals": {"moves": self.moves, "weighted": self.weighted,
                           "instructions": self.instructions},
                "phase_stats": jsonable(self.phase_stats),
                "counters": dict(tracer.counters) if tracer.enabled
                else {},
                "phases": [{"phase": entry["phase"],
                            **_phase_delta(entry["functions"])}
                           for entry in self.phase_breakdown],
            },
            "env": env,
        }

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
                   tracer=None,
                   jobs: Optional[int] = None,
                   cache=None,
                   pool=None,
                   prefix: Optional["PrefixPlan"] = None) \
        -> ExperimentResult:
    """Run experiment *name* on a fresh copy of *module*: a one-job
    :func:`run_jobs` (see there for the arguments) that raises the
    job's exception."""
    from .parallel import Job

    (result,) = run_jobs([Job(module, name, EXPERIMENTS[name], options)],
                         verify, tracer, jobs, pool, cache, target, prefix)
    if isinstance(result, Exception):
        raise result
    return result


def run_jobs(batch: Sequence, verify=None, tracer=None,
             jobs: Optional[int] = None, pool=None, cache=None,
             target: Target = ST120,
             prefix: Optional["PrefixPlan"] = None) -> list:
    """Compile every :class:`~repro.parallel.Job` of *batch* and return,
    per job and in batch order, its :class:`ExperimentResult` or the
    exception it raised; every job runs whatever the others do.

    ``verify`` is an optional list of ``(function_name, args)`` pairs;
    the observable trace of each is compared before and after the whole
    pipeline, making every job self-checking.  ``tracer`` (an
    :class:`repro.observability.Tracer`) records per-phase spans, IR
    deltas and decision counters; ``None`` installs the zero-overhead
    null tracer, and a zero-argument factory such as the ``Tracer``
    class gives each job its own recorder.  ``jobs`` runs the batch's
    plans on a worker pool (see :mod:`repro.parallel`): ``None`` reads
    ``$REPRO_JOBS`` (default 1 = serial), ``0`` uses every core; a plan
    runs the same code wherever it runs, so output is identical at any
    job count.  ``pool`` (a :class:`~repro.parallel.WorkerPool`) reuses
    a persistent executor instead of forking per call.  ``cache``
    enables the persistent compilation cache (:mod:`repro.cache`): a
    :class:`~repro.cache.CompilationCache`, a directory path, or
    ``None`` to consult ``$REPRO_CACHE`` (unset = no caching); output is
    identical cache-hot and cache-cold.  The tracer never changes a
    single output byte.

    The batch is grouped by module into *plans* (:func:`plans`), each
    run by :func:`run_plan`.  The pool half
    (:func:`repro.parallel.run_phases_parallel`) runs every plan whole
    on a worker; when it declines, or when the caller passes its own
    *prefix* (a :class:`PrefixPlan` for a one-module batch), the plans
    run here, in order.  IR validation runs after every phase.
    """
    from . import parallel
    from .cache import resolve_cache

    cache = resolve_cache(cache)
    tracers = [resolve_tracer(tracer() if callable(tracer) else tracer)
               for _ in batch]
    if prefix is None:
        pooled = parallel.run_phases_parallel(batch, verify, tracers,
                                              jobs, pool, cache, target)
        if pooled is not None:
            return pooled
    results: list = [None] * len(batch)
    for plan in plans(batch):
        outcomes = run_plan([batch[j] for j in plan], verify,
                            [tracers[j] for j in plan], cache, target,
                            prefix)
        for j, outcome in zip(plan, outcomes):
            results[j] = outcome
    return results


def plans(batch: Sequence) -> list[list[int]]:
    """*batch*'s job indices grouped by module (the same object), in
    order of each module's first job; each group is one plan."""
    groups: dict[int, list[int]] = {}
    for j, job in enumerate(batch):
        groups.setdefault(id(job.module), []).append(j)
    return list(groups.values())


def run_plan(jobs: Sequence, verify, tracers: Sequence, cache,
             target: Target, prefix: Optional["PrefixPlan"] = None) -> list:
    """Run one plan -- jobs on one module -- in order through
    :func:`run_phases`, each job's result or exception in its slot.
    Uncached, the jobs share one :class:`PrefixPlan`, which resumes a
    job from a phase prefix an earlier job already executed (same
    bytes, same ``result`` block): *prefix* when given, else a new one
    when the plan holds two or more jobs."""
    if cache is not None:
        prefix = None
    elif prefix is None and len(jobs) > 1:
        prefix = PrefixPlan([(job.phases, job.options) for job in jobs])
    results = []
    for job, tracer in zip(jobs, tracers):
        try:
            results.append(run_phases(job.module, job.name, job.phases,
                                      job.options, target, verify,
                                      tracer, cache, prefix))
        except Exception as error:  # noqa: BLE001 -- per-job isolation
            results.append(error)
    return results


def _snapshot(module: Module) -> dict[str, dict[str, int]]:
    """Per-function IR measures, diffed around every phase when a
    recording tracer is installed (never called on the null path)."""
    return {f.name: {"instructions": count_instructions(f),
                     "moves": count_moves(f),
                     "phis": count_phis(f)}
            for f in module.iter_functions()}


_ZERO_MEASURES = {"instructions": 0, "moves": 0, "phis": 0}


def _phase_records(before: dict, after: dict) -> dict:
    """A part's per-function ``{before, after}`` measures for one
    phase (:meth:`ExperimentResult.to_stats` derives the deltas)."""
    # The *union* of the two maps: a function present before the phase
    # but absent after it (removed by the pass) must still contribute
    # its (negative) delta, reported with an ``after`` of zeros.
    return {fname: {"before": before.get(fname, _ZERO_MEASURES),
                    "after": after.get(fname, _ZERO_MEASURES)}
            for fname in {**before, **after}}


def _phase_delta(records: dict) -> dict:
    """The ``delta`` and ``functions`` of one ``result.phases[]``
    entry, from each function's ``before``/``after`` measures."""
    functions = {}
    totals = dict(_ZERO_MEASURES)
    for fname, record in records.items():
        b, a = record["before"], record["after"]
        delta = {key: a[key] - b[key] for key in totals}
        functions[fname] = {"before": dict(b), "after": dict(a),
                            "delta": delta}
        for key in totals:
            totals[key] += delta[key]
    moves_delta = totals["moves"]
    return {
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


def fold(module: Module, parts: Sequence[dict],
         tracer) -> tuple[Module, dict, list]:
    """Assemble per-function results into one run's module,
    ``phase_stats`` and ``phases[]`` -- the single merge every path
    shares.

    A *part* is ``{"functions", "phase_stats", "phases", "counters"}``:
    transformed functions by name, ``{phase: {function: stats}}``, one
    ``phases[]`` entry per phase whose ``functions`` hold each
    function's ``before``/``after`` measures, and decision counters to
    replay onto *tracer*.  The serial loop's own output is the first
    part (its counters already live on the tracer); each cache hit is a
    one-function part after it.

    The module lists functions in *module*'s order and every
    per-function map is re-sequenced the same way.  ``phases[]`` is
    built only under a recording tracer; an entry's timing
    (``seq``/``start_ns``/``duration_ns``) is the loop's, the only part
    that carries any.
    """
    order = {fn_name: i for i, fn_name in enumerate(module.functions)}

    def ordered(by_function: dict) -> dict:
        return {fn_name: by_function[fn_name]
                for fn_name in sorted(by_function, key=order.__getitem__)}

    functions: dict = {}
    phase_stats: dict = {}
    for part in parts:
        functions.update(part["functions"])
        for phase, stats in part["phase_stats"].items():
            phase_stats.setdefault(phase, {}).update(stats)
    merged = Module(module.name)
    for fn_name in module.functions:
        if fn_name in functions:  # a pass may have removed it
            merged.add_function(functions[fn_name])
    merged.externals = dict(module.externals)

    breakdown = []
    if tracer.enabled:
        for part in parts:
            _replay(tracer, part["counters"])
        for i, timed in enumerate(parts[0]["phases"]):
            breakdown.append({
                "phase": timed["phase"],
                "seq": timed["seq"],
                "start_ns": timed["start_ns"],
                "duration_ns": timed["duration_ns"],
                "functions": ordered({fn_name: record for part in parts
                                      for fn_name, record
                                      in part["phases"][i]["functions"]
                                      .items()}),
            })
    return merged, {phase: ordered(stats)
                    for phase, stats in phase_stats.items()}, breakdown


def _replay(tracer, counters: dict) -> None:
    """Add recorded counter deltas onto *tracer* (a recording one)."""
    for counter, value in counters.items():
        tracer.counters[counter] = tracer.counters.get(counter, 0) + value


def _counters_since(tracer, base: Optional[dict]) -> dict:
    """*tracer*'s counter deltas since the snapshot *base* (``None``
    under the null tracer, which counts nothing)."""
    if base is None:
        return {}
    return {counter: value - base.get(counter, 0)
            for counter, value in tracer.counters.items()
            if value != base.get(counter, 0)}


def _verify_before(module: Module, verify, tracer) -> dict:
    """``(function, args) -> observable`` of every *verify* call on the
    input *module*: the references ``verify:after`` compares with."""
    references = {}
    with tracer.span("verify:before"):
        for fn_name, args in verify:
            references[(fn_name, tuple(args))] = \
                run_module(module, fn_name, args, tracer=tracer).observable()
    return references


@contextlib.contextmanager
def verified_run(module: Module, name: str, verify, tracer,
                 analyses: Optional[AnalysisManager] = None,
                 prefix: Optional["PrefixPlan"] = None):
    """The frame of every run, in the caller or on a pool worker.

    Opens the ``experiment:`` span, replays ``verify:before`` on the
    input *module* (or takes its references from *prefix*, see
    :class:`PrefixPlan`) and yields ``(result, span)``.  The caller sets
    ``result.module`` (through :func:`fold`); on exit the same calls
    are replayed on it (``verify:after``, raising on any changed
    behaviour), the paper metrics are counted and the interpreter's
    code-cache traffic over the run is recorded.
    """
    result = ExperimentResult(name=name, module=module, tracer=tracer)
    code_mark = CODE_CACHE.stats()
    references = {}
    with tracer.span(f"experiment:{name}", experiment=name) as root:
        if verify:
            references = prefix.references(module, verify, tracer) \
                if prefix is not None \
                else _verify_before(module, verify, tracer)
        yield result, root
        work = result.module
        if references:
            with tracer.span("verify:after"):
                for (fn_name, args), reference in references.items():
                    after = run_module(work, fn_name, args,
                                       tracer=tracer).observable()
                    if after != reference:
                        raise AssertionError(
                            f"{name}: {fn_name}{tuple(args)} changed "
                            f"behaviour: {reference} -> {after}")
        result.moves = count_moves(work)
        result.weighted = weighted_moves(work, analyses=analyses)
        result.instructions = count_instructions(work)
        result.interp = {"tier": resolve_tier(),
                         "code_cache": CODE_CACHE.stats_since(code_mark)}


def _part(module: Module) -> dict:
    """An empty part over *module*'s functions (see :func:`fold`)."""
    return {"functions": module.functions, "phase_stats": {}, "phases": [],
            "counters": {}}


def compile_parts(module: Module, phases: tuple, options: PhaseOptions,
                  target: Target, tracer,
                  manager: AnalysisManager, cache=None,
                  prefix: Optional["PrefixPlan"] = None) -> list[dict]:
    """The phase pipeline without its frame: run *phases* over a copy
    of *module* and return the run as :func:`fold` parts -- the loop's
    own part first, then one part per cache hit.

    With *cache*, each function is probed first: a hit leaves the
    working module (its entry is a one-function part) and every miss
    is stored after the loop.  With *prefix* (never together with a
    cache), the loop resumes from the plan's stored state for this
    run's longest shared prefix and stores a state at every node a
    later run resumes from.  :func:`run_phases` wraps this in its
    :func:`verified_run` frame.
    """
    start, in_ssa = 0, False
    if prefix is not None:
        work, local, start, in_ssa = prefix.resume(module, tracer)
    else:
        work = module.copy()
        local = _part(work)
    hits: list[dict] = []
    miss_keys: dict[str, str] = {}
    if cache is not None:
        with tracer.span("cache:probe", functions=len(work.functions)):
            for function in list(work.iter_functions()):
                key = cache.key(function, phases, options, target)
                payload = cache.probe(key)
                if payload is None:
                    miss_keys[function.name] = key
                else:
                    hits.append(payload)
                    del work.functions[function.name]
    #: Each miss's decision counter deltas, so its stored entry can
    #: replay them on a hit (the loop's own counters are already on the
    #: tracer).
    counters: dict[str, dict] = {fn_name: {} for fn_name in miss_keys}
    recording = bool(miss_keys)

    #: function -> (epoch, cfg_epoch, in_ssa) at its last clean
    #: validation.  A phase that left both epochs alone (pin-only
    #: phases by contract, or a fixpoint pass that found nothing to
    #: do) cannot have changed what the validator looks at -- pins
    #: are resources, not IR -- so the check is skipped.
    validated: dict[Function, tuple[int, int, bool]] = {}
    #: A phase's ``before`` measures are the previous phase's ``after``:
    #: nothing between two phases edits the IR.
    after = None
    for depth in range(start, len(phases)):
        phase = phases[depth]
        runner = _phase_runner(phase, options, target, tracer, manager)
        before = after
        if before is None and (tracer.enabled or recording):
            before = _snapshot(work)
        with tracer.span(f"phase:{phase}", phase=phase) as span:
            stats = None if phase == "ssa" else {}
            capture = tracer.enabled and recording
            for function in work.iter_functions():
                base = dict(tracer.counters) if capture else None
                value = runner(function)
                if stats is not None:
                    stats[function.name] = value
                if base is not None:
                    deltas = counters[function.name]
                    for counter, delta in \
                            _counters_since(tracer, base).items():
                        deltas[counter] = deltas.get(counter, 0) + delta
        if phase == "ssa":
            in_ssa = True
        elif phase == "out-of-pinned-ssa":
            in_ssa = False
        if before is not None:
            after = _snapshot(work)
            entry = {"phase": phase,
                     "functions": _phase_records(before, after)}
            if span is not None:  # null tracer: no timing to keep
                entry.update(seq=span.seq, start_ns=span.start_ns,
                             duration_ns=span.duration_ns)
            local["phases"].append(entry)
        for function in work.iter_functions():
            manager.invalidate(function, preserves=PHASE_PRESERVES[phase])
        if stats is not None:
            local["phase_stats"][phase] = stats
        with tracer.span(f"validate:{phase}"):
            for function in work.iter_functions():
                stamp = (function.epoch, function.cfg_epoch, in_ssa)
                if validated.get(function) == stamp:
                    continue
                validate_function(function, ssa=in_ssa, allow_phis=in_ssa)
                validated[function] = stamp
        if prefix is not None:
            prefix.passed(depth + 1, work, local, in_ssa, tracer)

    if miss_keys:
        with tracer.span("cache:store", functions=len(miss_keys)):
            for fn_name, key in miss_keys.items():
                function = work.functions.get(fn_name)
                if function is None:
                    continue  # removed by a pass: nothing to replay
                cache.store(key, {
                    "functions": {fn_name: function},
                    "phase_stats": {
                        phase: {fn_name: stats[fn_name]}
                        for phase, stats in local["phase_stats"].items()},
                    "phases": [
                        {"phase": entry["phase"], "functions": {
                            fn_name: entry["functions"][fn_name]}}
                        for entry in local["phases"]],
                    "counters": counters[fn_name],
                })
    return [local, *hits]


def run_phases(module: Module, name: str, phases: Iterable[str],
               options: Optional[PhaseOptions] = None,
               target: Target = ST120,
               verify: Optional[Sequence[tuple[str, Sequence[int]]]] = None,
               tracer=None,
               cache=None,
               prefix: Optional["PrefixPlan"] = None) \
        -> ExperimentResult:
    """Run *phases* on a copy of *module* inside the
    :func:`verified_run` frame (see :func:`run_jobs` for the
    arguments; *prefix* is a :class:`PrefixPlan`, which runs uncached
    only).  ``env.analysis_cache`` covers the phases, not the metric
    counting after them."""
    tracer = resolve_tracer(tracer)
    options = options or PhaseOptions()
    phases = tuple(phases)
    if prefix is not None:
        if cache is not None:
            raise ValueError("a prefix plan runs uncached: a cache hit "
                             "already skips every phase")
        prefix.begin(module, phases, options, verify, target, tracer)
    manager = AnalysisManager()
    cache_mark = cache.stats() if cache is not None else None
    with verified_run(module, name, verify, tracer, manager, prefix) \
            as (result, _):
        parts = compile_parts(module, phases, options, target, tracer,
                              manager, cache, prefix)
        result.module, result.phase_stats, result.phase_breakdown = \
            fold(module, parts, tracer)
        result.analysis_cache = manager.stats()
    if cache is not None:
        result.cache = cache.stats_since(cache_mark)
    return result


def _node_key(phases: tuple, options: PhaseOptions, depth: int) -> tuple:
    """The trie node of ``phases[:depth]``.  ``pinningPhi`` is the only
    phase that reads :class:`PhaseOptions`, so they are part of the key
    from it on."""
    head = phases[:depth]
    return (head, astuple(options)) if "pinningPhi" in head else (head,)


class PrefixPlan:
    """Run each phase prefix shared by a fixed sequence of runs once.

    Built from the runs' ordered ``(phases, options)`` before any of
    them starts; each run then passes the plan as ``prefix=`` to
    :func:`run_experiment` (or :func:`run_phases`), in that order.
    Prefixes form a trie keyed by their phase tuple (plus the options
    once ``pinningPhi`` is in it).  Each run *resumes* from its longest
    prefix shared with an earlier run: the first run to pass such a
    node stores a *state* there -- what a :func:`fold` part of the
    prefix holds (its module, ``phase_stats``, ``phases[]`` records and
    decision counters) plus ``in_ssa`` -- and each consumer continues
    from a copy of it, the last one from the stored object itself,
    after which the plan drops it.  A run whose node holds no state
    (the run that should have stored it failed first) resumes from a
    shallower node or from the raw module.  The ``verify:before``
    references, and their ``interp.*`` counters, are taken once, by
    the first run.

    A resumed run replays the prefix's counters and ``phases[]``
    entries as :func:`fold` replays a cache hit, so its ``result`` block
    equals an unshared run's; only ``env`` differs (the prefix's timing
    is the run that executed it; ``analysis_cache``, ``events`` and the
    code cache count only what this run did).  A plan is bound to one
    module, ``verify`` list, target and tracer mode, taken from its
    first run: a run with different ones, or out of order,
    raises :class:`ValueError`.  Runs are strictly sequential.
    """

    def __init__(self, runs: Iterable[tuple[Sequence[str],
                                            Optional[PhaseOptions]]]) \
            -> None:
        #: Per run: its phases, options (as a tuple), node keys by depth
        #: (index 0 is the raw module) and resume depth (0: the raw
        #: module).
        self._runs: list[tuple[tuple, tuple, list, int]] = []
        #: node key -> runs still to resume from it.
        self._consumers: dict[tuple, int] = {}
        seen: set = set()
        for phases, options in runs:
            phases, options = tuple(phases), options or PhaseOptions()
            keys = [_node_key(phases, options, depth)
                    for depth in range(len(phases) + 1)]
            depth = len(phases)
            while depth and keys[depth] not in seen:
                depth -= 1
            if depth:
                self._consumers[keys[depth]] = \
                    self._consumers.get(keys[depth], 0) + 1
            seen.update(keys)
            self._runs.append((phases, astuple(options), keys, depth))
        #: node key -> the state stored there, until its last consumer.
        self.states: dict[tuple, dict] = {}
        self._module: Optional[Module] = None
        self._binding: Optional[tuple] = None
        self._references: Optional[dict] = None
        self._reference_counters: dict = {}
        self._next = 0
        #: The current run's entry of ``_runs`` and its counters at
        #: resume.
        self._run: tuple = ()
        self._base: Optional[dict] = None

    def begin(self, module: Module, phases: tuple, options: PhaseOptions,
              verify, target: Target, tracer) -> None:
        """Check that this run is the plan's next one, on its binding."""
        binding = (tuple((fn_name, tuple(args))
                         for fn_name, args in verify or ()),
                   target, tracer.enabled)
        if self._binding is None:
            self._module, self._binding = module, binding
        elif module is not self._module or binding != self._binding:
            raise ValueError("a prefix plan is bound to one module, "
                             "verify list, target and tracer mode")
        if self._next == len(self._runs):
            raise ValueError(f"the prefix plan has only {self._next} runs")
        run = self._runs[self._next]
        if (phases, astuple(options)) != run[:2]:
            raise ValueError(f"run {self._next} of the prefix plan is "
                             f"{run[0]}, not {phases}")
        self._next += 1
        self._run = run

    def references(self, module: Module, verify, tracer) -> dict:
        """The ``verify:before`` references: taken by the first run,
        replayed (with their counters) by every later one."""
        if self._references is None:
            base = dict(tracer.counters) if tracer.enabled else None
            self._references = _verify_before(module, verify, tracer)
            self._reference_counters = _counters_since(tracer, base)
        elif tracer.enabled:
            _replay(tracer, self._reference_counters)
        return self._references

    def resume(self, module: Module, tracer) -> tuple:
        """``(work, part, depth, in_ssa)`` this run continues from: its
        deepest prefix with a stored state, or a copy of *module*."""
        _, _, keys, depth = self._run
        if depth:
            self._consumers[keys[depth]] -= 1
        self._base = dict(tracer.counters) if tracer.enabled else None
        for depth in range(depth, 0, -1):
            state = self.states.get(keys[depth])
            if state is None:
                continue
            if self._consumers[keys[depth]]:
                work = state["module"].copy()
            else:  # the last consumer takes the stored object
                del self.states[keys[depth]]
                work = state["module"]
            if tracer.enabled:
                _replay(tracer, state["counters"])
            # The loop adds phases to both containers, never edits one.
            part = {**_part(work),
                    "phase_stats": dict(state["phase_stats"]),
                    "phases": list(state["phases"])}
            return work, part, depth, state["in_ssa"]
        work = module.copy()
        return work, _part(work), 0, False

    def passed(self, depth: int, work: Module, part: dict, in_ssa: bool,
               tracer) -> None:
        """Store a copy of the run at *depth* if a later run resumes
        there."""
        key = self._run[2][depth]
        if self._consumers.get(key):
            self.states[key] = {
                "module": work.copy(),
                "phase_stats": dict(part["phase_stats"]),
                "phases": list(part["phases"]),
                "counters": _counters_since(tracer, self._base),
                "in_ssa": in_ssa,
            }


def _run_labelled(module: Module, specs, verify, tracer, jobs,
                  cache=None, pool=None) -> list[ExperimentResult]:
    """Run ``(label, experiment, options)`` *specs* on *module* as one
    :func:`run_jobs` batch, each result named by its label; raises the
    first exception in spec order.  ``tracer`` may be a factory (see
    :func:`run_jobs`)."""
    from .parallel import Job

    results = run_jobs([Job(module, name, EXPERIMENTS[name], options)
                        for _, name, options in specs],
                       verify, tracer, jobs, pool, cache)
    for (label, _, _), result in zip(specs, results):
        if isinstance(result, Exception):
            raise result
        result.name = label
    return results


def run_table(module: Module, table: str,
              verify: Optional[Sequence[tuple[str, Sequence[int]]]] = None,
              options: Optional[PhaseOptions] = None,
              tracer=None,
              jobs: Optional[int] = None,
              cache=None,
              pool=None) -> list[ExperimentResult]:
    """Run all experiments of one paper table on *module*.

    ``options``/``tracer``/``cache`` apply to every run; ``tracer`` may
    be a factory (e.g. the ``Tracer`` class) to give each run its own
    recorder.  The table is one plan: ``jobs > 1`` (or ``pool``) runs
    it whole on a pool worker.
    """
    specs = [(name, name, options) for name in TABLE_EXPERIMENTS[table]]
    return _run_labelled(module, specs, verify, tracer, jobs,
                         cache=cache, pool=pool)


def run_experiments(module: Module,
                    names: Optional[Sequence[str]] = None,
                    verify: Optional[Sequence[tuple[str, Sequence[int]]]]
                    = None,
                    options: Optional[PhaseOptions] = None,
                    tracer=None,
                    jobs: Optional[int] = None,
                    cache=None,
                    pool=None) -> list[ExperimentResult]:
    """Run several experiments (default: the whole Table 1 matrix) on
    *module*: one plan, run whole on a pool worker with ``jobs > 1``
    (``pool`` reuses a persistent :class:`~repro.parallel.WorkerPool`)."""
    specs = [(name, name, options) for name in (names or EXPERIMENTS)]
    return _run_labelled(module, specs, verify, tracer, jobs,
                         cache=cache, pool=pool)


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
               tracer=None,
               jobs: Optional[int] = None,
               cache=None,
               pool=None) -> list[ExperimentResult]:
    """Table 5: weighted move counts of the coalescer variants, using
    the full constrained pipeline (``Lφ,ABI+C``)."""
    specs = [(label, "Lphi,ABI+C", options)
             for label, options in table5_variants().items()]
    return _run_labelled(module, specs, verify, tracer, jobs,
                         cache=cache, pool=pool)
