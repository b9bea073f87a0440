"""Differential failure predicates over one LAI program.

Every check answers the same question -- "does the pipeline preserve
this program?" -- from a different angle:

``roundtrip``
    print -> parse -> print is a fixpoint of the LAI text format.
``interp``
    the compiled interpreter tier and the reference tree-walker agree
    on every verify run -- identical ``(results, stores, calls)``
    observables and step counts (:mod:`repro.interp` lockstep mode).
``compositions``
    every Table 2-4 experiment runs to completion, produces phi-free
    validated IR, and the reference interpreter observes the same
    ``(results, stores, calls)`` trace before and after.
``variants``
    the four Table 5 coalescer configurations do too.
``invariants``
    move counts respect the paper's dominance relations (the pinning
    coalescer never loses to running the same pipeline without it).
``oracle``
    the O(1) dominance interference oracle agrees pair-by-pair with
    interference materialized from per-point liveness (the
    ``tests/test_dominterf_cross_check.py`` reference, inlined here so
    the fuzzer can run it on arbitrary generated programs), and its
    kill and strong-interference answers agree with
    :class:`KillReference`, bulk masks built from dominance and
    liveness alone.
``parallel``
    the anchor composition, compiled as a one-job plan on a pool worker
    and pickled back whole, is byte-identical to the serial run.
``cache``
    cache-cold and cache-warm outputs are byte-identical to the
    uncached run, and the warm run hits for every function.

``oracle``, ``parallel`` and ``cache`` never read the compositions'
outputs: given a pool, :func:`check_module` submits all three as soon
as the reference run passes and collects them once, after the
compositions and variants.

A failing check yields a :class:`Divergence` instead of raising, so one
fuzzing sweep reports everything it finds; :meth:`Divergence.key`
identifies the failure family for the minimizer's predicate.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Optional, Sequence

from ..analysis import AnalysisManager, DominatorTree, Liveness
from ..benchgen.synthetic import (FUZZ_PROFILES, SyntheticConfig,
                                  generate_module_source, profile_config,
                                  verify_runs)
from ..interp import InterpreterError, TierDivergence, run_module
from ..ir.printer import format_module
from ..ir.types import Var
from ..lai import parse_module
from ..machine.st120 import ST120
from ..observability import NULL_TRACER
from ..pipeline import (EXPERIMENTS, PhaseOptions, PrefixPlan, ensure_ssa,
                        run_experiment, table5_variants)

#: Check names in execution order.
ALL_CHECKS: tuple[str, ...] = ("roundtrip", "interp", "compositions",
                               "variants", "invariants", "oracle",
                               "parallel", "cache")

#: Per-program move-count invariants asserted by the ``invariants``
#: check, as ``(lhs, rhs)`` pairs meaning ``moves[lhs] <= moves[rhs]``.
#: Only provable relations belong here: ``Lphi,ABI <= LABI`` holds
#: because the pinning coalescer merges phi webs under Condition 2 and
#: never inserts a copy the plain constrained pipeline would not --
#: the remaining phases are identical.
DEFAULT_INVARIANTS: tuple[tuple[str, str], ...] = (
    ("Lphi,ABI", "LABI"),
)

#: The paper's *empirical* Table 2/3 claims, checked in aggregate over
#: a whole :func:`run_fuzz` sweep instead of per program: greedy
#: Chaitin coalescing occasionally wins a move or two for the naive
#: pipeline on one tiny function (observed at roughly 1-2% of seeds),
#: but across any real sample the early-constraint pipelines must come
#: out ahead, exactly as Tables 2-3 report.
AGGREGATE_INVARIANTS: tuple[tuple[str, str], ...] = (
    ("Lphi,ABI+C", "naiveABI+C"),
    ("Lphi+C", "C"),
)

#: Aggregate pairs asserted only on *reducible* control flow.  The
#: fuzzer's irreducible profile falsified ``sum(Lphi+C) <= sum(C)``
#: (2804 vs 2796 moves over 75 programs): Algorithm 1 pins phi webs
#: inner-to-outer along the natural-loop forest, and on irreducible
#: graphs -- which the paper's compiled-C suites never contain --
#: that ordering degrades enough for plain Chaitin to edge ahead.
#: The headline ``Lphi,ABI+C <= naiveABI+C`` relation held even
#: there, so only this pair is scoped.
REDUCIBLE_ONLY_AGGREGATES: frozenset = frozenset({("Lphi+C", "C")})

#: Composition whose output module anchors the parallel / cache
#: byte-identity checks (the paper's full constrained pipeline).
ANCHOR_COMPOSITION = "Lphi,ABI+C"


@dataclass(frozen=True)
class Divergence:
    """One failed predicate on one program."""

    check: str         #: predicate family (one of :data:`ALL_CHECKS`)
    composition: str   #: experiment label (or ``""`` when not tied to one)
    kind: str          #: exception class name, or a mismatch tag
    detail: str        #: one-line human-oriented description
    seed: int = -1     #: generator seed (``-1`` for explicit sources)
    profile: str = ""  #: generator profile name

    def key(self) -> tuple[str, str, str]:
        """The failure family: same key == same bug for the minimizer's
        "does it still reproduce?" predicate."""
        return (self.check, self.composition, self.kind)

    def describe(self) -> str:
        where = f"[{self.composition}] " if self.composition else ""
        return f"{self.check}: {where}{self.kind}: {self.detail}"


@dataclass
class SeedResult:
    """Everything one program's differential run produced."""

    seed: int
    profile: str
    source: str
    verify: list
    divergences: list = field(default_factory=list)
    #: composition label -> move count of its output module.
    moves: dict = field(default_factory=dict)
    functions: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class FuzzReport:
    """Aggregate of one :func:`run_fuzz` sweep."""

    seeds: int = 0
    programs: int = 0
    functions: int = 0
    checks: tuple = ALL_CHECKS
    failures: list = field(default_factory=list)  #: failing SeedResults
    #: composition label -> summed move count over every clean program,
    #: the sample behind :attr:`aggregate_violations`.
    move_totals: dict = field(default_factory=dict)
    #: Sweep-level :data:`AGGREGATE_INVARIANTS` violations, as
    #: :class:`Divergence` records with ``check="invariants"`` and
    #: ``kind="aggregate"``.
    aggregate_violations: list = field(default_factory=list)
    elapsed: float = 0.0
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.aggregate_violations

    def summary(self) -> str:
        problems = len(self.failures) + len(self.aggregate_violations)
        status = "OK" if self.ok else f"{problems} FAILING"
        note = " (time box hit)" if self.timed_out else ""
        return (f"{self.programs} programs / {self.functions} functions "
                f"/ {self.seeds} seeds: {status}{note} "
                f"in {self.elapsed:.1f}s")


def _observables(module, verify):
    return {(fn_name, tuple(args)):
            run_module(module, fn_name, args).observable()
            for fn_name, args in verify}


# ----------------------------------------------------------------------
# Oracle cross-check (the test_dominterf_cross_check reference, compact)
# ----------------------------------------------------------------------
def _ssa_vars(function) -> list:
    seen = {}
    for block in function.iter_blocks():
        for instr in block.phis + block.body:
            for op in instr.defs:
                if isinstance(op.value, Var):
                    seen[op.value] = None
    return sorted(seen, key=str)


def _materialized_masks(function, variables):
    """Reference adjacency from per-point liveness alone -- no
    dominance, no kill rules (dead defs still clobber their point).
    Returns it with the :class:`Liveness` it read."""
    liveness = Liveness(function)
    index = liveness.index
    for v in variables:
        index.ensure(v)
    neighbors: dict = {}
    for label, block in function.blocks.items():
        phi_defs = [op.value for phi in block.phis for op in phi.defs
                    if isinstance(op.value, Var)]
        points = [(-1, phi_defs)]
        points += [(pos, [op.value for op in instr.defs
                          if isinstance(op.value, Var)])
                   for pos, instr in enumerate(block.body)]
        for position, defined in points:
            mask = liveness.live_after_mask(label, position)
            for v in defined:
                mask |= 1 << index.ensure(v)
            for v in index.values_of(mask):
                if isinstance(v, Var):
                    neighbors[v] = neighbors.get(v, 0) | mask
    return neighbors, liveness


class KillReference:
    """The paper's §3.2 kill and strong-interference classes in bulk,
    from def sites, a :class:`DominatorTree` and a :class:`Liveness`
    alone: the reference :func:`oracle_cross_check` holds
    :class:`~repro.analysis.KillRules` to.

    Under SSA a value can only be killed by a writer whose definition it
    dominates, so one walk down the dominator tree gives every writer
    its *dominated-by* mask: the defs of the strictly dominating blocks
    plus the earlier defs of its own block (the phis of a block, and
    the results of one instruction, do not dominate each other).
    :meth:`kill_masks` keeps the part of it that meets the mode's
    liveness condition (Case 1) and adds, for a phi writer, each
    incoming edge's kill set minus that edge's argument (Case 2).
    :meth:`strong_masks` gives Cases 3 and 4 straight from the def
    sites.
    """

    def __init__(self, function, liveness: Liveness) -> None:
        self.liveness = liveness
        index = liveness.index
        #: Var -> (block, position, instruction); position -1 = phi.
        self.sites: dict = {}
        pending = []  # (writer, its block, the defs of its block before it)

        def define(instr, label: str, position: int, earlier: int) -> int:
            defined = 0
            for op in instr.defs:
                if isinstance(op.value, Var):
                    self.sites[op.value] = (label, position, instr)
                    pending.append((op.value, label, earlier))
                    defined |= 1 << index.ensure(op.value)
            return defined

        #: block -> its phi defs, and every value defined in it.
        self.phi_defs: dict = {}
        self.block_defs: dict = {}
        for label, block in function.blocks.items():
            phis = 0
            for phi in block.phis:
                phis |= define(phi, label, -1, 0)
            earlier = phis
            for position, instr in enumerate(block.body):
                earlier |= define(instr, label, position, earlier)
            self.phi_defs[label], self.block_defs[label] = phis, earlier
        domtree = DominatorTree(function)
        above: dict = {}  # block -> the defs of its strict dominators
        for label in domtree.preorder():
            parent = domtree.idom[label]
            above[label] = 0 if parent is None \
                else above[parent] | self.block_defs[parent]
        #: writer -> the values whose definition dominates its own.
        self.dominated_by = {writer: above.get(label, 0) | earlier
                             for writer, label, earlier in pending}
        #: block -> the values live past the phi copies at its end.
        self.edge_kills = {
            label: reduce(or_, (liveness.live_in_mask(succ)
                                & ~self.phi_defs[succ]
                                for succ in block.successors()), 0)
            for label, block in function.blocks.items()}

    def kill_masks(self, mode: str) -> dict:
        """writer -> mask of the values ``variable_kills(writer, .)``
        reports killed in *mode*."""
        liveness = self.liveness
        index = liveness.index
        masks = {}
        for writer, (label, position, instr) in self.sites.items():
            if mode == "base":
                live = liveness.live_after_mask(label, position)
            elif mode == "optimistic":
                live = liveness.live_out_mask(label)
            else:  # pessimistic: live-in, or defined in the same block
                live = liveness.live_in_mask(label) | self.block_defs[label]
            mask = self.dominated_by[writer] & live
            if position == -1:
                for pred, op in instr.phi_pairs():
                    edge = self.edge_kills[pred]
                    slot = index.get(op.value)
                    if slot is not None:
                        edge &= ~(1 << slot)
                    mask |= edge
            masks[writer] = mask
        return masks

    def strong_masks(self) -> dict:
        """value -> mask of the values it strongly interferes with: the
        other phis of its block (Case 4), the phis reading a different
        argument on one of its predecessors (Case 3), and the other
        results of its instruction."""
        index = self.liveness.index
        at_pred: dict = {}   # pred -> the phis reading an argument there
        same_arg: dict = {}  # (pred, argument) -> the phis reading it
        for value, (_, position, instr) in self.sites.items():
            if position == -1:
                bit = 1 << index.get(value)
                for pred, op in instr.phi_pairs():
                    at_pred[pred] = at_pred.get(pred, 0) | bit
                    key = (pred, op.value)
                    same_arg[key] = same_arg.get(key, 0) | bit
        masks = {}
        for value, (label, position, instr) in self.sites.items():
            if position == -1:
                mask = self.phi_defs[label]
                for pred, op in instr.phi_pairs():
                    mask |= at_pred[pred] & ~same_arg[pred, op.value]
            else:
                mask = reduce(or_, (1 << index.get(op.value)
                                    for op in instr.defs
                                    if isinstance(op.value, Var)), 0)
            masks[value] = mask & ~(1 << index.get(value))
        return masks


def oracle_cross_check(function, max_pairs: int = 4000,
                       kill_modes: Sequence[str] = ("base",)) -> list[str]:
    """Mismatch descriptions between the dominance oracle and two
    references on *function* (brought into SSA on a copy): interference
    materialized from per-point liveness, and in each of *kill_modes*
    the kill/strong answers of a :class:`KillReference` over a fresh
    :class:`Liveness` and :class:`DominatorTree`.  Pairs are strided
    when the quadratic sweep would exceed *max_pairs*; kill and strong
    answers are compared in both directions of every pair.
    """
    work = function.copy()
    ensure_ssa(work)
    variables = _ssa_vars(work)
    if len(variables) < 2:
        return []
    neighbors, liveness = _materialized_masks(work, variables)
    index = liveness.index
    manager = AnalysisManager()
    oracle = manager.dominterf(work)
    mismatches: list[str] = []
    total = len(variables) * (len(variables) - 1) // 2
    stride = max(1, total // max_pairs)
    count = 0
    pairs = []
    for i, a in enumerate(variables):
        mask = neighbors.get(a, 0)
        for b in variables[i + 1:]:
            if count % stride == 0:
                pairs.append((a, b))
                expected = (mask >> index.get(b)) & 1 == 1
                got = oracle.interfere(a, b)
                if got != expected:
                    mismatches.append(
                        f"{function.name}: interfere({a}, {b}) = {got}, "
                        f"liveness says {expected}")
            count += 1
    reference = KillReference(work, liveness)
    strong = reference.strong_masks()
    slot = {v: index.get(v) for v in variables}
    for mode in kill_modes:
        mode_oracle = manager.dominterf(work, mode)
        kills = reference.kill_masks(mode)
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                expected = (kills[x] >> slot[y]) & 1 == 1
                if mode_oracle.variable_kills(x, y) != expected:
                    mismatches.append(
                        f"{function.name}: kills({x}, {y}) mode={mode} "
                        f"= {not expected}, dominance+liveness reference "
                        f"says {expected}")
                expected = (strong[x] >> slot[y]) & 1 == 1
                if mode_oracle.strongly_interfere(x, y) != expected:
                    mismatches.append(
                        f"{function.name}: strong({x}, {y}) mode={mode} "
                        f"= {not expected}, def-site reference says "
                        f"{expected}")
    return mismatches


# ----------------------------------------------------------------------
# The checks that never read the compositions' outputs.  Each is a
# module-level task over inputs this process no longer touches (the
# source text, a private module copy), which lets a sweep's pool run it
# in a worker beside the compositions.
# ----------------------------------------------------------------------
def _oracle_mismatches(source: str) -> list[str]:
    """The ``oracle`` check: :func:`oracle_cross_check` on every
    function, a crashing cross-check reported as one mismatch."""
    mismatches: list[str] = []
    for function in parse_module(source).iter_functions():
        try:
            mismatches += oracle_cross_check(function)
        except Exception as exc:  # noqa: BLE001
            mismatches.append(f"{function.name}: cross-check crashed: "
                              f"{exc!r}")
    return mismatches


def _parallel_output(module, verify, jobs: int) -> str:
    """The ``parallel`` check's run without a sweep pool:
    :data:`ANCHOR_COMPOSITION` at ``jobs=jobs`` (on a pool of its own
    when *jobs* > 1), as output text."""
    return format_module(run_experiment(module, ANCHOR_COMPOSITION,
                                        verify=verify, jobs=jobs).module)


def _anchor_plan(module, verify) -> tuple:
    """The ``parallel`` check's task for a sweep pool:
    :data:`ANCHOR_COMPOSITION` as the one-job
    :func:`~repro.parallel._compile_plan` spec ``run_experiment`` would
    send, on a private copy of *module* (the executor pickles it while
    this process compiles)."""
    from ..cache import resolve_cache
    from ..parallel import Job, _compile_plan, plan_spec

    job = Job(module.copy(), ANCHOR_COMPOSITION,
              EXPERIMENTS[ANCHOR_COMPOSITION])
    spec, _ = plan_spec([job], [NULL_TRACER], verify, resolve_cache(None),
                        ST120)
    return _compile_plan, spec


def _plan_output(done) -> str:
    """The output text of the one job of a returned
    :func:`~repro.parallel._compile_plan`; raises the job's exception."""
    (result,), _ = done
    if isinstance(result, Exception):
        raise result
    return format_module(result.module)


def _cache_round_trip(source: str, verify) -> tuple[str, str, int]:
    """The ``cache`` check's runs: :data:`ANCHOR_COMPOSITION` cache-cold
    then cache-warm in a fresh store.  Returns both outputs' text and
    the warm run's hit count."""
    from ..cache import CompilationCache

    module = parse_module(source)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        cache = CompilationCache(tmp)
        cold = run_experiment(module, ANCHOR_COMPOSITION, verify=verify,
                              jobs=1, cache=cache)
        warm = run_experiment(module, ANCHOR_COMPOSITION, verify=verify,
                              jobs=1, cache=cache)
    return (format_module(cold.module), format_module(warm.module),
            warm.cache.get("hits", 0))


def _submit(pool, tasks: dict) -> dict:
    """check -> future of its ``(task, *args)`` on *pool*; a check the
    pool refused is left out (it runs in this process)."""
    futures = {}
    for check, (task, *args) in tasks.items():
        future = pool.submit(task, *args)
        if future is not None:
            futures[check] = future
    return futures


def _collect(pool, futures: dict, tasks: dict) -> dict:
    """check -> what its task returned or raised, for every check in
    *futures*.  The checks whose worker died are resubmitted once, to
    the respawned pool; a second death is that check's outcome.  A
    check the pool refused is left out (it runs in this process)."""
    from concurrent.futures.process import BrokenProcessPool

    outcomes, retried = {}, False
    while futures:
        broken = {}
        for check, future in futures.items():
            try:
                outcomes[check] = future.result()
            except BrokenProcessPool as exc:
                outcomes[check] = exc
                broken[check] = tasks[check]
            except Exception as exc:  # noqa: BLE001 - reported in its slot
                outcomes[check] = exc
        futures = {}
        if broken:
            pool.respawn()
            if not retried:
                retried = True
                for check in broken:
                    del outcomes[check]
                futures = _submit(pool, broken)
    return outcomes


# ----------------------------------------------------------------------
# The differential driver
# ----------------------------------------------------------------------
def check_module(source: str, verify: Sequence[tuple[str, Sequence[int]]],
                 checks: Sequence[str] = ALL_CHECKS,
                 experiments: Optional[Sequence[str]] = None,
                 invariants: Sequence[tuple[str, str]] = DEFAULT_INVARIANTS,
                 jobs: int = 4,
                 seed: int = -1,
                 profile: str = "",
                 pool=None) -> SeedResult:
    """Run every requested failure predicate on one LAI program.

    *source* is LAI text of a (typically pre-SSA) module; *verify* is
    the ``(function, args)`` list whose interpreter traces define
    observable behaviour.  Returns a :class:`SeedResult` whose
    ``divergences`` is empty iff the program survives everything.
    ``pool`` (a :class:`~repro.parallel.WorkerPool`) runs the
    ``oracle``, ``parallel`` and ``cache`` checks in its workers: all
    three are submitted as soon as the reference run passes, and this
    process blocks on them once, after the compositions and variants.
    Without a pool they run here, in order, and the ``parallel`` check
    opens a pool of *jobs* workers for its one run.  Either way every
    divergence is reported in the same order.  A check whose worker
    died is resubmitted once to the respawned pool.
    """
    checks = tuple(checks)
    names = tuple(experiments) if experiments is not None \
        else tuple(EXPERIMENTS)
    result = SeedResult(seed=seed, profile=profile, source=source,
                        verify=list(verify))
    report = result.divergences.append

    try:
        module = parse_module(source)
    except Exception as exc:  # noqa: BLE001 - any parse defect is a finding
        report(Divergence("roundtrip", "", type(exc).__name__,
                          f"source does not parse: {exc}", seed, profile))
        return result
    result.functions = len(module.functions)

    if "roundtrip" in checks:
        try:
            printed = format_module(module)
            reprinted = format_module(parse_module(printed))
            if printed != reprinted:
                report(Divergence(
                    "roundtrip", "", "mismatch",
                    "print->parse->print is not a fixpoint",
                    seed, profile))
        except Exception as exc:  # noqa: BLE001
            report(Divergence("roundtrip", "", type(exc).__name__,
                              str(exc), seed, profile))

    # The reference interpretation must succeed before any differential
    # claim makes sense; a failure here is a generator/harness defect.
    try:
        _observables(module, verify)
    except Exception as exc:  # noqa: BLE001
        report(Divergence("compositions", "", type(exc).__name__,
                          f"reference run failed: {exc}", seed, profile))
        return result

    from ..parallel import fork_available

    # Only the anchor composition's output is compared with the
    # parallel and cache runs: without it they would be discarded unread.
    anchored = "compositions" in checks and ANCHOR_COMPOSITION in names
    # check -> (task, *args).  A pool gets them in this order, the
    # longest (oracle) last, which measured fastest (docs/fuzzing.md);
    # results are reported in ALL_CHECKS order either way.
    tasks = {}
    if "cache" in checks and anchored:
        tasks["cache"] = (_cache_round_trip, source, verify)
    if "parallel" in checks and anchored and fork_available():
        tasks["parallel"] = (_parallel_output, module, verify, jobs)
    if "oracle" in checks:
        tasks["oracle"] = (_oracle_mismatches, source)
    pooled, futures = {}, {}
    if pool is not None:
        pooled = {check: _anchor_plan(module, verify)
                  if check == "parallel" else task
                  for check, task in tasks.items()}
        futures = _submit(pool, pooled)

    if "interp" in checks:
        # Explicit lockstep run regardless of $REPRO_INTERP: the
        # compiled tier must reproduce the tree-walker's observables
        # and step counts on the source program.
        for fn_name, fn_args in verify:
            try:
                run_module(module, fn_name, fn_args, tier="both")
            except TierDivergence as exc:
                report(Divergence("interp", "", "tier-mismatch",
                                  str(exc), seed, profile))
            except (InterpreterError, KeyError):
                pass  # both tiers failed alike; the gate above vets this
            except Exception as exc:  # noqa: BLE001 - compiler crash
                report(Divergence("interp", "", type(exc).__name__,
                                  str(exc) or "crash", seed, profile))

    anchor = None  # serial output of ANCHOR_COMPOSITION, for parallel/cache
    runs: list[tuple[str, str, Optional[PhaseOptions]]] = []
    if "compositions" in checks:
        runs += [(name, name, None) for name in names]
    if "variants" in checks:
        runs += [(f"{ANCHOR_COMPOSITION}[{label}]", ANCHOR_COMPOSITION,
                  options)
                 for label, options in table5_variants().items()]
    # One plan over every run: each shared phase prefix runs once.
    plan = PrefixPlan([(EXPERIMENTS[name], options)
                       for _, name, options in runs])
    for label, name, options in runs:
        try:
            experiment = run_experiment(module, name, options=options,
                                        verify=verify, jobs=1, prefix=plan)
        except Exception as exc:  # noqa: BLE001 - crash vs behaviour both count
            kind = type(exc).__name__
            if isinstance(exc, AssertionError):
                kind = "behaviour"
            report(Divergence("variants" if options is not None
                              else "compositions", label, kind,
                              str(exc) or kind, seed, profile))
            continue
        result.moves[label] = experiment.moves
        if label == ANCHOR_COMPOSITION:
            anchor = format_module(experiment.module)
        del experiment  # released before the next run starts

    if "invariants" in checks:
        for lhs, rhs in invariants:
            if lhs in result.moves and rhs in result.moves \
                    and result.moves[lhs] > result.moves[rhs]:
                report(Divergence(
                    "invariants", f"{lhs}<={rhs}", "violated",
                    f"moves[{lhs}]={result.moves[lhs]} > "
                    f"moves[{rhs}]={result.moves[rhs]}", seed, profile))

    outcomes = _collect(pool, futures, pooled)

    def outcome(check: str):
        """*check*'s task result, from its worker or else run here;
        raises whatever the task raised."""
        if check not in outcomes:
            task, *args = tasks[check]
            return task(*args)
        if isinstance(outcomes[check], Exception):
            raise outcomes[check]
        if check == "parallel":
            return _plan_output(outcomes[check])
        return outcomes[check]

    if "oracle" in tasks:
        for mismatch in outcome("oracle"):
            report(Divergence("oracle", "", "mismatch", mismatch,
                              seed, profile))

    if "parallel" in tasks and anchor is not None:
        try:
            if outcome("parallel") != anchor:
                report(Divergence(
                    "parallel", ANCHOR_COMPOSITION, "mismatch",
                    f"--jobs {jobs} output differs from serial",
                    seed, profile))
        except Exception as exc:  # noqa: BLE001
            report(Divergence("parallel", ANCHOR_COMPOSITION,
                              type(exc).__name__, str(exc) or "crash",
                              seed, profile))

    if "cache" in tasks and anchor is not None:
        try:
            cold, warm, hits = outcome("cache")
            for tag, text in (("cache-cold", cold), ("cache-warm", warm)):
                if text != anchor:
                    report(Divergence(
                        "cache", ANCHOR_COMPOSITION, "mismatch",
                        f"{tag} output differs from uncached",
                        seed, profile))
            if hits < len(module.functions):
                report(Divergence(
                    "cache", ANCHOR_COMPOSITION, "hit-shortfall",
                    f"warm run hit {hits}/{len(module.functions)} "
                    f"functions", seed, profile))
        except Exception as exc:  # noqa: BLE001
            report(Divergence("cache", ANCHOR_COMPOSITION,
                              type(exc).__name__, str(exc) or "crash",
                              seed, profile))
    return result


def check_seed(seed: int, profile: str = "default",
               n_functions: int = 3,
               config: Optional[SyntheticConfig] = None,
               checks: Sequence[str] = ALL_CHECKS,
               experiments: Optional[Sequence[str]] = None,
               invariants: Sequence[tuple[str, str]] = DEFAULT_INVARIANTS,
               jobs: int = 4, pool=None) -> SeedResult:
    """Generate the program for ``(seed, profile)`` and run
    :func:`check_module` on it."""
    config = config if config is not None else profile_config(profile)
    name = f"fuzz_{profile.replace('-', '_')}_{seed}"
    source = generate_module_source(seed, n_functions, config, name)
    verify = verify_runs(seed, n_functions, config, name)
    return check_module(source, verify, checks=checks,
                        experiments=experiments, invariants=invariants,
                        jobs=jobs, seed=seed, profile=profile, pool=pool)


def run_fuzz(seeds: Iterable[int],
             profiles: Sequence[str] = ("default",),
             n_functions: int = 3,
             checks: Sequence[str] = ALL_CHECKS,
             experiments: Optional[Sequence[str]] = None,
             invariants: Sequence[tuple[str, str]] = DEFAULT_INVARIANTS,
             jobs: int = 4,
             max_seconds: Optional[float] = None,
             on_result: Optional[Callable[[SeedResult], None]] = None) \
        -> FuzzReport:
    """Sweep *seeds* x *profiles* through :func:`check_seed`.

    ``profiles`` may include ``"all"`` to expand to every
    :data:`~repro.benchgen.synthetic.FUZZ_PROFILES` entry.
    ``max_seconds`` time-boxes the sweep (finishing the in-flight
    program); ``on_result`` observes every program, failing or not.
    """
    from ..parallel import shared_pool

    expanded: list[str] = []
    for profile in profiles:
        if profile == "all":
            expanded.extend(FUZZ_PROFILES)
        else:
            expanded.append(profile)
    report = FuzzReport(checks=tuple(checks))
    start = time.monotonic()
    # One pool for the whole sweep: every program's ``parallel`` check
    # and offloaded ``oracle``/``cache`` checks reuse the same forked
    # workers.
    pooled = {"parallel", "oracle", "cache"} & set(checks)
    with shared_pool(jobs if pooled else 1) as pool:
        for seed in seeds:
            for profile in expanded:
                result = check_seed(seed, profile, n_functions,
                                    checks=checks, experiments=experiments,
                                    invariants=invariants, jobs=jobs,
                                    pool=pool)
                report.programs += 1
                report.functions += result.functions
                if not result.ok:
                    report.failures.append(result)
                else:
                    for label, moves in result.moves.items():
                        report.move_totals[label] = \
                            report.move_totals.get(label, 0) + moves
                if on_result is not None:
                    on_result(result)
            report.seeds += 1
            if max_seconds is not None \
                    and time.monotonic() - start >= max_seconds:
                report.timed_out = True
                break
    if "invariants" in report.checks:
        irreducible_swept = any(
            FUZZ_PROFILES[p].irreducible_prob > 0
            for p in expanded if p in FUZZ_PROFILES)
        for lhs, rhs in AGGREGATE_INVARIANTS:
            if irreducible_swept \
                    and (lhs, rhs) in REDUCIBLE_ONLY_AGGREGATES:
                continue
            totals = report.move_totals
            if lhs in totals and rhs in totals \
                    and totals[lhs] > totals[rhs]:
                report.aggregate_violations.append(Divergence(
                    "invariants", f"sum({lhs})<=sum({rhs})", "aggregate",
                    f"{totals[lhs]} > {totals[rhs]} over "
                    f"{report.programs} programs"))
    report.elapsed = time.monotonic() - start
    return report
