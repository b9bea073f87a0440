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
    the fuzzer can run it on arbitrary generated programs).
``parallel``
    ``--jobs N`` output is byte-identical to the serial run.
``cache``
    cache-cold and cache-warm outputs are byte-identical to the
    uncached run, and the warm run hits for every function.

A failing check yields a :class:`Divergence` instead of raising, so one
fuzzing sweep reports everything it finds; :meth:`Divergence.key`
identifies the failure family for the minimizer's predicate.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..analysis import AnalysisManager, KillRules, Liveness, SSAInterference
from ..benchgen.synthetic import (FUZZ_PROFILES, SyntheticConfig,
                                  generate_module_source, profile_config,
                                  verify_runs)
from ..interp import InterpreterError, TierDivergence, run_module
from ..ir.printer import format_module
from ..ir.types import Var
from ..lai import parse_module
from ..pipeline import (EXPERIMENTS, PhaseOptions, ensure_ssa,
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
    dominance, no kill rules (dead defs still clobber their point)."""
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
    return neighbors, index


def oracle_cross_check(function, max_pairs: int = 4000,
                       kill_modes: Sequence[str] = ("base",)) -> list[str]:
    """Mismatch descriptions between the dominance oracle and the
    materialized liveness reference on *function* (brought into SSA on
    a copy).  Pairs are strided when the quadratic sweep would exceed
    *max_pairs*; kill/strong answers are cross-checked against a fresh
    :class:`~repro.analysis.KillRules` in each of *kill_modes*.
    """
    work = function.copy()
    ensure_ssa(work)
    variables = _ssa_vars(work)
    if len(variables) < 2:
        return []
    neighbors, index = _materialized_masks(work, variables)
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
    interference = SSAInterference(work)
    for mode in kill_modes:
        mode_oracle = manager.dominterf(work, mode)
        fresh = KillRules(interference, mode=mode)
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                if mode_oracle.variable_kills(x, y) \
                        != fresh.variable_kills(x, y):
                    mismatches.append(
                        f"{function.name}: kills({x}, {y}) mode={mode} "
                        f"disagrees with fresh KillRules")
                if mode_oracle.strongly_interfere(x, y) \
                        != fresh.strongly_interfere(x, y):
                    mismatches.append(
                        f"{function.name}: strong({x}, {y}) mode={mode} "
                        f"disagrees with fresh KillRules")
    return mismatches


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
    ``parallel`` check on the caller's pool instead of opening one.
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
    for label, name, options in runs:
        try:
            experiment = run_experiment(module, name, options=options,
                                        verify=verify, jobs=1)
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

    if "invariants" in checks:
        for lhs, rhs in invariants:
            if lhs in result.moves and rhs in result.moves \
                    and result.moves[lhs] > result.moves[rhs]:
                report(Divergence(
                    "invariants", f"{lhs}<={rhs}", "violated",
                    f"moves[{lhs}]={result.moves[lhs]} > "
                    f"moves[{rhs}]={result.moves[rhs]}", seed, profile))

    if "oracle" in checks:
        for function in module.iter_functions():
            try:
                mismatches = oracle_cross_check(function)
            except Exception as exc:  # noqa: BLE001
                mismatches = [f"{function.name}: cross-check crashed: "
                              f"{exc!r}"]
            for mismatch in mismatches:
                report(Divergence("oracle", "", "mismatch", mismatch,
                                  seed, profile))

    if "parallel" in checks and anchor is not None \
            and len(module.functions) > 1:
        from ..parallel import fork_available

        if fork_available():
            try:
                sharded = run_experiment(module, ANCHOR_COMPOSITION,
                                         verify=verify, jobs=jobs,
                                         pool=pool)
                if format_module(sharded.module) != anchor:
                    report(Divergence(
                        "parallel", ANCHOR_COMPOSITION, "mismatch",
                        f"--jobs {jobs} output differs from serial",
                        seed, profile))
            except Exception as exc:  # noqa: BLE001
                report(Divergence("parallel", ANCHOR_COMPOSITION,
                                  type(exc).__name__, str(exc) or "crash",
                                  seed, profile))

    if "cache" in checks and anchor is not None:
        from ..cache import CompilationCache

        try:
            with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") \
                    as tmp:
                cache = CompilationCache(tmp)
                cold = run_experiment(module, ANCHOR_COMPOSITION,
                                      verify=verify, jobs=1, cache=cache)
                warm = run_experiment(module, ANCHOR_COMPOSITION,
                                      verify=verify, jobs=1, cache=cache)
                for tag, run in (("cache-cold", cold), ("cache-warm",
                                                        warm)):
                    if format_module(run.module) != anchor:
                        report(Divergence(
                            "cache", ANCHOR_COMPOSITION, "mismatch",
                            f"{tag} output differs from uncached",
                            seed, profile))
                hits = warm.cache.get("hits", 0)
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
    # One pool for the whole sweep: the ``parallel`` check of every
    # program reuses the same forked workers.
    with shared_pool(jobs if "parallel" in checks else 1) as pool:
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
