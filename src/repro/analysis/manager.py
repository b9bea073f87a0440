"""Shared, epoch-invalidated analysis construction for the pipeline.

Every transformation pass needs some subset of
{:class:`~repro.analysis.dominance.DominatorTree`,
:class:`~repro.analysis.defuse.DefUse`,
:class:`~repro.analysis.liveness.Liveness`,
:class:`~repro.analysis.interference.SSAInterference`, ...} and, before
this module existed, built its own private copies from scratch -- even
when the previous phase changed nothing the analysis depends on
(attaching pins, for instance, mutates no instruction).  The
:class:`AnalysisManager` makes construction a cached lookup:

* Each analysis is cached per ``(function, kind)`` and stamped with the
  function's **mutation epoch** at build time
  (:attr:`repro.ir.function.Function.epoch`).  A lookup whose stamp
  matches the current epoch is a *hit*; otherwise the analysis is
  rebuilt (*miss*).  Purely structural analyses (dominator tree, loop
  forest) are stamped with the coarser ``cfg_epoch`` so they survive
  body-level rewrites such as copy propagation.
* Passes that mutate the IR bump the epochs and report
  ``preserves=...`` to :meth:`AnalysisManager.invalidate` for analyses
  they keep valid by construction despite the bump; those entries are
  re-stamped instead of dropped.  Everything else stale is evicted
  eagerly so the cache never grows unbounded across a pipeline run.
* Hit/miss/invalidation totals are exported via :meth:`stats` and
  mirrored onto the observability tracer's counters
  (``analysis.hits`` ...), landing in the ``repro.stats`` payload.

The manager hands every consumer the *same* object, which is what makes
the shared :class:`~repro.analysis.bitset.VarIndex` numbering pay off:
one dense numbering per (function, epoch) backs liveness, the kill
rules and the Chaitin graph alike.
"""

from __future__ import annotations

from typing import Optional

from ..ir.function import Function
from .bitset import VarIndex
from .defuse import DefUse
from .dominance import DominatorTree
from .dominterf import InterferenceOracle, OracleStats
from .interference import (InterferenceGraph, InterferenceMode, KillRules,
                           SSAInterference)
from .liveness import Liveness
from .loops import LoopForest

#: Analysis kinds whose validity depends only on the CFG *shape*
#: (blocks and edges), not on instruction bodies.
_CFG_KEYED = frozenset({"domtree", "loops"})


class AnalysisManager:
    """Per-function analysis cache with epoch-based invalidation."""

    def __init__(self, tracer=None) -> None:
        from ..observability import resolve as resolve_tracer

        self._cache: dict[Function, dict[str, tuple[int, object]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.preserved = 0
        self.oracle_stats = OracleStats()
        tracer = resolve_tracer(tracer)
        self._hit_counter = tracer.counter("analysis.hits")
        self._miss_counter = tracer.counter("analysis.misses")
        self._invalidation_counter = tracer.counter("analysis.invalidations")

    # ------------------------------------------------------------------
    # Cache core
    # ------------------------------------------------------------------
    @staticmethod
    def _epoch_of(function: Function, kind: str) -> int:
        base = kind.split(":", 1)[0]
        return function.cfg_epoch if base in _CFG_KEYED else function.epoch

    def _get(self, function: Function, kind: str, build):
        entry = self._cache.get(function)
        if entry is None:
            entry = self._cache[function] = {}
        epoch = self._epoch_of(function, kind)
        cached = entry.get(kind)
        if cached is not None and cached[0] == epoch:
            self.hits += 1
            self._hit_counter.add()
            return cached[1]
        self.misses += 1
        self._miss_counter.add()
        analysis = build()
        entry[kind] = (epoch, analysis)
        return analysis

    def invalidate(self, function: Function,
                   preserves: frozenset[str] | set[str] = frozenset()) \
            -> None:
        """Drop cached analyses outdated by *function*'s current epochs.

        *preserves* names analysis kinds the just-finished pass keeps
        valid by construction even though it mutated the function (e.g.
        a pass renaming inside one instruction preserves ``"domtree"``);
        those entries are re-stamped with the current epoch instead of
        evicted.  ``"all"`` preserves everything.  Entries whose stamp
        already matches (the pass did not invalidate them) are counted
        as preserved, not rebuilt.
        """
        entry = self._cache.get(function)
        if not entry:
            return
        keep_all = "all" in preserves
        for kind in list(entry):
            current = self._epoch_of(function, kind)
            stamped, analysis = entry[kind]
            if stamped == current:
                self.preserved += 1
                continue
            if keep_all or kind.split(":", 1)[0] in preserves:
                entry[kind] = (current, analysis)
                self.preserved += 1
            else:
                del entry[kind]
                self.invalidations += 1
                self._invalidation_counter.add()

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the ``repro.stats`` payload."""
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "preserved": self.preserved,
                "oracle_hits": self.oracle_stats.hits,
                "oracle_misses": self.oracle_stats.misses}

    def stats_since(self, mark: dict[str, int]) -> dict[str, int]:
        """The counter deltas since a :meth:`stats` snapshot -- what one
        pipeline run contributes when a process-lifetime manager (the
        ``repro serve`` serial path's) serves many runs."""
        return {name: value - mark.get(name, 0)
                for name, value in self.stats().items()}

    def flush(self) -> None:
        """Drop every per-function cache entry, keeping the lifetime
        counters.  Long-lived managers (pool workers) call this between
        tasks: pipeline runs mutate fresh module *copies*, so entries
        for a finished run's functions can never hit again and would
        only pin dead IR in memory."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Analysis getters
    # ------------------------------------------------------------------
    def varindex(self, function: Function) -> VarIndex:
        return self._get(function, "varindex",
                         lambda: VarIndex(function))

    def domtree(self, function: Function) -> DominatorTree:
        return self._get(function, "domtree",
                         lambda: DominatorTree(function))

    def loops(self, function: Function) -> LoopForest:
        return self._get(function, "loops",
                         lambda: LoopForest(function,
                                            self.domtree(function)))

    def defuse(self, function: Function) -> DefUse:
        return self._get(function, "defuse", lambda: DefUse(function))

    def liveness(self, function: Function) -> Liveness:
        return self._get(function, "liveness",
                         lambda: Liveness(function,
                                          self.varindex(function)))

    def ssa(self, function: Function) -> SSAInterference:
        """The bundled SSA interference view (domtree+defuse+liveness,
        each individually cached)."""
        return self._get(function, "ssa",
                         lambda: SSAInterference(
                             function,
                             domtree=self.domtree(function),
                             defuse=self.defuse(function),
                             liveness=self.liveness(function)))

    def kill_rules(self, function: Function,
                   mode: InterferenceMode = "base") -> KillRules:
        """The paper's kill/strong-interference rules; cached per mode
        so ABI pinning and the coalescer share one memo table."""
        return self._get(function, f"killrules:{mode}",
                         lambda: KillRules(self.ssa(function), mode))

    def dominterf(self, function: Function,
                  mode: InterferenceMode = "base") -> InterferenceOracle:
        """The query-based interference oracle (see
        :mod:`repro.analysis.dominterf`): memoized pairwise
        ``interfere`` / ``strongly_interfere`` / ``variable_kills`` over
        the cached SSA bundle, never materializing the V x V graph.
        Cached per mode like :meth:`kill_rules` (whose memo tables it
        shares); hit/miss totals accumulate in the manager-wide
        :attr:`oracle_stats` and surface as ``oracle_hits`` /
        ``oracle_misses`` in :meth:`stats`."""
        return self._get(function, f"dominterf:{mode}",
                         lambda: InterferenceOracle(
                             self.kill_rules(function, mode),
                             stats=self.oracle_stats))

    def interference_graph(self, function: Function) -> InterferenceGraph:
        """Chaitin graph for phi-free code, sharing the cached liveness
        (and hence its value numbering)."""
        return self._get(function, "graph",
                         lambda: InterferenceGraph(
                             function, self.liveness(function)))
