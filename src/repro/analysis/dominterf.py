"""Query-based dominance interference oracle.

Under strict SSA, live ranges are subtrees of the dominator tree, so the
interference graph is *chordal* and pairwise interference needs no
quadratic materialization: of two interfering SSA values one definition
dominates the other (Budimlic et al.; Bouchez, Darte & Rastello prove
the underlying structure), so ``interfere(a, b)`` reduces to

1. an O(1) dominator-tree ancestor query
   (:meth:`repro.analysis.dominance.DominatorTree.dominates`, backed by
   DFS pre/post-order interval numbering), and
2. an O(1) ``is_live_after`` bit probe at the dominated definition
   (:meth:`repro.analysis.liveness.Liveness.is_live_after`).

The :class:`InterferenceOracle` packages those two probes together with
the paper's kill machinery (:class:`~repro.analysis.interference.
KillRules`, Algorithm 2) behind one memoized query surface, replacing
every "build the whole graph, then ask three questions" call site.  The
full O(V^2) :class:`~repro.analysis.interference.InterferenceGraph`
remains only where a *whole-graph* view is genuinely consumed: the
Chaitin/Briggs coalescing round and graph-coloring allocation.

The oracle answers the paper's four dominance-kill interference classes
(section 3.2, Figure 4):

* **Class 1** -- dominance kill: the dominating definition's value is
  still live just after the dominated definition (``interfere`` /
  ``variable_kills`` Case 1);
* **Class 2** -- phi kill: a phi's virtual definition at the end of a
  predecessor edge overwrites a value live past the edge copies
  (``variable_kills`` Case 2, one precomputed mask per phi);
* **Class 3** -- two phis write their resource at the end of a shared
  predecessor with different sources (``strongly_interfere``);
* **Class 4** -- parallel definitions: two phis of one block, or two
  results of one instruction (``strongly_interfere``).

Classes 3 and 4 are additionally exposed as **strong signatures**
(:class:`StrongSig`): a per-variable summary -- phi block, per-edge
sources, multi-definition instruction -- whose merged group form lets
the coalescer's :class:`~repro.outofssa.pinning_coalescer.ResourcePool`
decide "does any member of A strongly interfere with any member of B"
with a few set intersections instead of an |A| x |B| pairwise sweep.
The signature test is exact (property-checked against the pairwise
reference in ``tests/test_dominterf_cross_check.py``).

Memoization policy: answers depend only on the immutable SSA analyses,
never on coalescer state, so every verdict is cached forever within the
oracle's lifetime; the :class:`~repro.analysis.manager.AnalysisManager`
epoch-invalidates the oracle itself whenever the function mutates.
Hit/miss totals accumulate in a shared :class:`OracleStats` (one per
manager) and surface as ``oracle_hits``/``oracle_misses`` in the
``env.analysis_cache`` stats block (``repro.stats/v2``).
"""

from __future__ import annotations

from typing import Optional

from ..ir.types import Value, Var
from .interference import InterferenceMode, KillRules, SSAInterference


class OracleStats:
    """Shared hit/miss accounting across every oracle of one manager.

    Plain integer fields (not tracer counters) because the oracle sits
    on the innermost coalescer loop; the totals are exported once per
    run via :meth:`repro.analysis.manager.AnalysisManager.stats`.
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def queries(self) -> int:
        return self.hits + self.misses


class StrongSig:
    """Strong-interference signature of one variable or resource group.

    ``phi_blocks``
        blocks in which a member is phi-defined (Class 4: any two
        distinct phi definitions of one block strongly interfere);
    ``pred_args``
        ``predecessor label -> set of phi sources flowing in there``
        (Class 3: two phis writing at the end of a shared predecessor
        strongly interfere iff their sources there differ);
    ``multidef``
        identities of multi-result instructions defining a member
        (Figure 4 Case 1: two values written by one instruction).

    Signatures form a union semilattice (:meth:`merged`), which is what
    lets the coalescer keep one per resource group and update it in
    O(signature) on every union-find merge.
    """

    __slots__ = ("phi_blocks", "pred_args", "multidef")

    def __init__(self, phi_blocks: frozenset, pred_args: dict,
                 multidef: frozenset) -> None:
        self.phi_blocks = phi_blocks
        self.pred_args = pred_args
        self.multidef = multidef

    def merged(self, other: "StrongSig") -> "StrongSig":
        pred_args = dict(self.pred_args)
        for pred, sources in other.pred_args.items():
            mine = pred_args.get(pred)
            pred_args[pred] = sources if mine is None else (mine | sources)
        return StrongSig(self.phi_blocks | other.phi_blocks,
                         pred_args,
                         self.multidef | other.multidef)

    def interferes(self, other: "StrongSig") -> bool:
        """Does any variable summarized by *self* strongly interfere
        with any variable summarized by *other*?  Exact, provided the
        two member sets are disjoint (guaranteed between two distinct
        union-find groups)."""
        if not self.phi_blocks.isdisjoint(other.phi_blocks):
            return True  # Class 4: two phi definitions in one block.
        if not self.multidef.isdisjoint(other.multidef):
            return True  # Two results of one instruction.
        mine, theirs = self.pred_args, other.pred_args
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        for pred, sources in mine.items():
            other_sources = theirs.get(pred)
            if other_sources is None:
                continue
            # Class 3: a differing cross pair of sources at this shared
            # predecessor exists iff the union holds >= 2 values.
            if len(sources | other_sources) >= 2:
                return True
        return False


#: The signature of a variable with no strong-interference potential
#: (not a phi, single-result definition) -- the overwhelming majority.
EMPTY_SIG = StrongSig(frozenset(), {}, frozenset())


class InterferenceOracle:
    """Lazy, memoized pairwise interference for one SSA function.

    Composes the cached :class:`SSAInterference` bundle (dominator
    tree + def-use + liveness) and the per-mode :class:`KillRules`;
    construction is O(1) beyond those -- no pair is ever examined
    before it is queried, and no V x V structure is ever built.
    """

    __slots__ = ("rules", "ssa", "stats", "_interfere", "_sigs")

    def __init__(self, rules: KillRules,
                 stats: Optional[OracleStats] = None) -> None:
        self.rules = rules
        self.ssa: SSAInterference = rules.ssa
        self.stats = stats if stats is not None else OracleStats()
        self._interfere: dict[tuple[Var, Var], bool] = {}
        self._sigs: dict[Value, StrongSig] = {}

    # -- convenience views over the underlying bundle ------------------
    @property
    def function(self):
        return self.ssa.function

    @property
    def mode(self) -> InterferenceMode:
        return self.rules.mode

    @property
    def domtree(self):
        return self.ssa.domtree

    @property
    def defuse(self):
        return self.ssa.defuse

    @property
    def liveness(self):
        return self.ssa.liveness

    # ------------------------------------------------------------------
    # Pairwise queries
    # ------------------------------------------------------------------
    def interfere(self, a: Var, b: Var) -> bool:
        """Do the live ranges of *a* and *b* overlap?  (Classes 1/4 of
        the dominance argument: dominance test + live-at-def probe.)"""
        key = (a, b) if a.name <= b.name else (b, a)
        cached = self._interfere.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        verdict = self.ssa.interfere(a, b)
        self._interfere[key] = verdict
        return verdict

    def strongly_interfere(self, a: Var, b: Var) -> bool:
        """Paper Classes 3/4: pinning *a* and *b* together would be
        incorrect (no repair can fix it)."""
        cached = self.rules._strong.get((a, b))
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        return self.rules.strongly_interfere(a, b)

    def variable_kills(self, a: Var, b: Var) -> bool:
        """Classes 1/2: defining *a* into a shared resource destroys
        *b* (repairable, but a cost)."""
        cached = self.rules._kills.get((a, b))
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        return self.rules.variable_kills(a, b)

    def kill_candidates_mask(self, writer: Var) -> int:
        """Superset mask of the values *writer* can possibly kill; see
        :meth:`KillRules.kill_candidates_mask`."""
        return self.rules.kill_candidates_mask(writer)

    # ------------------------------------------------------------------
    # Strong signatures (group-level Classes 3/4)
    # ------------------------------------------------------------------
    def strong_sig(self, var: Var) -> StrongSig:
        """The strong-interference signature of one variable (cached)."""
        sig = self._sigs.get(var)
        if sig is None:
            sig = self._compute_sig(var)
            self._sigs[var] = sig
        return sig

    def _compute_sig(self, var: Var) -> StrongSig:
        site = self.ssa.defuse.def_site(var)
        if site is None:
            return EMPTY_SIG
        if site.is_phi:
            pred_args = {pred: frozenset((op.value,))
                         for pred, op in site.instr.phi_pairs()}
            return StrongSig(frozenset((site.block,)), pred_args,
                             frozenset())
        if sum(1 for op in site.instr.defs
               if isinstance(op.value, Var)) > 1:
            return StrongSig(frozenset(), {},
                             frozenset((id(site.instr),)))
        return EMPTY_SIG
