"""Cross-validation: the query-based dominance interference oracle
(:mod:`repro.analysis.dominterf`) must agree, pair by pair, with
interference materialized straight from liveness -- on every kernel,
every LAI suite and every synthetic program we can generate.

The interference reference is deliberately independent of the
oracle's dominance shortcut: walk every program point, take the live-after set plus the
values defined *at* that point (a dead definition still clobbers its
resource; a phi prefix defines all its phis in parallel), and mark every
pair simultaneously present.  Under strict SSA that pointwise overlap
relation is exactly what ``interfere`` claims to answer in O(1).

The kill and strong answers are held to two references: a fresh
:class:`KillRules`, and the fuzz harness's bulk ``KillReference``
(dominance and liveness masks, no KillRules code), which must agree
with KillRules everywhere and must catch a KillRules seeded with a
wrong rule.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (AnalysisManager, InterferenceOracle, KillRules,
                            Liveness, SSAInterference)
from repro.analysis.dominterf import EMPTY_SIG
from repro.analysis.interference import InterferenceGraph
from repro.benchgen import all_suites
from repro.benchgen.kernels import KERNELS
from repro.benchgen.synthetic import (SyntheticConfig, generate_module,
                                      generate_module_source,
                                      profile_config)
from repro.fuzz import oracle_cross_check
from repro.fuzz.differential import KillReference
from repro.ir.types import Var
from repro.lai import parse_module
from repro.pipeline import ensure_ssa

MODES = ("base", "optimistic", "pessimistic")

#: Full ordered-pair kill/strong sweeps are quadratic per mode; above
#: this many variables a deterministic stride keeps the sweep linear-ish
#: while still covering every region of the pair space.
FULL_SWEEP_VARS = 64


def ssa_vars(function):
    seen = {}
    for block in function.iter_blocks():
        for instr in block.phis + block.body:
            for op in instr.defs:
                if isinstance(op.value, Var):
                    seen[op.value] = None
    return sorted(seen, key=str)


def materialized_masks(function, variables):
    """Reference adjacency, one bitmask per variable, built only from
    per-point liveness -- no dominance, no kill rules."""
    liveness = Liveness(function)
    index = liveness.index
    for v in variables:  # dead definitions still need a slot
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


def pair_stream(variables):
    """Every unordered pair for small functions; a deterministic stride
    through the pair enumeration for large ones."""
    n = len(variables)
    total = n * (n - 1) // 2
    stride = 1 if n <= FULL_SWEEP_VARS else max(1, total // 4000)
    count = 0
    for i, a in enumerate(variables):
        for b in variables[i + 1:]:
            if count % stride == 0:
                yield a, b
            count += 1


def assert_interfere_agrees(function, manager):
    """`interfere` vs the pointwise reference: every unordered pair."""
    variables = ssa_vars(function)
    neighbors, index = materialized_masks(function, variables)
    oracle = manager.dominterf(function)
    fresh = SSAInterference(function)
    for i, a in enumerate(variables):
        mask = neighbors.get(a, 0)
        for b in variables[i + 1:]:
            expected = (mask >> index.get(b)) & 1 == 1
            got = oracle.interfere(a, b)
            assert got == expected, (function.name, a, b, got)
            assert oracle.interfere(b, a) == expected  # symmetric, memo hit
            assert fresh.interfere(a, b) == expected


def assert_kill_rules_agree(function, manager):
    """Oracle kill/strong answers vs a freshly built KillRules in every
    mode, plus the candidate-mask superset guarantee."""
    variables = ssa_vars(function)
    for mode in MODES:
        oracle = manager.dominterf(function, mode)
        fresh = KillRules(SSAInterference(function), mode=mode)
        index = oracle.liveness.index
        for a, b in pair_stream(variables):
            for x, y in ((a, b), (b, a)):
                kills = oracle.variable_kills(x, y)
                assert kills == fresh.variable_kills(x, y), \
                    (function.name, mode, x, y)
                assert oracle.strongly_interfere(x, y) \
                    == fresh.strongly_interfere(x, y), \
                    (function.name, mode, x, y)
                if kills:
                    slot = index.get(y)
                    assert slot is not None and \
                        (oracle.kill_candidates_mask(x) >> slot) & 1, \
                        "kill_candidates_mask must be a superset"


def assert_reference_agrees(function):
    """The fuzz harness's bulk KillReference vs a fresh KillRules in
    every mode: kill masks and strong answers, both directions of every
    swept pair and every variable against itself."""
    variables = ssa_vars(function)
    reference = KillReference(function, Liveness(function))
    index = reference.liveness.index
    pairs = [(v, v) for v in variables]
    pairs += [(x, y) for a, b in pair_stream(variables)
              for x, y in ((a, b), (b, a))]
    strong = reference.strong_masks()
    for mode in MODES:
        rules = KillRules(SSAInterference(function), mode=mode)
        kills = reference.kill_masks(mode)
        for x, y in pairs:
            assert (kills[x] >> index.get(y)) & 1 \
                == rules.variable_kills(x, y), (function.name, mode, x, y)
            assert (strong[x] >> index.get(y)) & 1 \
                == rules.strongly_interfere(x, y), (function.name, x, y)


def assert_strong_sigs_agree(function, manager, seed):
    """The group-level StrongSig test vs the pairwise reference on a
    random partition of the variables."""
    variables = ssa_vars(function)
    if len(variables) < 2:
        return
    rng = random.Random(seed)
    n_groups = rng.randint(2, max(2, len(variables) // 2))
    groups: list = [[] for _ in range(n_groups)]
    for v in variables:
        groups[rng.randrange(n_groups)].append(v)
    groups = [g for g in groups if g]
    oracle = manager.dominterf(function)

    def group_sig(group):
        sig = EMPTY_SIG
        for member in group:
            member_sig = oracle.strong_sig(member)
            if member_sig is not EMPTY_SIG:
                sig = sig.merged(member_sig) if sig is not EMPTY_SIG \
                    else member_sig
        return sig

    sigs = [group_sig(g) for g in groups]
    for i, group_a in enumerate(groups):
        for j in range(i + 1, len(groups)):
            group_b = groups[j]
            expected = any(oracle.strongly_interfere(x, y)
                           for x in group_a for y in group_b)
            assert sigs[i].interferes(sigs[j]) == expected, \
                (function.name, group_a, group_b)
            assert sigs[j].interferes(sigs[i]) == expected


def check_function(function, seed=0):
    manager = AnalysisManager()
    assert_interfere_agrees(function, manager)
    assert_kill_rules_agree(function, manager)
    assert_reference_agrees(function)
    assert_strong_sigs_agree(function, manager, seed)


# ----------------------------------------------------------------------
# Kernels and LAI suites
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name,src,_runs", KERNELS,
                         ids=[k[0] for k in KERNELS])
def test_kernels_agree(name, src, _runs):
    module = parse_module(src, name=name)
    for seed, function in enumerate(module.iter_functions()):
        ensure_ssa(function)
        check_function(function, seed)


@pytest.mark.parametrize("suite_name",
                         [s.name for s in all_suites()])
def test_lai_suites_agree(suite_name):
    suite = next(s for s in all_suites() if s.name == suite_name)
    for seed, function in enumerate(suite.module.iter_functions()):
        function = function.copy()
        ensure_ssa(function)
        manager = AnalysisManager()
        assert_interfere_agrees(function, manager)
        assert_kill_rules_agree(function, manager)
        assert_reference_agrees(function)
        assert_strong_sigs_agree(function, manager, seed)


# ----------------------------------------------------------------------
# Synthetic programs (hypothesis)
# ----------------------------------------------------------------------

@given(seed=st.integers(0, 2**30))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_agree(seed):
    config = SyntheticConfig(n_slots=3, n_regions=4, max_depth=2)
    module, _ = generate_module(seed, n_functions=2, config=config,
                                name=f"dominterf{seed}")
    for function in module.iter_functions():
        ensure_ssa(function)
        check_function(function, seed)


# ----------------------------------------------------------------------
# The whole-graph view stays consistent with the oracle
# ----------------------------------------------------------------------

def copy_exempt_pairs(function):
    """Var pairs the Chaitin graph deliberately does not connect: a
    copy destination and its (still live) source."""
    exempt = set()
    for block in function.iter_blocks():
        for instr in block.body:
            if not (instr.is_copy or instr.is_pcopy):
                continue
            for i, op in enumerate(instr.defs):
                src = instr.uses[i].value if instr.is_pcopy \
                    else instr.uses[0].value
                if isinstance(op.value, Var) and isinstance(src, Var):
                    exempt.add(frozenset((op.value, src)))
    return exempt


def test_phi_free_functions_match_whole_graph_view():
    """On phi-free SSA functions the materialized InterferenceGraph is
    the oracle's relation minus the copy refinement: every graph edge is
    an oracle interference, and every oracle interference is either a
    graph edge or an exempted copy pair."""
    checked = 0
    for name, src, _runs in KERNELS:
        module = parse_module(src, name=name)
        for function in module.iter_functions():
            ensure_ssa(function)
            if any(block.phis for block in function.iter_blocks()):
                continue
            checked += 1
            manager = AnalysisManager()
            graph = manager.interference_graph(function)
            oracle = manager.dominterf(function)
            exempt = copy_exempt_pairs(function)
            variables = ssa_vars(function)
            for i, a in enumerate(variables):
                for b in variables[i + 1:]:
                    by_graph = graph.interfere(a, b)
                    by_oracle = oracle.interfere(a, b)
                    if by_graph:
                        assert by_oracle, (name, function.name, a, b)
                    elif by_oracle:
                        assert frozenset((a, b)) in exempt, \
                            (name, function.name, a, b)
    assert checked, "expected at least one phi-free kernel"


def test_oracle_counts_hits_and_misses():
    module = parse_module(KERNELS[0][1], name="counters")
    function = next(iter(module.iter_functions()))
    ensure_ssa(function)
    manager = AnalysisManager()
    oracle = manager.dominterf(function)
    variables = ssa_vars(function)
    a, b = variables[0], variables[1]
    before = manager.oracle_stats.queries
    oracle.interfere(a, b)
    assert manager.oracle_stats.misses > 0
    oracle.interfere(b, a)  # canonicalized key: second probe is a hit
    assert manager.oracle_stats.hits > 0
    assert manager.oracle_stats.queries == before + 2
    stats = manager.stats()
    assert stats["oracle_hits"] == manager.oracle_stats.hits
    assert stats["oracle_misses"] == manager.oracle_stats.misses


# ----------------------------------------------------------------------
# The fuzz harness's reference catches a wrong kill rule
# ----------------------------------------------------------------------

def kills_with_case1_reversed(self, a, b):
    """Case 1 (base mode) with the dominance direction reversed, Case 2
    kept."""
    ssa = self.ssa
    if a != b and ssa.defuse.def_dominates(a, b, ssa.domtree) \
            and ssa.live_at_def(b, a):
        return True
    site = ssa.defuse.def_site(a)
    slot = ssa.liveness.index.get(b)
    return site is not None and site.is_phi and slot is not None \
        and (self._phi_kill_mask(a) >> slot) & 1 == 1


_STRONG = KillRules._strongly_interfere


def strong_without_case3(self, a, b):
    """Two phis of different blocks never interfere: Case 3 missed."""
    site_a = self.ssa.defuse.def_site(a)
    site_b = self.ssa.defuse.def_site(b)
    if site_a is not None and site_b is not None and site_a.is_phi \
            and site_b.is_phi and site_a.block != site_b.block:
        return False
    return _STRONG(self, a, b)


#: SSA source whose phis sit in single-predecessor blocks, so splitting
#: critical edges leaves the shared predecessor ``entry``: ``x`` and
#: ``y`` strongly interfere by Case 3 (sources ``a`` and ``b`` there),
#: and ``x`` kills ``k`` by Case 2 alone (``k`` is live past the copies
#: at the end of ``entry`` but dead in ``left``).  Without such phis
#: neither case shows in base mode: every program the fuzzer generates
#: has its critical edges split, where a value live past a phi's edge
#: copies is live into the phi's block, and two phi blocks never share
#: a predecessor.
SHARED_PREDECESSOR = """\
func shared
entry:
    input a, b, c
    make k, 5
    cbr c, left, right
left:
    x = phi(a:entry)
    add s, x, 1
    ret s
right:
    y = phi(b:entry)
    add t, y, k
    ret t
endfunc
"""


def seeded_functions():
    """The witness above and the functions of fuzz seed 0 of two
    profiles."""
    yield from parse_module(SHARED_PREDECESSOR).iter_functions()
    for profile in ("default", "swap-webs"):
        source = generate_module_source(0, 3, profile_config(profile),
                                        "seeded")
        yield from parse_module(source).iter_functions()


@pytest.mark.parametrize("method,fault,query", [
    # Drops Case 2 from _variable_kills: every phi's kill mask is empty.
    ("_phi_kill_mask", lambda self, a: 0, "kills("),
    ("_variable_kills", kills_with_case1_reversed, "kills("),
    ("_strongly_interfere", strong_without_case3, "strong("),
], ids=["no-case-2", "case-1-reversed", "no-case-3"])
def test_oracle_cross_check_catches_a_wrong_kill_rule(monkeypatch, method,
                                                      fault, query):
    """The oracle under test answers kills/strong through KillRules; a
    wrong rule there must show as mismatches against the reference."""
    functions = list(seeded_functions())
    assert all(oracle_cross_check(f, kill_modes=MODES) == []
               for f in functions)
    monkeypatch.setattr(KillRules, method, fault)
    mismatches = [m for f in functions
                  for m in oracle_cross_check(f, kill_modes=MODES)]
    assert any(m.startswith("shared: ") for m in mismatches), \
        "the witness missed the seeded fault"
    assert all(query in m for m in mismatches), mismatches[:3]


def test_optimistic_mode_sees_case_2_on_generated_programs(monkeypatch):
    """On split-edge programs the phi kill still matters in optimistic
    mode, whose Case 1 reads live-out rather than live-in: the fuzz
    sweep's own programs catch a dropped Case 2 there."""
    monkeypatch.setattr(KillRules, "_phi_kill_mask", lambda self, a: 0)
    functions = list(seeded_functions())[1:]
    assert not any(oracle_cross_check(f) for f in functions)
    assert any(oracle_cross_check(f, kill_modes=("optimistic",))
               for f in functions)
