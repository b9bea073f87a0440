"""AnalysisManager: epoch-stamped caching, invalidation, preserves."""

import pytest

from repro.analysis import AnalysisManager, Liveness
from repro.machine.constraints import pinning_abi, pinning_sp
from repro.observability import SchemaError, Tracer
from repro.observability.schema import validate_stats
from repro.pipeline import ensure_ssa, run_experiment
from repro.ssa.copyprop import eliminate_dead_code, propagate_copies

from helpers import DIAMOND, function_of, module_of


def ssa_function():
    f = function_of(DIAMOND)
    ensure_ssa(f)
    return f


def test_hit_returns_same_object():
    f = ssa_function()
    manager = AnalysisManager()
    first = manager.liveness(f)
    second = manager.liveness(f)
    assert first is second
    assert manager.stats() == {"hits": 1, "misses": 2,  # liveness+varindex
                               "invalidations": 0, "preserved": 0,
                               "oracle_hits": 0, "oracle_misses": 0}


def test_mutation_rebuilds_stale_analysis():
    f = ssa_function()
    manager = AnalysisManager()
    stale = manager.liveness(f)
    f.bump_epoch()
    manager.invalidate(f)
    rebuilt = manager.liveness(f)
    assert rebuilt is not stale
    assert manager.invalidations == 2  # liveness and its varindex
    assert isinstance(rebuilt, Liveness)


def test_preserves_restamps_instead_of_evicting():
    f = ssa_function()
    manager = AnalysisManager()
    kept = manager.defuse(f)
    f.bump_epoch()
    manager.invalidate(f, preserves={"defuse"})
    assert manager.defuse(f) is kept
    assert manager.invalidations == 0
    assert manager.preserved >= 1


def test_preserves_all_keeps_everything():
    f = ssa_function()
    manager = AnalysisManager()
    live = manager.liveness(f)
    rules = manager.kill_rules(f)
    f.bump_epoch()
    manager.invalidate(f, preserves={"all"})
    assert manager.liveness(f) is live
    assert manager.kill_rules(f) is rules
    assert manager.invalidations == 0


def test_domtree_survives_body_mutation():
    """Dominator trees are stamped with the CFG epoch: a body-level
    rewrite (plain epoch bump) must not evict them, a structural change
    (cfg epoch bump) must."""
    f = ssa_function()
    manager = AnalysisManager()
    tree = manager.domtree(f)
    f.bump_epoch()
    manager.invalidate(f)
    assert manager.domtree(f) is tree
    f.bump_cfg_epoch()
    manager.invalidate(f)
    assert manager.domtree(f) is not tree


def test_pinning_is_not_a_mutation():
    f = ssa_function()
    manager = AnalysisManager()
    live = manager.liveness(f)
    rules = manager.kill_rules(f)
    before = (f.epoch, f.cfg_epoch)
    pinning_sp(f)
    pinning_abi(f, analyses=manager)
    assert (f.epoch, f.cfg_epoch) == before
    manager.invalidate(f, preserves={"all"})
    assert manager.liveness(f) is live
    assert manager.kill_rules(f) is rules


def test_copyprop_bumps_only_when_it_changes_something():
    f = ssa_function()
    epoch = f.epoch
    changed = propagate_copies(f)
    removed = eliminate_dead_code(f)
    if changed or removed:
        assert f.epoch > epoch
    else:
        assert f.epoch == epoch
    # A second run is a no-op on an already-clean function.
    epoch = f.epoch
    assert propagate_copies(f) == 0
    assert eliminate_dead_code(f) == 0
    assert f.epoch == epoch


def test_kill_rules_cached_per_mode():
    f = ssa_function()
    manager = AnalysisManager()
    base = manager.kill_rules(f, "base")
    pess = manager.kill_rules(f, "pessimistic")
    assert base is not pess
    assert manager.kill_rules(f, "base") is base
    assert base.ssa is pess.ssa  # both share the bundled SSA analyses


def test_shared_varindex_backs_liveness_and_graph():
    f = function_of("""
func g
entry:
    input a, b
    add x, a, b
    mul y, x, a
    ret y
endfunc
""")
    manager = AnalysisManager()
    liveness = manager.liveness(f)
    graph = manager.interference_graph(f)
    assert graph._index is liveness.index


def test_manager_counters_reach_stats_only():
    tracer = Tracer()
    manager = AnalysisManager()
    f = ssa_function()
    manager.liveness(f)
    manager.liveness(f)
    f.bump_epoch()
    manager.invalidate(f)
    stats = manager.stats()
    assert (stats["hits"], stats["misses"], stats["invalidations"]) == \
        (1, 2, 2)
    # Analysis traffic is environment, never a tracer counter.
    result = run_experiment(module_of(DIAMOND), "Lphi,ABI+C",
                            tracer=tracer)
    assert result.analysis_cache["misses"] > 0
    assert not any(name.startswith("analysis.")
                   for name in tracer.counters)


def test_pipeline_reuses_analyses_and_reports_cache_stats():
    from repro.benchgen.synthetic import SyntheticConfig, generate_module

    module, _ = generate_module(7, n_functions=2,
                                config=SyntheticConfig(),
                                name="cache_stats")
    tracer = Tracer()
    result = run_experiment(module, "Lphi,ABI+C", tracer=tracer)
    cache = result.analysis_cache
    assert cache["misses"] > 0
    assert cache["hits"] > 0, \
        "pipeline passes must share analyses through the manager"
    doc = result.to_stats()
    assert doc["env"]["analysis_cache"] == cache
    validate_stats(doc)


def test_v1_documents_are_rejected():
    doc = {"schema": "repro.stats/v1.1", "experiment": "x",
           "totals": {"moves": 0, "weighted": 0, "instructions": 0},
           "phases": [], "phase_stats": {}, "counters": {}, "events": 0,
           "analysis_cache": {"hits": 1, "misses": 2,
                              "invalidations": 3, "preserved": 4}}
    with pytest.raises(SchemaError, match="repro.stats/v2"):
        validate_stats(doc)
