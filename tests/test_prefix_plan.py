"""Shared phase prefixes (``repro.pipeline.PrefixPlan``).

A plan runs each phase prefix shared by a fixed sequence of runs once
and lets later runs resume from a stored state.  The contract under
test: every run of a plan produces exactly what the same run produces
on its own -- module text, paper metrics, ``phase_stats`` and, under a
recording tracer, the whole stats ``result`` block and its digest --
whatever failed before it, whatever a caller did to an earlier result,
and with every stored state released once its last consumer ran.
"""

import dataclasses

import pytest

import repro.fuzz.differential as differential
import repro.pipeline as pipeline
from repro.benchgen.synthetic import (FUZZ_PROFILES, generate_module_source,
                                      profile_config, verify_runs)
from repro.cache import CompilationCache
from repro.fuzz import check_module
from repro.ir.printer import format_module
from repro.lai import parse_module
from repro.machine.st120 import ST120
from repro.observability import Tracer
from repro.observability.statdiff import stats_digest
from repro.pipeline import (EXPERIMENTS, PrefixPlan, run_experiment,
                            run_phases, table5_variants)

#: The fuzz harness's runs: every composition, then every Table 5
#: variant of the anchor, as ``(label, experiment, options)``.
RUNS = [(name, name, None) for name in EXPERIMENTS] + [
    (f"Lphi,ABI+C[{label}]", "Lphi,ABI+C", options)
    for label, options in table5_variants().items()]


def _program(seed, profile):
    config = profile_config(profile)
    name = f"plan_{profile.replace('-', '_')}_{seed}"
    return (generate_module_source(seed, 2, config, name),
            verify_runs(seed, 2, config, name))


def _plan():
    return PrefixPlan([(EXPERIMENTS[name], options)
                       for _, name, options in RUNS])


def _view(result):
    """What a run must reproduce, shared or not."""
    view = (format_module(result.module), result.moves, result.weighted,
            result.instructions, repr(result.phase_stats))
    if result.tracer.enabled:
        document = result.to_stats()
        view += (document["result"], stats_digest(document))
    return view


def _alone(module, name, options, verify, traced):
    return _view(run_experiment(module, name, options=options,
                                verify=verify, jobs=1,
                                tracer=Tracer() if traced else None))


@pytest.mark.parametrize("profile", sorted(FUZZ_PROFILES))
def test_shared_runs_equal_unshared_runs(profile):
    source, verify = _program(3, profile)
    module = parse_module(source)
    for traced in (False, True):
        plan = _plan()
        for _, name, options in RUNS:
            shared = run_experiment(module, name, options=options,
                                    verify=verify, jobs=1, prefix=plan,
                                    tracer=Tracer() if traced else None)
            assert _view(shared) == \
                _alone(module, name, options, verify, traced), name
        assert not plan.states, "a state outlived its last consumer"


def test_plan_shares_the_prefix_trie():
    """The fuzz harness's 14 runs make 88 phase runs unshared and 32
    shared; the ten Table 1 experiments 60 and 23."""
    calls = []
    original = pipeline._phase_runner

    def counting(phase, *args):
        calls.append(phase)
        return original(phase, *args)

    source, verify = _program(1, "default")
    module = parse_module(source)
    for runs, shared, unshared in ((RUNS, 32, 88),
                                   (RUNS[:len(EXPERIMENTS)], 23, 60)):
        assert sum(len(EXPERIMENTS[name]) for _, name, _ in runs) == \
            unshared
        plan = PrefixPlan([(EXPERIMENTS[name], options)
                           for _, name, options in runs])
        pipeline._phase_runner = counting
        try:
            for _, name, options in runs:
                run_experiment(module, name, options=options,
                               verify=verify, jobs=1, prefix=plan)
        finally:
            pipeline._phase_runner = original
        assert len(calls) == shared
        calls.clear()


@pytest.mark.parametrize("phase_function, failing", [
    # The first pinningABI call is Lphi,ABI+C's: the run that would
    # store the (ssa, copyprop, pinningSP, pinningABI) state for five
    # later runs, after taking the shallower state as its last consumer.
    ("pinning_abi", "Lphi,ABI+C"),
    # The first coalescing call is Lphi+C's, the first run: it stored
    # the (ssa, copyprop, pinningSP) state before failing.
    ("aggressive_coalesce", "Lphi+C"),
])
def test_a_crash_mid_plan_keeps_every_later_run(monkeypatch, phase_function,
                                                failing):
    source, verify = _program(2, "default")
    module = parse_module(source)
    expected = {label: _alone(module, name, options, verify, False)
                for label, name, options in RUNS}
    clean = check_module(source, verify, jobs=1)
    assert clean.ok, [d.describe() for d in clean.divergences]

    original = getattr(pipeline, phase_function)
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("injected phase failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, phase_function, failing_once)
    plan = _plan()
    for label, name, options in RUNS:
        try:
            result = run_experiment(module, name, options=options,
                                    verify=verify, jobs=1, prefix=plan)
        except RuntimeError:
            assert label == failing
            continue
        assert _view(result) == expected[label], label
    assert not plan.states

    # Through the harness: the failing composition keeps its slot and
    # every other move count is the clean run's.
    calls.clear()
    crashed = check_module(source, verify, jobs=1)
    assert [(d.check, d.composition, d.kind)
            for d in crashed.divergences] == \
        [("compositions", failing, "RuntimeError")]
    assert crashed.moves == {label: moves
                             for label, moves in clean.moves.items()
                             if label != failing}


def test_results_do_not_alias_stored_states():
    source, verify = _program(4, "swap-webs")
    module = parse_module(source)
    plan = _plan()
    for _, name, options in RUNS:
        result = run_experiment(module, name, options=options,
                                verify=verify, jobs=1, prefix=plan)
        assert _view(result) == _alone(module, name, options, verify,
                                       False), name
        # Wreck the returned module: no later run may see it.
        for function in result.module.iter_functions():
            for block in function.iter_blocks():
                block.phis.clear()
                block.body.clear()
    assert not plan.states


def test_harness_releases_each_result(monkeypatch):
    """check_module drops its reference to a run's result before the
    next run starts."""
    import gc
    import weakref

    alive = []
    original = differential.run_experiment

    def watched(module, name, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in alive)
        result = original(module, name, **kwargs)
        alive.append(weakref.ref(result))
        return result

    monkeypatch.setattr(differential, "run_experiment", watched)
    source, verify = _program(0, "default")
    result = check_module(source, verify, checks=("compositions",
                                                  "variants"), jobs=1)
    assert result.ok and len(result.moves) == len(RUNS)


class TestBinding:
    @pytest.fixture
    def bound(self):
        source, verify = _program(5, "default")
        module = parse_module(source)
        plan = _plan()
        run_experiment(module, RUNS[0][1], verify=verify, jobs=1,
                       prefix=plan)
        return module, verify, plan

    @pytest.mark.parametrize("change", [
        "module", "verify", "target", "tracer"])
    def test_mismatched_binding_raises(self, bound, change):
        module, verify, plan = bound
        kwargs = dict(module=module, verify=verify, target=ST120,
                      tracer=None)
        kwargs[change] = {
            "module": module.copy(),
            "verify": verify[:-1],
            "target": dataclasses.replace(ST120, name="other"),
            "tracer": Tracer(),
        }[change]
        module = kwargs.pop("module")
        with pytest.raises(ValueError, match="bound to one module"):
            run_experiment(module, RUNS[1][1], jobs=1, prefix=plan,
                           **kwargs)

    def test_run_out_of_order_raises(self, bound):
        module, verify, plan = bound
        with pytest.raises(ValueError, match="run 1 of the prefix plan"):
            run_experiment(module, "LABI", verify=verify, jobs=1,
                           prefix=plan)

    def test_run_beyond_the_plan_raises(self):
        source, verify = _program(5, "default")
        module = parse_module(source)
        plan = PrefixPlan([(EXPERIMENTS["C"], None)])
        run_experiment(module, "C", verify=verify, jobs=1, prefix=plan)
        with pytest.raises(ValueError, match="only 1 runs"):
            run_experiment(module, "C", verify=verify, jobs=1, prefix=plan)

    def test_plan_and_cache_exclude_each_other(self, tmp_path):
        source, verify = _program(5, "default")
        module = parse_module(source)
        cache = CompilationCache(str(tmp_path))
        with pytest.raises(ValueError, match="runs uncached"):
            run_phases(module, "C", EXPERIMENTS["C"], cache=cache,
                       prefix=PrefixPlan([(EXPERIMENTS["C"], None)]))
        # run_experiment with a cache runs without the plan.
        plan = PrefixPlan([(EXPERIMENTS["C"], None)])
        result = run_experiment(module, "C", verify=verify, jobs=1,
                                cache=cache, prefix=plan)
        assert result.cache["misses"] == len(module.functions)
        assert not plan.states
