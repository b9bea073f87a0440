"""The differential fuzzing harness (src/repro/fuzz/).

Two layers of coverage:

* **Tier-1 smoke** -- always on: a handful of seeds through every
  check, the minimizer machinery on synthetic predicates and repro-file
  round-trips.  Fast enough for the default test run.
* **Mass sweeps** -- ``@pytest.mark.fuzz``, skipped unless ``--fuzz``
  or ``REPRO_FUZZ=1``: the print->parse->print round-trip property and
  the interpreter-equivalence property over >= 500 seeded programs
  (the ISSUE's floor), cycling through every generator profile.
"""

import os
import signal
import tempfile
import time

import pytest

import repro.fuzz.differential as differential
import repro.parallel as parallel
import repro.pipeline as pipeline
from repro.benchgen.synthetic import (FUZZ_PROFILES, SyntheticConfig,
                                      generate_module_source,
                                      profile_config, verify_runs)
from repro.fuzz import (ALL_CHECKS, Divergence, check_module, check_seed,
                        divergence_predicate, load_regression, minimize,
                        oracle_cross_check, run_fuzz, write_regression)
from repro.ir.printer import format_module
from repro.lai import parse_module
from repro.parallel import WorkerPool, fork_available

#: Small-but-representative generator shape for smoke tests.
SMOKE = SyntheticConfig(n_slots=4, n_regions=4, max_depth=2)


def _program(seed, profile="default", n_functions=2, config=None):
    config = config or profile_config(profile)
    name = f"t_{profile.replace('-', '_')}_{seed}"
    source = generate_module_source(seed, n_functions, config, name)
    return source, verify_runs(seed, n_functions, config, name)


# ----------------------------------------------------------------------
# Tier-1 smoke
# ----------------------------------------------------------------------
def test_check_seed_clean_program_passes_every_check():
    result = check_seed(0, "default", 2, config=SMOKE,
                        checks=ALL_CHECKS, jobs=2)
    assert result.ok, [d.describe() for d in result.divergences]
    # every composition and variant produced a move count
    assert set(result.moves) >= {"Lphi+C", "C", "naiveABI+C",
                                 "Lphi,ABI+C[depth]"}


def test_check_module_reports_unparseable_source():
    result = check_module("func broken\n", [])
    assert not result.ok
    assert result.divergences[0].check == "roundtrip"
    assert result.divergences[0].kind == "LaiSyntaxError"


def test_check_module_reports_reference_failure():
    # load from a never-written address: the reference interpretation
    # itself fails, which the harness pins on the generator, not the
    # pipeline.
    source = ("func f\n"
              "    input a\n"
              "    load b, a\n"
              "    ret b\n"
              "endfunc\n")
    result = check_module(source, [("f", [1234])],
                          checks=("compositions",))
    assert not result.ok
    assert "reference run failed" in result.divergences[0].detail


def test_run_fuzz_aggregates_and_time_boxes():
    report = run_fuzz(range(2), profiles=("default",), n_functions=2,
                      checks=("roundtrip", "compositions",
                              "invariants"),
                      experiments=("Lphi,ABI+C", "LABI+C",
                                   "naiveABI+C", "Lphi+C", "C"),
                      jobs=1)
    assert report.seeds == 2 and report.programs == 2
    assert report.move_totals.get("Lphi,ABI+C", 0) >= 0
    boxed = run_fuzz(range(50), profiles=("default",), n_functions=1,
                     checks=("roundtrip",), max_seconds=0.0)
    assert boxed.timed_out and boxed.seeds == 1


def test_oracle_cross_check_clean_on_generated_function():
    source, _ = _program(7, n_functions=1, config=SMOKE)
    module = parse_module(source)
    for function in module.iter_functions():
        assert oracle_cross_check(function) == []


# ----------------------------------------------------------------------
# Minimizer
# ----------------------------------------------------------------------
def test_minimize_shrinks_to_the_predicate_core():
    # Failure predicate: "program still contains an xor" -- the
    # minimizer must strip everything else (calls, loops, whole
    # functions) and keep a parseable witness.
    config = SyntheticConfig(n_slots=5, n_regions=6, max_depth=2,
                             call_prob=0.3)
    source, verify = _program(3, n_functions=3, config=config)
    assert " xor " in source.replace("\n", " ")

    def predicate(text, _verify):
        parse_module(text)  # must stay well-formed
        return "xor" in text

    result = minimize(source, verify, predicate)
    assert "xor" in result.source
    assert result.functions == 1
    before = sum(len(b.phis) + len(b.body)
                 for f in parse_module(source).iter_functions()
                 for b in f.iter_blocks())
    assert result.instructions < before / 2
    assert result.checks > 0 and result.accepted > 0


def test_minimize_refuses_non_reproducing_input():
    source, verify = _program(1, n_functions=1, config=SMOKE)
    with pytest.raises(ValueError):
        minimize(source, verify, lambda text, v: False)


def test_minimize_respects_check_budget():
    source, verify = _program(5, n_functions=3, config=SMOKE)
    result = minimize(source, verify,
                      lambda text, v: True, max_checks=5)
    assert result.checks <= 5


def test_divergence_predicate_false_on_healthy_program():
    source, verify = _program(11, n_functions=2, config=SMOKE)
    divergence = Divergence("compositions", "Lphi,ABI+C", "behaviour",
                            "made up")
    assert divergence_predicate(divergence, jobs=1)(source, verify) \
        is False


# ----------------------------------------------------------------------
# Repro files and corpora
# ----------------------------------------------------------------------
def test_regression_file_round_trip(tmp_path):
    source, verify = _program(9, n_functions=2, config=SMOKE)
    divergence = Divergence("compositions", "Lphi,ABI+C", "behaviour",
                            "f0 changed observable trace",
                            seed=9, profile="default")
    path = tmp_path / "repro.lai"
    write_regression(path, source, verify, divergence)
    loaded = load_regression(path)
    assert loaded.source == source
    assert loaded.verify == [(fn, list(args)) for fn, args in verify]
    assert loaded.check == "compositions"
    assert loaded.composition == "Lphi,ABI+C"
    assert loaded.kind == "behaviour"
    assert loaded.seed == 9 and loaded.profile == "default"
    assert loaded.divergence().key() == divergence.key()
    # the program inside replays bit-identically
    assert format_module(parse_module(loaded.source)) \
        == format_module(parse_module(source))


# ----------------------------------------------------------------------
# The pooled path: ``oracle``, ``parallel`` and ``cache`` run in the
# pool's workers
# ----------------------------------------------------------------------
fork_only = pytest.mark.skipif(not fork_available(),
                               reason="WorkerPool needs the fork start "
                                      "method")


def _outcome(result):
    return result.divergences, result.moves, result.functions


@fork_only
def test_pooled_check_module_equals_serial():
    programs = [_program(seed, profile, n_functions=2)
                for seed, profile in ((0, "default"), (1, "irreducible"),
                                      (2, "swap-webs"))]
    serial = [check_module(source, verify, jobs=2)
              for source, verify in programs]
    with WorkerPool(2) as pool:
        pooled = [check_module(source, verify, jobs=2, pool=pool)
                  for source, verify in programs]
        assert pool.respawns == 0
    assert [_outcome(r) for r in pooled] == [_outcome(r) for r in serial]
    assert all(result.moves for result in serial)


@fork_only
def test_pooled_injected_failures_keep_their_order(monkeypatch):
    original_oracle = differential.oracle_cross_check
    original_run = differential.run_experiment

    def mismatching_oracle(function, *args, **kwargs):
        return original_oracle(function, *args, **kwargs) \
            + [f"{function.name}: injected"]

    def skewed_run(module, name, **kwargs):
        result = original_run(module, name, **kwargs)
        if kwargs.get("cache") is not None:  # the cache check's runs
            del result.module.functions[next(iter(result.module.functions))]
        return result

    monkeypatch.setattr(differential, "oracle_cross_check",
                        mismatching_oracle)
    monkeypatch.setattr(differential, "run_experiment", skewed_run)
    source, verify = _program(4, n_functions=2, config=SMOKE)
    serial = check_module(source, verify, jobs=2)
    with WorkerPool(2) as pool:  # forks at its first submission
        pooled = check_module(source, verify, jobs=2, pool=pool)
    assert _outcome(pooled) == _outcome(serial)
    divergences = pooled.divergences
    assert len(set(divergences)) == len(divergences)
    assert [(d.check, d.kind) for d in divergences] == \
        [("oracle", "mismatch")] * 2 + [("cache", "mismatch")] * 2


def _wait_for(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path.name} never appeared")
        time.sleep(0.005)


@fork_only
def test_pooled_check_survives_a_killed_worker(monkeypatch, tmp_path):
    """A worker dies while the ``parallel`` task is in flight: the pool
    is respawned once and every check the death took down is
    resubmitted to it; none reruns in the parent."""
    parent = os.getpid()
    source, verify = _program(5, n_functions=2, config=SMOKE)
    serial = check_module(source, verify, jobs=2)
    started, died = tmp_path / "plan-started", tmp_path / "oracle-died"
    original_oracle = differential.oracle_cross_check
    original_plan = pipeline.run_plan

    def dying_oracle(function, *args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError("parent ran the oracle")
        if not died.exists():  # the first run dies, once the plan runs
            _wait_for(started)
            died.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return original_oracle(function, *args, **kwargs)

    def waiting_plan(jobs, verify, tracers, cache, target, prefix=None):
        if os.getpid() != parent and cache is None:  # the parallel check
            started.touch()
            _wait_for(died)
        return original_plan(jobs, verify, tracers, cache, target, prefix)

    monkeypatch.setattr(differential, "oracle_cross_check", dying_oracle)
    monkeypatch.setattr(pipeline, "run_plan", waiting_plan)
    # The other worker dies with the pool, maybe mid cache round trip.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    submitted = []
    with WorkerPool(2) as pool:
        submit = pool.submit

        def recording_submit(task, *args):
            submitted.append(task.__name__)
            return submit(task, *args)

        monkeypatch.setattr(pool, "submit", recording_submit)
        pooled = check_module(source, verify, jobs=2, pool=pool)
        assert pool.respawns == 1
        assert pool.ping()
    assert _outcome(pooled) == _outcome(serial)
    assert serial.ok, [d.describe() for d in serial.divergences]
    tasks = {"_oracle_mismatches", "_compile_plan", "_cache_round_trip"}
    first, again = submitted[:3], submitted[3:]
    assert set(first) == tasks
    # Each check at most once more: the oracle and the parallel task were
    # still running at the death, the cache task may have finished.
    assert {"_oracle_mismatches", "_compile_plan"} <= set(again) <= tasks
    assert len(set(again)) == len(again)


@fork_only
def test_pooled_parallel_check_runs_in_a_worker(monkeypatch):
    def crashing_parallel(*args, **kwargs):
        raise RuntimeError("parent ran the parallel check")

    source, verify = _program(6, n_functions=2, config=SMOKE)
    with WorkerPool(2) as pool:
        assert pool.warm()  # workers keep the real run_phases_parallel
        monkeypatch.setattr(parallel, "run_phases_parallel",
                            crashing_parallel)
        pooled = check_module(source, verify, jobs=2, pool=pool)
        assert pool.respawns == 0
    assert pooled.ok, [d.describe() for d in pooled.divergences]


@fork_only
def test_parallel_check_runs_on_one_function_programs(monkeypatch):
    """The ``parallel`` check compares a one-function program too: an
    output skewed in the worker is reported, pooled and serial."""
    parent = os.getpid()
    original_plan = pipeline.run_plan

    def skewed_plan(jobs, verify, tracers, cache, target, prefix=None):
        results = original_plan(jobs, verify, tracers, cache, target,
                                prefix)
        if os.getpid() != parent and cache is None:  # the parallel check
            for result in results:
                result.module.functions.clear()
        return results

    monkeypatch.setattr(pipeline, "run_plan", skewed_plan)
    source, verify = _program(8, n_functions=1, config=SMOKE)
    assert len(parse_module(source).functions) == 1
    serial = check_module(source, verify, jobs=2)
    with WorkerPool(2) as pool:
        pooled = check_module(source, verify, jobs=2, pool=pool)
    assert _outcome(pooled) == _outcome(serial)
    assert [(d.check, d.kind) for d in pooled.divergences] == \
        [("parallel", "mismatch")]


@fork_only
def test_pooled_oracle_check_runs_in_a_worker(monkeypatch):
    def crashing_oracle(function, *args, **kwargs):
        raise RuntimeError("parent ran the oracle")

    source, verify = _program(6, n_functions=2, config=SMOKE)
    with WorkerPool(2) as pool:
        assert pool.warm()  # workers keep the real oracle_cross_check
        monkeypatch.setattr(differential, "oracle_cross_check",
                            crashing_oracle)
        pooled = check_module(source, verify, jobs=2, pool=pool)
    serial = check_module(source, verify, jobs=2)
    assert pooled.ok, [d.describe() for d in pooled.divergences]
    assert {(d.check, d.kind) for d in serial.divergences} == \
        {("oracle", "mismatch")}
    assert all("parent ran the oracle" in d.detail
               for d in serial.divergences)


# ----------------------------------------------------------------------
# Mass sweeps (>= 500 programs each; --fuzz / REPRO_FUZZ=1 only)
# ----------------------------------------------------------------------
SWEEP_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "75"))
PROFILES = tuple(FUZZ_PROFILES)  # 7 profiles x 75 seeds = 525 programs


@pytest.mark.fuzz
@pytest.mark.parametrize("profile", PROFILES)
def test_mass_round_trip_property(profile):
    """print -> parse -> print is a fixpoint on every seeded program."""
    for seed in range(SWEEP_SEEDS):
        source, _ = _program(seed, profile, n_functions=2)
        printed = format_module(parse_module(source))
        assert format_module(parse_module(printed)) == printed, \
            (profile, seed)


@pytest.mark.fuzz
@pytest.mark.parametrize("profile", PROFILES)
def test_mass_interpreter_equivalence_property(profile):
    """Every composition preserves the observable traces, and the
    sweep respects the paper's aggregate move relations."""
    report = run_fuzz(range(SWEEP_SEEDS), profiles=(profile,),
                      n_functions=2,
                      checks=("compositions", "variants", "invariants"),
                      jobs=1)
    assert report.ok, (
        [d.describe() for f in report.failures
         for d in f.divergences][:10]
        + [d.describe() for d in report.aggregate_violations])
    assert report.programs == SWEEP_SEEDS
