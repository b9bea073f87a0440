"""``fuzz-sweep``: one differential fuzzing sweep.

``run_fuzz`` over a fixed block of generator seeds x all seven
``FUZZ_PROFILES``, with every check and ``jobs=2`` (the CLI default of
4 is more than the 2 cores the bounds were set on).  The block is fixed
because program size varies a lot by generator seed: 7-program sweeps
of generator seeds 0-12 took 7.7-17.9 s on one host, so a seed-chosen
block would measure the draw, not the program.  The benchmark seed
shuffles the order of seeds and of profiles.

Besides the harness's own divergences, every composition's output is
read back and replayed on the reference interpreter (``checks``), which
also gives the sweep's ``generated_steps``.
"""

from __future__ import annotations

import random
import time

import repro.fuzz.differential as differential
from repro.benchgen.synthetic import (FUZZ_PROFILES, generate_module_source,
                                      profile_config, verify_runs)
from repro.ir.printer import format_module

from checks import check_output, digest
from common import Outcome, self_peak_rss_mb

#: Generator seeds of one sweep (x 7 profiles = 21 programs).
FUZZ_SEEDS = (0, 1, 3)
N_FUNCTIONS = 3
JOBS = 2
NOMINAL_PASS_S = 22.0


class FuzzSweep:
    nominal_pass_s = NOMINAL_PASS_S

    def __init__(self, seed: int, passes: int) -> None:
        rng = random.Random(seed)
        self.seeds = []
        for _ in range(passes):
            block = list(FUZZ_SEEDS)
            rng.shuffle(block)
            self.seeds.extend(block)
        self.profiles = list(FUZZ_PROFILES)
        rng.shuffle(self.profiles)

    def measure(self, clock, recorder=None) -> Outcome:
        """One ``run_fuzz`` call.  Each program is one op, bracketed by
        calibration runs through a wrapper around ``check_seed``, which
        ``run_fuzz`` looks up at call time.  A wrapper around
        ``run_experiment`` prints the output of each composition run
        (the calls that pass ``options``; the parallel and cache checks'
        re-runs do not) for :meth:`check`.  Printing is left out of the
        op's time (span ``bench.capture`` in the traced run), and only
        the text is kept, so the sweep's peak RSS stays its own."""
        outcome = Outcome()
        original = differential.check_seed
        original_run = differential.run_experiment
        programs = []
        #: program index -> [(experiment, weighted moves, module name,
        #: output text)] of its compositions.
        experiments: dict = {}
        captured = [0.0]  # seconds spent printing in the current op

        def kept_run_experiment(*args, **kwargs):
            result = original_run(*args, **kwargs)
            if "options" in kwargs:
                if recorder is not None:
                    span = recorder.open("bench.capture")
                start = time.perf_counter()
                output = format_module(result.module)
                captured[0] += time.perf_counter() - start
                if recorder is not None:
                    recorder.close(span)
                experiments.setdefault(len(programs), []).append(
                    (result.name, result.weighted, result.module.name,
                     output))
            return result

        def timed_check_seed(*args, **kwargs):
            index = len(programs)
            captured[0] = 0.0
            if recorder is not None:
                recorder.op = index
                root = recorder.open("bench.residual")
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                raw = time.perf_counter() - start - captured[0]
                if recorder is not None:
                    recorder.close(root)
            block = clock.close(raw)
            if recorder is not None:
                recorder.blocks[index] = (clock, block)
            programs.append(result)
            return result

        differential.check_seed = timed_check_seed
        differential.run_experiment = kept_run_experiment
        try:
            report = differential.run_fuzz(
                self.seeds, self.profiles, N_FUNCTIONS,
                checks=differential.ALL_CHECKS, jobs=JOBS)
        finally:
            differential.check_seed = original
            differential.run_experiment = original_run
        outcome.peak_rss_mb = self_peak_rss_mb()
        outcome.records = [report, programs, experiments]
        return outcome

    def check(self, outcome: Outcome, verdicts) -> None:
        report, programs, experiments = outcome.records
        divergences = 0
        for index, result in enumerate(programs):
            op_id = f"{result.profile}/{result.seed}"
            outcome.attempted += 1
            for divergence in result.divergences:
                outcome.fail(op_id, divergence.describe())
            divergences += len(result.divergences)
            outputs = []
            for name, weighted, module_name, output in \
                    experiments.get(index, []):
                verdict = check_output(verdicts, result.source,
                                       module_name, result.verify, output)
                outcome.output_rejects += verdict["rejected"]
                if not verdict["ok"]:
                    outcome.fail(op_id, f"[{name}] {verdict['detail']}")
                    continue
                outcome.weighted_moves += weighted
                outcome.generated_steps += verdict["steps"]
                outputs.append(output)
            outcome.digests[op_id] = digest(
                result.source, repr(sorted(result.moves.items())),
                repr([d.describe() for d in result.divergences]),
                *outputs)
        outcome.attempted += 1  # the sweep-level aggregate invariants
        for violation in report.aggregate_violations:
            outcome.fail("aggregate", violation.describe())
        divergences += len(report.aggregate_violations)
        outcome.moves = sum(report.move_totals.values())
        outcome.layers["fuzz.divergences"] = divergences

    def close(self) -> None:
        pass


def setup_child(seed: int) -> None:
    """Imports, and the sweep's programs and verify runs."""
    for fuzz_seed in FUZZ_SEEDS:
        for profile in FUZZ_PROFILES:
            config = profile_config(profile)
            name = f"fuzz_{profile.replace('-', '_')}_{fuzz_seed}"
            generate_module_source(fuzz_seed, N_FUNCTIONS, config, name)
            verify_runs(fuzz_seed, N_FUNCTIONS, config, name)
