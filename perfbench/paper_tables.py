"""``paper-tables``: LAI text in, phi-free text and Tables 2-5 out.

One op parses a suite's LAI text, runs one Table 1 experiment (or one
non-base Table 5 variant) with the suite's verify replay, and prints
the result with ``format_module``: 5 suites x (10 + 3) = 65 ops, run
serially with no compilation cache.  The seed only shuffles the op
order, so every seed does the same work.
"""

from __future__ import annotations

import random
import time

from repro import lai, pipeline
from repro.benchgen import all_suites
from repro.ir import printer

from checks import check_output, digest
from common import Outcome, self_peak_rss_mb

#: Reference seconds of one 65-op pass (``--seconds`` / this = passes).
NOMINAL_PASS_S = 16.0


def build_inputs() -> list[tuple[str, str, str, list]]:
    """The five suites as ``(suite, module name, LAI text, verify)``."""
    return [(suite.name, suite.module.name,
             printer.format_module(suite.module), suite.verify)
            for suite in all_suites()]


def op_specs() -> list[tuple[str, str, object]]:
    """``(label, experiment, options)``: the 10 Table 1 experiments and
    the 3 non-base Table 5 variants of ``Lphi,ABI+C``."""
    specs = [(name, name, None) for name in pipeline.EXPERIMENTS]
    specs += [(f"Lphi,ABI+C[{variant}]", "Lphi,ABI+C", options)
              for variant, options in pipeline.table5_variants().items()
              if variant != "base"]
    return specs


class PaperTables:
    nominal_pass_s = NOMINAL_PASS_S

    def __init__(self, seed: int, passes: int) -> None:
        self.inputs = build_inputs()
        rng = random.Random(seed)
        self.ops = []
        for _ in range(passes):
            ops = [(suite, spec) for suite in self.inputs
                   for spec in op_specs()]
            rng.shuffle(ops)
            self.ops.extend(ops)

    def measure(self, clock, recorder=None) -> Outcome:
        outcome = Outcome()
        records = []
        for index, ((suite, module_name, text, verify),
                    (label, experiment, options)) in enumerate(self.ops):
            if recorder is not None:
                recorder.op = index
                root = recorder.open("bench.residual", label)
            start = time.perf_counter()
            moves = weighted = output = error = None
            try:
                module = lai.parse_module(text, name=module_name)
                result = pipeline.run_experiment(
                    module, experiment, options=options, verify=verify,
                    jobs=1, cache=None)
                output = printer.format_module(result.module)
                moves, weighted = result.moves, result.weighted
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                error = f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - start
            if recorder is not None:
                recorder.close(root)
            block = clock.close(raw)
            if recorder is not None:
                recorder.blocks[index] = (clock, block)
            records.append((f"{suite}/{label}", module_name, text, verify,
                            moves, weighted, output, error))
        outcome.peak_rss_mb = self_peak_rss_mb()
        outcome.records = records
        return outcome

    def check(self, outcome: Outcome, verdicts) -> None:
        for op_id, module_name, text, verify, moves, weighted, output, \
                error in outcome.records:
            outcome.attempted += 1
            if error is not None:
                outcome.fail(op_id, error)
                continue
            verdict = check_output(verdicts, text, module_name, verify,
                                   output)
            outcome.output_rejects += verdict["rejected"]
            if not verdict["ok"]:
                outcome.fail(op_id, verdict["detail"])
                continue
            outcome.moves += moves
            outcome.weighted_moves += weighted
            outcome.generated_steps += verdict["steps"]
            outcome.digests[op_id] = digest(output)

    def close(self) -> None:
        pass


def setup_child(seed: int) -> None:
    """The set-up a user pays before the first op: imports (done by
    the caller's import of this module) and the suites' LAI text."""
    build_inputs()
