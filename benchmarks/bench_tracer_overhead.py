"""Observability overhead guard: the null tracer must be free.

``run_phases`` installs :data:`~repro.observability.NULL_TRACER` when
no tracer is passed; the design contract (docs/observability.md) is
that the uninstrumented pipeline pays only pointer comparisons -- no
snapshots, no record allocation, no counter dictionaries.  Two angles:

* ``test_null_tracer_timing`` / ``test_recording_tracer_timing`` /
  ``test_tracing_cost_report`` benchmark the same experiment with and
  without the recording tracer and print the measured instrumentation
  cost, so regressions show up in the pytest-benchmark history next to
  ``bench_compile_time.py`` (whose numbers *are* the null path and
  must stay within noise of the seed).
* the structural zero-overhead proof -- that the null path never calls
  the per-phase snapshot machinery at all -- lives in
  ``tests/test_observability.py`` and runs with the tier-1 suite.
"""

import time

import pytest

from repro.interp import CompiledInterpreter
from repro.observability import Tracer
from repro.pipeline import run_experiment

SUITE_NAME = "VALcc1"
EXPERIMENT = "Lphi,ABI+C"
INTERP_SUITE = "LAI_Large"


def _median_seconds(fn, rounds=5):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def test_null_tracer_timing(benchmark, suites):
    suite = suites[SUITE_NAME]
    benchmark.pedantic(run_experiment, args=(suite.module, EXPERIMENT),
                       rounds=3, iterations=1, warmup_rounds=1)


def test_recording_tracer_timing(benchmark, suites):
    suite = suites[SUITE_NAME]
    benchmark.pedantic(
        lambda: run_experiment(suite.module, EXPERIMENT, tracer=Tracer()),
        rounds=3, iterations=1, warmup_rounds=1)


def test_tracing_cost_report(benchmark, suites, capsys):
    """Print the null-vs-recording ratio; fail only on gross blowups.

    The recording tracer legitimately costs something (per-phase IR
    snapshots, span/event records); the guard is that it stays within
    a small integer factor, i.e. tracing is always-affordable, and --
    by implication -- the null path the other benchmarks measure isn't
    silently doing the recording tracer's work.
    """
    run_once_noop = lambda: None
    benchmark.pedantic(run_once_noop, rounds=1, iterations=1)
    suite = suites[SUITE_NAME]
    null_s = _median_seconds(lambda: run_experiment(suite.module, EXPERIMENT))
    traced_s = _median_seconds(
        lambda: run_experiment(suite.module, EXPERIMENT, tracer=Tracer()))
    ratio = traced_s / null_s
    with capsys.disabled():
        print(f"\nnull tracer: {null_s * 1e3:.1f} ms   "
              f"recording tracer: {traced_s * 1e3:.1f} ms   "
              f"ratio: {ratio:.3f}")
    assert ratio < 3.0, (
        f"recording tracer is {ratio:.2f}x the null pipeline -- "
        f"instrumentation has leaked into a hot loop")


def test_compiled_interp_tracing_cost_report(benchmark, suites, capsys):
    """The compiled interpreter tier pays nothing for the null tracer.

    The tier's per-block work is a handful of list indexing operations,
    so even one tracer probe per block would be a measurable fraction
    of the whole loop -- a much more sensitive canary than the pipeline
    ratio above.  Structurally, a disabled tracer must keep the hot
    loop untouched: no per-block callback is installed and no counter
    is ever looked up (pinned here by a tracer whose counter paths
    explode on contact).  The recording tracer legitimately pays for
    the ``interp.block_entries`` counter bump per block; that must stay
    within a small factor of the free run.
    """
    run_once_noop = lambda: None
    benchmark.pedantic(run_once_noop, rounds=1, iterations=1)
    suite = suites[INTERP_SUITE]

    class _ExplodingNullTracer:
        """enabled=False, but any counter access is a test failure."""
        enabled = False

        def span(self, name, **attrs):
            from repro.observability import NULL_TRACER
            return NULL_TRACER.span(name)

        def count(self, name, value=1):  # pragma: no cover - guard
            raise AssertionError("disabled tracer counted in hot loop")

        def counter(self, name):  # pragma: no cover - guard
            raise AssertionError("disabled tracer counter() in hot loop")

    armed = CompiledInterpreter(suite.module, tracer=_ExplodingNullTracer())
    assert armed._on_block is None, \
        "disabled tracer must not install a per-block callback"
    for fn_name, args in suite.verify:
        armed.run(fn_name, list(args))

    def replay(tracer=None):
        interp = CompiledInterpreter(suite.module, tracer=tracer)
        for fn_name, args in suite.verify:
            interp.run(fn_name, list(args))

    replay()  # warm the code cache out of the measurement
    null_s = _median_seconds(replay)
    traced_s = _median_seconds(lambda: replay(Tracer()))
    ratio = traced_s / null_s
    with capsys.disabled():
        print(f"\ncompiled tier, null tracer: {null_s * 1e3:.1f} ms   "
              f"recording tracer: {traced_s * 1e3:.1f} ms   "
              f"ratio: {ratio:.3f}")
    assert ratio < 3.0, (
        f"recording tracer is {ratio:.2f}x the free compiled tier -- "
        f"instrumentation has leaked into the block dispatch loop")
