"""Throughput suite over the mass-generated fuzz corpus.

The differential harness's generator (see docs/fuzzing.md) can emit
arbitrarily many functions per module; this benchmark compiles one
large generated module -- ``REPRO_FUZZ_CORPUS_FUNCTIONS`` functions,
default 1000, the nightly fuzz job runs 10000 -- through the paper's
full constrained pipeline three ways:

* serially,
* as one plan on a ``--jobs`` worker pool (:mod:`repro.parallel`),
* against a fully warm persistent cache (:mod:`repro.cache`),

and gates the determinism contract at that scale: all three outputs
must be byte-identical (``test_outputs_identical``), the real-scale
version of the fuzzer's per-seed ``parallel``/``cache`` checks.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_fuzz_corpus.py \
        --benchmark-only -s [--jobs 4]
"""

import os
import shutil
import tempfile

import pytest

from repro.benchgen.synthetic import SyntheticConfig, generate_module
from repro.cache import CompilationCache
from repro.ir.printer import format_module
from repro.pipeline import run_experiment

EXPERIMENT = "Lphi,ABI+C"
N_FUNCTIONS = int(os.environ.get("REPRO_FUZZ_CORPUS_FUNCTIONS", "1000"))

#: Medium call-heavy functions, the SPECint-style shape at fuzz scale.
CORPUS_CONFIG = SyntheticConfig(n_slots=5, n_regions=5, max_depth=2,
                                loop_prob=0.25, if_prob=0.4,
                                shuffle_prob=0.15, tied_prob=0.2,
                                call_prob=0.3)


@pytest.fixture(scope="module")
def corpus_module():
    module, _ = generate_module(991, n_functions=N_FUNCTIONS,
                                config=CORPUS_CONFIG,
                                name="fuzz_corpus")
    return module


@pytest.fixture(scope="module")
def warm_cache_dir(corpus_module):
    path = tempfile.mkdtemp(prefix="repro-fuzz-corpus-cache-")
    run_experiment(corpus_module, EXPERIMENT, jobs=1,
                   cache=CompilationCache(path))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_throughput_serial(benchmark, corpus_module):
    benchmark.pedantic(run_experiment,
                       args=(corpus_module, EXPERIMENT),
                       kwargs={"jobs": 1},
                       rounds=2, iterations=1, warmup_rounds=1)


def test_throughput_jobs(benchmark, corpus_module, jobs):
    if jobs <= 1:
        pytest.skip("pass --jobs N>1 to measure the pool path")
    benchmark.pedantic(run_experiment,
                       args=(corpus_module, EXPERIMENT),
                       kwargs={"jobs": jobs},
                       rounds=2, iterations=1, warmup_rounds=1)


def test_throughput_cache_warm(benchmark, corpus_module,
                               warm_cache_dir):
    benchmark.pedantic(
        run_experiment, args=(corpus_module, EXPERIMENT),
        kwargs={"jobs": 1, "cache": CompilationCache(warm_cache_dir)},
        rounds=2, iterations=1, warmup_rounds=1)


def test_outputs_identical(corpus_module, warm_cache_dir, jobs):
    """serial == --jobs N == cache-warm, byte for byte, at corpus
    scale."""
    from repro.parallel import fork_available

    serial = run_experiment(corpus_module, EXPERIMENT, jobs=1)
    reference = format_module(serial.module)

    warm = run_experiment(corpus_module, EXPERIMENT, jobs=1,
                          cache=CompilationCache(warm_cache_dir))
    assert format_module(warm.module) == reference
    assert warm.cache.get("hits") == len(corpus_module.functions)
    assert warm.moves == serial.moves

    if fork_available():
        pooled = run_experiment(corpus_module, EXPERIMENT,
                                jobs=jobs if jobs > 1 else 2)
        assert format_module(pooled.module) == reference
        assert pooled.moves == serial.moves
