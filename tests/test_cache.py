"""The persistent compilation cache: keys, round trips, recovery.

The contract under test is the acceptance bar of the cache
(``src/repro/cache/``, integrated in ``repro.pipeline.run_phases``):

* an identical recompile is a **hit** for every function, and the
  output -- module text, metrics, per-phase stats, decision counters --
  is byte-identical to the cold run;
* changing the input IR or the phase options is a **miss**;
* a truncated or bit-rotten entry is silently recompiled, never an
  error;
* a small size cap triggers LRU **eviction**;
* forked parallel workers share one directory and their counters sum.
"""

import glob
import os

import pytest

from repro.cache import (CACHE_STATS_KEYS, CompilationCache, cache_key,
                         code_version, function_fingerprint,
                         options_fingerprint, resolve_cache)
from repro.ir.printer import format_module
from repro.machine import ST120
from repro.observability import Tracer, validate_stats
from repro.parallel import fork_available
from repro.pipeline import EXPERIMENTS, PhaseOptions, run_experiment

from helpers import DIAMOND, LOOP, SWAP_LOOP, module_of

PROGRAM = DIAMOND + LOOP + SWAP_LOOP

PHASES = EXPERIMENTS["Lphi,ABI+C"]


@pytest.fixture
def module():
    return module_of(PROGRAM)


def entry_files(cache_dir):
    return sorted(glob.glob(os.path.join(str(cache_dir),
                                         "objects", "*", "*.bin")))


class TestKeys:
    def test_deterministic(self, module):
        function = next(iter(module.functions.values()))
        assert cache_key(function, PHASES, None, ST120) == \
            cache_key(function, PHASES, None, ST120)

    def test_ir_change_changes_key(self):
        one = module_of(LOOP).functions["loop"]
        other = module_of(LOOP.replace("add s, s, i",
                                       "sub s, s, i")).functions["loop"]
        assert cache_key(one, PHASES, None, ST120) != \
            cache_key(other, PHASES, None, ST120)

    def test_phase_list_changes_key(self, module):
        function = next(iter(module.functions.values()))
        assert cache_key(function, PHASES, None, ST120) != \
            cache_key(function, EXPERIMENTS["C"], None, ST120)

    def test_options_change_changes_key(self, module):
        function = next(iter(module.functions.values()))
        assert cache_key(function, PHASES, None, ST120) != \
            cache_key(function, PHASES, PhaseOptions(mode="optimistic"),
                      ST120)

    def test_none_options_hash_like_defaults(self):
        assert options_fingerprint(None) == \
            options_fingerprint(PhaseOptions())

    def test_fingerprint_covers_fresh_name_counters(self):
        one = module_of(LOOP).functions["loop"]
        other = module_of(LOOP).functions["loop"]
        other.new_var()
        assert function_fingerprint(one) != function_fingerprint(other)

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)  # a hex digest
        assert len(code_version()) == 64


class TestRoundTrip:
    def test_hit_after_identical_recompile(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        assert cold.cache["hits"] == 0
        assert cold.cache["misses"] == len(module.functions)
        assert cold.cache["stores"] == len(module.functions)
        warm = run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        assert warm.cache["hits"] == len(module.functions)
        assert warm.cache["misses"] == 0
        assert warm.cache["stores"] == 0
        assert format_module(warm.module) == format_module(cold.module)
        assert (warm.moves, warm.weighted, warm.instructions) == \
            (cold.moves, cold.weighted, cold.instructions)
        assert warm.phase_stats == cold.phase_stats

    def test_traced_stats_identical_cold_and_warm(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(module, "Lphi,ABI+C", tracer=Tracer(),
                              cache=cache_dir)
        warm = run_experiment(module, "Lphi,ABI+C", tracer=Tracer(),
                              cache=cache_dir)
        for doc in (cold.to_stats(), warm.to_stats()):
            validate_stats(doc)
            assert doc["env"]["cache"]["hits"] + \
                doc["env"]["cache"]["misses"] == len(module.functions)
        assert warm.to_stats()["result"] == cold.to_stats()["result"]

    def test_entries_hold_only_before_after_records(self, module,
                                                    tmp_path):
        """An entry's ``phases[]`` records keep the measures ``fold``
        reads; every delta is recomputed there, on hit and miss alike."""
        cache = CompilationCache(str(tmp_path / "cache"))
        cold = run_experiment(module, "Lphi,ABI+C", tracer=Tracer(),
                              cache=cache)
        for function in module.iter_functions():
            entry = cache.probe(cache.key(function, PHASES, None, ST120))
            assert [record["phase"] for record in entry["phases"]] == \
                list(PHASES)
            for record in entry["phases"]:
                assert set(record) == {"phase", "functions"}
                assert [set(measures) for measures
                        in record["functions"].values()] == \
                    [{"before", "after"}]
        warm = run_experiment(module, "Lphi,ABI+C", tracer=Tracer(),
                              cache=cache)
        assert warm.cache["hits"] == len(module.functions)
        assert warm.to_stats()["result"] == cold.to_stats()["result"]

    def test_cache_block_only_with_cache(self, module):
        result = run_experiment(module, "Lphi,ABI+C")
        assert result.cache == {}
        assert "cache" not in result.to_stats()["env"]

    def test_ir_change_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(module_of(LOOP), "Lphi,ABI+C", cache=cache_dir)
        changed = module_of(LOOP.replace("make s, 0", "make s, 1"))
        again = run_experiment(changed, "Lphi,ABI+C", cache=cache_dir)
        assert again.cache["hits"] == 0
        assert again.cache["misses"] == 1

    def test_options_change_misses(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        varied = run_experiment(module, "Lphi,ABI+C",
                                options=PhaseOptions(mode="optimistic"),
                                cache=cache_dir)
        assert varied.cache["hits"] == 0
        assert varied.cache["misses"] == len(module.functions)

    def test_experiments_share_only_identical_pipelines(self, module,
                                                        tmp_path):
        # Two labels with the same phase tuple share entries; different
        # phase tuples do not collide.
        cache_dir = str(tmp_path / "cache")
        run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        other = run_experiment(module, "C", cache=cache_dir)
        assert other.cache["hits"] == 0
        assert other.cache["misses"] == len(module.functions)


class TestPartiallyWarm:
    @pytest.mark.parametrize("jobs", [
        1, pytest.param(2, marks=pytest.mark.skipif(
            not fork_available(), reason="platform lacks fork"))])
    def test_hit_and_miss_parts_fold_like_cold(self, module, tmp_path,
                                               jobs):
        """One entry gone: two hit parts and one recompiled part fold
        into the cold run's module, breakdown and decision counters."""
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(module, "Lphi,ABI+C", tracer=Tracer(),
                              cache=cache_dir)
        assert len(entry_files(cache_dir)) == 3
        os.unlink(entry_files(cache_dir)[1])
        warm = run_experiment(module, "Lphi,ABI+C", tracer=Tracer(),
                              jobs=jobs, cache=cache_dir)
        assert (warm.cache["hits"], warm.cache["misses"],
                warm.cache["stores"]) == (2, 1, 1)
        validate_stats(warm.to_stats())
        assert warm.to_stats()["result"] == cold.to_stats()["result"]
        assert format_module(warm.module) == format_module(cold.module)


class TestCorruption:
    def test_truncated_entry_recovers(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        victim = entry_files(cache_dir)[0]
        blob = open(victim, "rb").read()
        with open(victim, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        warm = run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        assert warm.cache["corrupt"] == 1
        assert warm.cache["misses"] == 1
        assert warm.cache["hits"] == len(module.functions) - 1
        assert warm.cache["stores"] == 1  # re-stored after recompute
        assert format_module(warm.module) == format_module(cold.module)

    def test_garbage_entry_recovers(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        victim = entry_files(cache_dir)[0]
        with open(victim, "wb") as handle:
            handle.write(b"not a cache entry at all\n")
        warm = run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        assert warm.cache["corrupt"] == 1
        assert not os.path.exists(victim) or victim in entry_files(
            cache_dir)  # rejected entry was unlinked, then re-stored

    def test_flipped_payload_bit_fails_checksum(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        victim = entry_files(cache_dir)[0]
        blob = bytearray(open(victim, "rb").read())
        blob[-1] ^= 0xFF
        with open(victim, "wb") as handle:
            handle.write(bytes(blob))
        cache = CompilationCache(cache_dir)
        key = os.path.basename(os.path.dirname(victim)) + \
            os.path.basename(victim)[:-len(".bin")]
        assert cache.probe(key) is None
        assert cache.corrupt == 1


class TestEviction:
    def test_small_cap_evicts_oldest(self, module, tmp_path):
        uncapped = CompilationCache(str(tmp_path / "a"))
        run_experiment(module, "Lphi,ABI+C", cache=uncapped)
        total = uncapped.size_bytes()
        assert total > 0
        cap = total // 2
        capped = CompilationCache(str(tmp_path / "b"), max_bytes=cap)
        # jobs=1: the evictions are read off this handle, which forked
        # workers (``$REPRO_JOBS`` > 1) never update.
        run_experiment(module, "Lphi,ABI+C", cache=capped, jobs=1)
        assert capped.evictions >= 1
        assert capped.size_bytes() <= cap

    def test_probe_freshens_mtime(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        victim = entry_files(cache_dir)[0]
        os.utime(victim, (1, 1))  # pretend it is ancient
        run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        assert os.stat(victim).st_mtime > 1  # the hit freshened it


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestParallelSharing:
    def test_workers_share_one_directory(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(module, "Lphi,ABI+C", jobs=2,
                              cache=cache_dir)
        assert cold.cache["hits"] + cold.cache["misses"] == \
            len(module.functions)
        assert cold.cache["misses"] == len(module.functions)
        warm = run_experiment(module, "Lphi,ABI+C", jobs=2,
                              cache=cache_dir)
        assert warm.cache["hits"] == len(module.functions)
        assert warm.cache["misses"] == 0
        serial = run_experiment(module, "Lphi,ABI+C")
        assert format_module(warm.module) == format_module(serial.module)

    def test_serial_warms_parallel_and_back(self, module, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(module, "Lphi,ABI+C", cache=cache_dir)
        warm = run_experiment(module, "Lphi,ABI+C", jobs=2,
                              cache=cache_dir)
        assert warm.cache["hits"] == len(module.functions)

    def test_traced_parallel_stats_match_serial_cold(self, module,
                                                     tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(module, "Lphi,ABI+C", tracer=Tracer())
        warm = run_experiment(module, "Lphi,ABI+C", tracer=Tracer(),
                              jobs=2, cache=cache_dir)
        validate_stats(warm.to_stats())
        assert warm.to_stats()["result"] == cold.to_stats()["result"]


class TestResolveCache:
    def test_none_without_env_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache(None) is None

    def test_env_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env-cache"))
        cache = resolve_cache(None)
        assert isinstance(cache, CompilationCache)
        assert cache.path == str(tmp_path / "env-cache")

    def test_path_and_instance(self, tmp_path):
        cache = resolve_cache(str(tmp_path / "c"))
        assert isinstance(cache, CompilationCache)
        assert resolve_cache(cache) is cache

    def test_env_limit_sets_cap(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_LIMIT", "4096")
        assert CompilationCache(str(tmp_path / "c")).max_bytes == 4096
        monkeypatch.setenv("REPRO_CACHE_LIMIT", "garbage")
        assert CompilationCache(str(tmp_path / "d")).max_bytes is None

    def test_env_cache_used_by_pipeline(self, monkeypatch, module,
                                        tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env-cache"))
        result = run_experiment(module, "Lphi,ABI+C")
        assert result.cache["misses"] == len(module.functions)

    def test_stats_since(self, module, tmp_path):
        cache = CompilationCache(str(tmp_path / "c"))
        # jobs=1: the counters are read off this handle, which forked
        # workers (``$REPRO_JOBS`` > 1) never update.
        run_experiment(module, "Lphi,ABI+C", cache=cache, jobs=1)
        mark = cache.stats()
        delta = run_experiment(module, "Lphi,ABI+C", cache=cache, jobs=1)
        assert delta.cache["hits"] == len(module.functions)
        assert delta.cache["stores"] == 0
        assert set(delta.cache) == set(CACHE_STATS_KEYS)
        assert cache.stats_since(mark) == delta.cache
