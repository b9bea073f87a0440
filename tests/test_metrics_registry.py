"""The metrics registry: instruments, merge algebra, determinism at any
job count, the Prometheus exposition, and the v1.5 schema contract."""

import json

import pytest

from helpers import module_of
from repro.benchgen import all_suites
from repro.observability import (MetricsRegistry, NULL_METRICS,
                                 prometheus_text, validate_stats)
from repro.observability.metrics import (BUCKET_BOUNDS, COUNT_BOUNDS,
                                         NullMetrics, resolve_metrics,
                                         split_key, _key)
from repro.pipeline import run_experiment

TWO_FUNCS = """
func one
entry:
    input a
    cbr a, t, f
t:
    add x, a, 1
    br j
f:
    mul y, a, 3
    br j
j:
    r = phi(x:t, y:f)
    ret r
endfunc

func two
entry:
    input n
    make i, 0
    make s, 0
    br head
head:
    cmplt c, i, n
    cbr c, body, exit
body:
    add s, s, i
    add i, i, 1
    br head
exit:
    ret s
endfunc
"""


class TestInstruments:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        h = registry.histogram("h")
        h.observe(1e-6)     # first bucket
        h.observe(3e-6)     # third bucket (2e-6 < v <= 4e-6)
        h.observe(1e9)      # +Inf overflow
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 2.5}
        doc = snap["histograms"]["h"]
        assert doc["count"] == 3 == sum(doc["counts"])
        assert doc["counts"][0] == 1
        assert doc["counts"][2] == 1
        assert doc["counts"][-1] == 1  # overflow bucket
        assert doc["buckets"] == list(BUCKET_BOUNDS)

    def test_labels_are_canonical(self):
        registry = MetricsRegistry()
        registry.counter("c", b="2", a="1").inc()
        registry.counter("c", a="1", b="2").inc()
        assert registry.snapshot()["counters"] == {"c{a=1,b=2}": 2}

    def test_split_key_round_trip_with_commas(self):
        key = _key("m", {"experiment": "Lphi,ABI+C", "suite": "VALcc1"})
        name, labels = split_key(key)
        assert name == "m"
        assert labels == {"experiment": "Lphi,ABI+C", "suite": "VALcc1"}

    def test_count_bounds_ladder(self):
        registry = MetricsRegistry()
        h = registry.histogram("batch", bounds=COUNT_BOUNDS)
        h.observe(170.0)
        doc = registry.snapshot()["histograms"]["batch"]
        assert doc["buckets"] == list(COUNT_BOUNDS)
        # 170 lands in the first power-of-4 bucket >= 170 (256 = 4^4)
        assert doc["counts"][4] == 1

    def test_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for _ in range(99):
            h.observe(1e-6)
        h.observe(1.0)
        pct = registry.snapshot()["histograms"]["h"]["percentiles"]
        assert pct["p50"] == pytest.approx(1e-6)
        assert pct["p99"] == pytest.approx(1e-6)

    def test_null_registry_is_inert_and_shared(self):
        assert not NULL_METRICS.enabled
        assert resolve_metrics(None) is NULL_METRICS
        registry = MetricsRegistry()
        assert resolve_metrics(registry) is registry
        a = NULL_METRICS.counter("x", label="y")
        b = NULL_METRICS.histogram("z", bounds=COUNT_BOUNDS)
        assert a is b  # one shared no-op instrument, no allocation
        a.inc()
        a.observe(1.0)
        a.set(3)
        assert NULL_METRICS.snapshot() == {}
        assert isinstance(NULL_METRICS, NullMetrics)


class TestMergeAlgebra:
    def _snap(self, c, g, observations):
        registry = MetricsRegistry()
        registry.counter("c").inc(c)
        registry.gauge("g").set(g)
        for value in observations:
            registry.histogram("h").observe(value)
        return registry.snapshot()

    @staticmethod
    def _merged(snapshots):
        registry = MetricsRegistry()
        for snapshot in snapshots:
            registry.merge(snapshot)
        return registry.snapshot()

    def test_merge_sums_counts_and_maxes_gauges(self):
        merged = self._merged([
            self._snap(2, 5, [1e-6]),
            self._snap(3, 9, [3e-6, 1e9]),
            None, {},  # skipped workers
        ])
        assert merged["counters"] == {"c": 5}
        assert merged["gauges"] == {"g": 9}
        assert merged["histograms"]["h"]["count"] == 3

    def test_merge_is_order_independent(self):
        snaps = [self._snap(1, 3, [1e-6]), self._snap(2, 7, [2e-6]),
                 self._snap(4, 1, [4e-6, 1e-5])]
        forward = self._merged(snaps)
        backward = self._merged(reversed(snaps))
        assert forward["counters"] == backward["counters"]
        assert forward["gauges"] == backward["gauges"]
        for key in forward["histograms"]:
            f, b = forward["histograms"][key], backward["histograms"][key]
            # integer fields are exactly order-free; the float sum only
            # up to addition reassociation (last-ulp)
            assert f["counts"] == b["counts"]
            assert f["count"] == b["count"]
            assert f["buckets"] == b["buckets"]
            assert f["sum"] == pytest.approx(b["sum"])

    def test_merge_into_registry_accumulates(self):
        registry = MetricsRegistry()
        registry.merge(self._snap(1, 1, [1e-6]))
        registry.merge(self._snap(1, 2, [1e-6]))
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["count"] == 2


class TestPipelineDeterminism:
    """The acceptance contract: deterministic metric fields are
    identical at --jobs 1/2/4 (counters, function-keyed observation
    counts, and the oracle batch *volume*)."""

    @pytest.fixture(scope="class")
    def per_jobs(self):
        module = module_of(TWO_FUNCS)
        snaps = {}
        for jobs in (1, 2, 4):
            result = run_experiment(module, "Lphi,ABI+C", jobs=jobs,
                                    metrics=MetricsRegistry())
            snaps[jobs] = (result, result.metrics)
        return snaps

    def test_counters_identical(self, per_jobs):
        base = per_jobs[1][1]["counters"]
        assert base["pipeline.runs"] == 1
        assert base["pipeline.functions"] == 2
        for jobs in (2, 4):
            assert per_jobs[jobs][1]["counters"] == base

    def test_histogram_counts_identical(self, per_jobs):
        base = per_jobs[1][1]["histograms"]
        for jobs in (2, 4):
            snap = per_jobs[jobs][1]["histograms"]
            assert set(snap) == set(base)
            for key in base:
                if key.startswith("oracle.query_batch"):
                    # batch observations are per worker run; the
                    # total observed volume is what must match
                    assert snap[key]["sum"] == base[key]["sum"]
                else:
                    assert snap[key]["count"] == base[key]["count"], key

    def test_paper_metrics_unchanged(self, per_jobs):
        moves = {jobs: result.moves
                 for jobs, (result, _) in per_jobs.items()}
        assert len(set(moves.values())) == 1

    def test_function_histogram_counts_functions(self, per_jobs):
        for jobs, (_, snap) in per_jobs.items():
            doc = snap["histograms"]["compile.function_seconds"]
            assert doc["count"] == 2, jobs

    def test_stats_document_validates(self, per_jobs):
        for _, (result, _) in per_jobs.items():
            doc = result.to_stats()
            assert doc["schema"] == "repro.stats/v1.6"
            validate_stats(doc)

    def test_tables_byte_identical_with_metrics(self):
        """Enabling the registry must not perturb paper output at any
        job count."""
        from repro.pipeline import run_table

        suite = next(s for s in all_suites() if s.name == "VALcc1")
        baseline = [(r.name, r.moves, r.weighted)
                    for r in run_table(suite.module, "table2")]
        for jobs in (1, 2):
            metered = [(r.name, r.moves, r.weighted)
                       for r in run_table(suite.module, "table2",
                                          jobs=jobs,
                                          metrics=MetricsRegistry)]
            assert metered == baseline


class TestSchemaV15:
    def _doc_with_metrics(self):
        module = module_of(TWO_FUNCS)
        result = run_experiment(module, "C", metrics=MetricsRegistry())
        return result.to_stats()

    def test_valid_metrics_block(self):
        validate_stats(self._doc_with_metrics())

    def test_invalid_metrics_blocks_rejected(self):
        from repro.observability import SchemaError

        doc = self._doc_with_metrics()
        key = next(iter(doc["metrics"]["histograms"]))
        for mutate in (
                lambda d: d["metrics"]["counters"].__setitem__("x", 1.5),
                lambda d: d["metrics"]["histograms"][key].pop("counts"),
                lambda d: d["metrics"]["histograms"][key]
                .__setitem__("count", 10**6),
                lambda d: d["metrics"]["histograms"][key]["counts"]
                .append(1),
                lambda d: d["metrics"].__setitem__("gauges", [1]),
        ):
            bad = json.loads(json.dumps(doc))
            mutate(bad)
            with pytest.raises(SchemaError):
                validate_stats(bad)


class TestPrometheus:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        registry.counter("cache.misses", suite="VALcc1").inc(2)
        registry.gauge("compile.wall_seconds",
                       experiment="Lphi,ABI+C").set(0.125)
        h = registry.histogram("phase.seconds", phase="ssa")
        h.observe(1e-6)
        h.observe(0.5)
        return registry.snapshot()

    def test_exposition_shape(self):
        text = prometheus_text(self._snapshot())
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "repro_cache_hits_total 3" in text
        assert '{experiment="Lphi,ABI+C"}' in text
        assert 'le="+Inf"' in text
        # cumulative buckets: the +Inf bucket equals _count
        lines = text.splitlines()
        count = next(l for l in lines
                     if l.startswith("repro_phase_seconds_count"))
        inf = next(l for l in lines if 'le="+Inf"' in l)
        assert count.rsplit(" ", 1)[1] == inf.rsplit(" ", 1)[1] == "2"

    def test_exposition_exact(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        registry.counter("cache.misses", suite="VALcc1").inc(2)
        registry.gauge("compile.wall_seconds",
                       experiment="Lphi,ABI+C").set(0.125)
        h = registry.histogram("phase.seconds", bounds=(0.001, 0.5),
                               phase="ssa")
        for value in (0.0005, 0.25, 2.0):
            h.observe(value)
        assert registry.to_prometheus() == (
            "# TYPE repro_cache_hits_total counter\n"
            "repro_cache_hits_total 3\n"
            "# TYPE repro_cache_misses_total counter\n"
            'repro_cache_misses_total{suite="VALcc1"} 2\n'
            "# TYPE repro_compile_wall_seconds gauge\n"
            'repro_compile_wall_seconds{experiment="Lphi,ABI+C"} 0.125\n'
            "# TYPE repro_phase_seconds histogram\n"
            'repro_phase_seconds_bucket{le="0.001",phase="ssa"} 1\n'
            'repro_phase_seconds_bucket{le="0.5",phase="ssa"} 2\n'
            'repro_phase_seconds_bucket{le="+Inf",phase="ssa"} 3\n'
            'repro_phase_seconds_sum{phase="ssa"} 2.2505\n'
            'repro_phase_seconds_count{phase="ssa"} 3\n')

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text({}) == ""
        assert prometheus_text(MetricsRegistry().snapshot()) == ""
