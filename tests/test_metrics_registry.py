"""The metrics registry behind ``repro serve``'s live endpoint:
instruments, labels, percentiles and the Prometheus exposition."""

import pytest

from repro.observability import MetricsRegistry, prometheus_text
from repro.observability.metrics import (BUCKET_BOUNDS, COUNT_BOUNDS,
                                         split_key, _key)

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
