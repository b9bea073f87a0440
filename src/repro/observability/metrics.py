"""The metrics registry: counters, gauges and latency histograms.

The tracer (:mod:`.tracer`) answers "what happened inside *this* run";
the registry answers the service-shaped question "how is the server
behaving *over* its lifetime".  ``repro serve`` holds one for its whole
life (request latency, batch sizes, cache traffic) and exposes it
through its ``metrics`` op and ``GET /metrics``.  Three instrument
kinds:

* **counters** -- named monotone totals (``registry.counter(
  "serve.requests").inc()``);
* **gauges** -- last-written values (``registry.gauge(name).set(n)``);
* **histograms** -- distributions over *fixed* log-spaced bucket
  ladders (:data:`BUCKET_BOUNDS`, powers of two from 1µs, for
  latencies; :data:`COUNT_BOUNDS`, powers of four, for sizes such as
  batch sizes).  The ladder is a property of the metric, not of the
  process.

:meth:`MetricsRegistry.snapshot` emits sorted keys and plain JSON
types.  Prometheus text exposition (:func:`prometheus_text`) renders a
snapshot in the classic ``# TYPE`` / sample-line format --
``repro_serve_request_seconds_bucket{le="0.000512"} 3``.
"""

from __future__ import annotations

#: The default (latency) histogram bucket ladder: powers of two from
#: 1µs.  The last finite bound is ~134s; observations beyond it land
#: in the implicit +Inf overflow bucket (``counts[-1]``).
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    1e-6 * (1 << i) for i in range(28))

#: The size/count ladder (batch sizes):
#: powers of four from 1 up to ~10^9.
COUNT_BOUNDS: tuple[float, ...] = tuple(
    float(4 ** i) for i in range(16))

#: Percentiles reported by :meth:`Histogram.percentiles`.
PERCENTILES = (50, 90, 99)


def _bucket_index(bounds: tuple[float, ...], value: float) -> int:
    """The index of the first bucket whose upper bound admits *value*
    (``len(bounds)`` = the +Inf overflow bucket).  A hand-rolled
    binary search beats ``bisect`` here only by avoiding an import;
    the ladders are small and fixed."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _key(name: str, labels: dict) -> str:
    """The registry key of one labelled instrument: the metric name
    plus a canonical ``{k=v,...}`` suffix (sorted, so label order at
    the call site never matters)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_key(key: str) -> tuple[str, dict]:
    """Invert :func:`_key`: ``name{k=v,...}`` back to name + labels.
    A segment without ``=`` belongs to the previous value (label
    *values* may contain commas -- e.g. the experiment ``Lphi,ABI+C``
    -- but label names never do)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    pairs: list[str] = []
    for segment in inner.split(","):
        if "=" in segment or not pairs:
            pairs.append(segment)
        else:
            pairs[-1] += "," + segment
    labels = {}
    for pair in pairs:
        if pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotone total; a pre-bound handle like the tracer's."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """A distribution over a fixed log-bucket ladder (the latency
    ladder :data:`BUCKET_BOUNDS` by default, :data:`COUNT_BOUNDS` for
    size-shaped metrics).

    ``counts`` has ``len(bounds) + 1`` slots, the last being the +Inf
    overflow bucket; ``sum``/``count`` accumulate alongside so
    averages need no bucket arithmetic.  One registry key always uses
    the ladder it was first created with.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = BUCKET_BOUNDS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[_bucket_index(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def percentiles(self) -> dict[str, float]:
        """Upper-bound estimates for :data:`PERCENTILES` read off the
        cumulative bucket counts (the +Inf bucket reports the last
        finite bound)."""
        out: dict[str, float] = {}
        if not self.count:
            return out
        for pct in PERCENTILES:
            need = self.count * pct / 100.0
            running = 0
            for i, n in enumerate(self.counts):
                running += n
                if running >= need:
                    out[f"p{pct}"] = self.bounds[min(
                        i, len(self.bounds) - 1)]
                    break
        return out


class MetricsRegistry:
    """The registry.  See the module docstring for the model."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        instrument = self.counters.get(key)
        if instrument is None:
            instrument = self.counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        instrument = self.gauges.get(key)
        if instrument is None:
            instrument = self.gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = BUCKET_BOUNDS,
                  **labels) -> Histogram:
        key = _key(name, labels)
        instrument = self.histograms.get(key)
        if instrument is None:
            instrument = self.histograms[key] = Histogram(bounds)
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry as a deterministic plain-JSON document (sorted
        keys, lists and numbers only) -- what :func:`prometheus_text`
        renders."""
        histograms = {}
        for key in sorted(self.histograms):
            h = self.histograms[key]
            histograms[key] = {
                "buckets": list(h.bounds),
                "counts": list(h.counts),
                "sum": h.sum,
                "count": h.count,
                "percentiles": h.percentiles(),
            }
        return {
            "counters": {key: self.counters[key].value
                         for key in sorted(self.counters)},
            "gauges": {key: self.gauges[key].value
                       for key in sorted(self.gauges)},
            "histograms": histograms,
        }

    def to_prometheus(self) -> str:
        """This registry in Prometheus text-exposition format."""
        return prometheus_text(self.snapshot())


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(key: str) -> tuple[str, dict]:
    """Registry key -> (prometheus metric name, labels)."""
    name, labels = split_key(key)
    return "repro_" + name.replace(".", "_").replace("-", "_"), labels


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


def _prom_value(value) -> str:
    """Float formatting with an exact round trip (repr of a float
    parses back to the same float; integers stay integers)."""
    if isinstance(value, float) and value == float("inf"):
        return "+Inf"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document in Prometheus
    text-exposition format (``# TYPE`` comments, cumulative ``le``
    histogram buckets ending at ``+Inf``, ``_sum``/``_count`` series).
    """
    lines: list[str] = []
    typed: set[str] = set()

    def emit_type(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        name, labels = _prom_name(key)
        if not name.endswith("_total"):
            name += "_total"
        emit_type(name, "counter")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_value(value)}")
    for key, value in snapshot.get("gauges", {}).items():
        name, labels = _prom_name(key)
        emit_type(name, "gauge")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_value(value)}")
    for key, doc in snapshot.get("histograms", {}).items():
        name, labels = _prom_name(key)
        emit_type(name, "histogram")
        cumulative = 0
        for bound, count in zip(doc["buckets"] + [float("inf")],
                                doc["counts"]):
            cumulative += count
            bucket_labels = dict(labels, le=_prom_value(float(bound)))
            lines.append(f"{name}_bucket{_prom_labels(bucket_labels)} "
                         f"{cumulative}")
        lines.append(f"{name}_sum{_prom_labels(labels)} "
                     f"{_prom_value(float(doc['sum']))}")
        lines.append(f"{name}_count{_prom_labels(labels)} {doc['count']}")
    return "\n".join(lines) + "\n" if lines else ""
