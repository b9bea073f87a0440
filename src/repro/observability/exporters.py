"""Exporters for the tracer: Chrome ``trace_event`` JSON, plain JSON
helpers, and the human-readable ``-v`` summary.

Chrome trace format
-------------------
:func:`chrome_trace_events` maps the tracer's records onto the Trace
Event Format consumed by ``chrome://tracing`` / Perfetto:

* every completed span becomes a complete event (``"ph": "X"``) with
  microsecond ``ts``/``dur``;
* every point event becomes a thread-scoped instant (``"ph": "i"``);
* every counter becomes one final counter sample (``"ph": "C"``) at the
  end of the trace, so totals show up in the UI.

All events share ``pid``/``tid`` 1 -- the pipeline is single-threaded,
and nesting is reconstructed by the viewer from the timestamps.
"""

from __future__ import annotations

import dataclasses
import json

from .tracer import Tracer

#: ``cat`` assigned to all exported events.
_CATEGORY = "repro"


def jsonable(value):
    """Best-effort conversion of phase statistics to JSON-serializable
    data: dataclasses become shallow dicts, containers recurse, and any
    other leaf (``Var``, ``PhysReg``, ...) is stringified."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """The tracer's records as a Trace Event Format event list."""
    events: list[dict] = []
    end_ts = 0.0
    for span in tracer.spans:
        ts = span.start_ns / 1000.0
        dur = max(span.duration_ns, 0) / 1000.0
        end_ts = max(end_ts, ts + dur)
        events.append({
            "name": span.name, "cat": _CATEGORY, "ph": "X",
            "pid": 1, "tid": 1, "ts": ts, "dur": dur,
            "args": jsonable(span.attrs),
        })
    for event in tracer.events:
        ts = event.ts_ns / 1000.0
        end_ts = max(end_ts, ts)
        events.append({
            "name": event.name, "cat": _CATEGORY, "ph": "i", "s": "t",
            "pid": 1, "tid": 1, "ts": ts,
            "args": jsonable(event.attrs),
        })
    for name in sorted(tracer.counters):
        events.append({
            "name": name, "cat": _CATEGORY, "ph": "C",
            "pid": 1, "tid": 1, "ts": end_ts,
            "args": {name: tracer.counters[name]},
        })
    return events


def chrome_trace_json(tracer: Tracer, indent=None) -> str:
    """The full Chrome trace document as a JSON string."""
    document = {"traceEvents": chrome_trace_events(tracer),
                "displayTimeUnit": "ms"}
    return json.dumps(document, indent=indent)


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(chrome_trace_json(tracer))
        handle.write("\n")


# ----------------------------------------------------------------------
# Human-readable output
# ----------------------------------------------------------------------

def _ms(ns: int) -> str:
    return f"{ns / 1e6:.2f}"


def phase_table(document: dict) -> str:
    """Render a stats document's per-phase breakdown -- ``env.phases``
    timing beside ``result.phases`` deltas -- as the time/delta table
    printed by ``repro experiments`` and ``repro compile -v``."""
    rows = list(zip(document["env"]["phases"],
                    document["result"]["phases"]))
    if not rows:
        return "(no per-phase stats: run with a tracer installed)"
    lines = [f"{'phase':<20}{'time(ms)':>10}{'dmoves':>8}"
             f"{'dinstrs':>9}{'dphis':>7}"]
    for timing, entry in rows:
        delta = entry["delta"]
        lines.append(
            f"{entry['phase']:<20}{_ms(timing['duration_ns']):>10}"
            f"{delta['moves']:>+8d}{delta['instructions']:>+9d}"
            f"{delta['phis']:>+7d}")
    return "\n".join(lines)


def pass_self_times(tracer: Tracer) -> list[dict]:
    """Per-pass profile aggregated from the tracer's span tree.

    Self time is a span's duration minus its *direct* children's
    durations -- the nanoseconds spent in that pass's own code rather
    than in nested passes -- aggregated over every span sharing one
    name.  Open (never closed) spans are skipped: they have no
    meaningful duration.  Rows are sorted by self time, largest first.
    """
    child_ns: dict[int, int] = {}
    for span in tracer.spans:
        if span.parent is not None and span.closed:
            child_ns[span.parent] = child_ns.get(span.parent, 0) \
                + span.duration_ns
    rows: dict[str, dict] = {}
    for span in tracer.spans:
        if not span.closed:
            continue
        row = rows.setdefault(span.name, {"pass": span.name, "calls": 0,
                                          "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += span.duration_ns
        row["self_ns"] += max(span.duration_ns
                              - child_ns.get(span.seq, 0), 0)
    return sorted(rows.values(),
                  key=lambda r: (-r["self_ns"], r["pass"]))


def pass_profile(tracer: Tracer) -> str:
    """Render :func:`pass_self_times` as the ``--profile-passes``
    table: one row per span name, self/total milliseconds and the
    self-time share of the whole run."""
    rows = pass_self_times(tracer)
    if not rows:
        return "(no pass profile: no spans were recorded)"
    grand_self = sum(r["self_ns"] for r in rows) or 1
    lines = [f"{'pass':<32}{'calls':>7}{'self(ms)':>10}"
             f"{'total(ms)':>11}{'self%':>7}"]
    for row in rows:
        share = 100.0 * row["self_ns"] / grand_self
        lines.append(f"{row['pass']:<32}{row['calls']:>7}"
                     f"{_ms(row['self_ns']):>10}"
                     f"{_ms(row['total_ns']):>11}"
                     f"{share:>6.1f}%")
    lines.append(f"{'TOTAL':<32}{'':>7}{_ms(grand_self):>10}")
    return "\n".join(lines)


def summary(tracer: Tracer, max_counters: int = 40) -> str:
    """An indented span tree plus counter totals -- the ``-v`` text."""
    lines = ["spans:"]
    for span in tracer.spans:
        state = _ms(span.duration_ns) + " ms" if span.closed else "(open)"
        lines.append(f"  {'  ' * span.depth}{span.name:<40} {state:>12}")
    if tracer.counters:
        lines.append("counters:")
        for i, name in enumerate(sorted(tracer.counters)):
            if i == max_counters:
                lines.append(f"  ... {len(tracer.counters) - i} more")
                break
            lines.append(f"  {name:<44} {tracer.counters[name]:>10}")
    lines.append(f"events: {len(tracer.events)}")
    return "\n".join(lines)
