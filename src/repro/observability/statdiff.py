"""Timing-stripped stats comparison -- the shared diffing rules.

The parallel engine (``--jobs``) promises that every *non-timing* field
of a ``repro.stats`` document is identical at any job count, and the
persistent cache promises the same across cache temperatures for every
paper metric and decision counter.  :func:`strip_timing` removes
exactly the documented non-deterministic fields so two documents can
be compared for the promises that *do* hold:

* the ``parallel`` block (worker pool shape and wall times);
* the ``cache`` / ``analysis_cache`` / ``interp`` blocks, the
  ``events`` count and the ``analysis.*`` / ``interp.code_cache.*`` /
  ``interp.compile_ns`` counters -- instrumentation *volume* and cache
  temperature (the interpreter's code cache is process-global, so its
  traffic depends on what ran before), which vary while decision
  counters must not;
* the ``metrics`` block (v1.5) -- its histograms are wall-clock latency
  measurements and several of its counters mirror cache traffic;
* per-phase ``seq`` / ``start_ns`` / ``duration_ns``.

Two consumers share these rules: ``benchmarks/diff_stats.py`` (the
CI serial-vs-parallel and cold-vs-warm gates) and :func:`stats_digest`,
a SHA-256 over the stripped document that ``repro serve`` returns with
every compile response, so two runs of the same code on the same input
carry the same digest.
"""

from __future__ import annotations

import hashlib
import json

TIMING_KEYS = ("seq", "start_ns", "duration_ns")

#: Top-level document blocks that describe the run's *environment or
#: effort* (pool shape, cache temperature, instrumentation volume)
#: rather than its output.
ENVIRONMENT_BLOCKS = ("parallel", "cache", "analysis_cache", "events",
                      "metrics", "interp")

#: Counter-name prefixes describing effort or cache temperature rather
#: than decisions: analysis traffic, interpreter code-cache traffic
#: and compile time.  ``interp.runs`` / ``interp.steps`` /
#: ``interp.block_entries`` are *not* here -- they are deterministic
#: per run at every tier, job count and cache temperature.
ENVIRONMENT_COUNTER_PREFIXES = ("analysis.", "interp.code_cache.",
                                "interp.compile_ns")


def strip_timing(document):
    """Return *document* minus the documented non-deterministic fields
    (works on single stats documents and ``runs``-bearing collections).
    """
    if isinstance(document, dict) and "runs" in document:
        return {**document,
                "runs": [strip_timing(run) for run in document["runs"]]}
    document = dict(document)
    for block in ENVIRONMENT_BLOCKS:
        document.pop(block, None)
    if "counters" in document:
        document["counters"] = {
            name: value for name, value in document["counters"].items()
            if not name.startswith(ENVIRONMENT_COUNTER_PREFIXES)}
    phases = []
    for entry in document.get("phases", ()):
        entry = {k: v for k, v in entry.items() if k not in TIMING_KEYS}
        phases.append(entry)
    if "phases" in document:
        document["phases"] = phases
    return document


def first_difference(left, right, path="$"):
    """The path + values of the first mismatch, or ``None`` if equal."""
    if type(left) is not type(right):
        return (path, left, right)
    if isinstance(left, dict):
        for key in sorted(set(left) | set(right)):
            if key not in left or key not in right:
                return (f"{path}.{key}",
                        left.get(key, "<missing>"),
                        right.get(key, "<missing>"))
            found = first_difference(left[key], right[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(left, list):
        if len(left) != len(right):
            return (path, f"list of {len(left)}", f"list of {len(right)}")
        for index, (a, b) in enumerate(zip(left, right)):
            found = first_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        return None
    if left != right:
        return (path, left, right)
    return None


def stats_digest(document) -> str:
    """SHA-256 over the canonical JSON of the *stripped* document --
    the deterministic identity of a run's non-timing content.  Two runs
    of the same code on the same input carry the same digest at any
    ``--jobs`` count and cache temperature (given the same tracer
    configuration: a traced run records decision counters an untraced
    one leaves empty)."""
    canonical = json.dumps(strip_timing(document), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
