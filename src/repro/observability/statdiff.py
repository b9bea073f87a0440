"""Stats comparison -- the ``result`` block is what two runs share.

A ``repro.stats/v2`` document is built as two blocks (see
:mod:`.schema`): ``result`` holds what the run *produced* (totals,
per-phase IR deltas, pass statistics, decision counters) and ``env``
holds how it ran (pool shape, cache temperature, analysis and
code-cache traffic, event volume, phase timing).  The parallel engine
promises an identical ``result`` at any ``--jobs`` count, the
persistent cache the same across cache temperatures, and the
interpreter tiers the same across ``REPRO_INTERP`` settings, so
comparing two runs means comparing their ``result`` blocks -- nothing
is stripped.

Two consumers share these rules: ``benchmarks/diff_stats.py`` (the
CI serial-vs-parallel and cold-vs-warm gates) and :func:`stats_digest`,
a SHA-256 over the ``result`` block that ``repro serve`` returns with
every compile response, so two runs of the same code on the same input
carry the same digest.
"""

from __future__ import annotations

import hashlib
import json


def result_blocks(document) -> list:
    """Each run's experiment name and ``result`` block, in order (a
    single stats document is a one-run list; a ``runs``-bearing
    collection gives one entry per run)."""
    runs = document["runs"] if "runs" in document else [document]
    return [{"experiment": run["experiment"], "result": run["result"]}
            for run in runs]


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
    """SHA-256 over the canonical JSON of ``document["result"]`` -- the
    deterministic identity of a run.  Two runs of the same code on the
    same input carry the same digest at any ``--jobs`` count, cache
    temperature and interpreter tier (given the same tracer
    configuration: a traced run records decision counters and
    per-phase deltas an untraced one leaves empty)."""
    canonical = json.dumps(document["result"], sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
