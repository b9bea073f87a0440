"""Observability for the out-of-SSA pipeline: tracing, counters, stats.

Public surface:

* :class:`Tracer` / :data:`NULL_TRACER` -- the recording tracer and the
  zero-overhead default (see :mod:`.tracer`);
* :func:`resolve` -- normalize an optional ``tracer=`` argument;
* exporters -- :func:`chrome_trace_events` / :func:`write_chrome_trace`
  (Chrome ``trace_event`` format), :func:`summary`,
  :func:`phase_table` and :func:`pass_profile` /
  :func:`pass_self_times` (human-readable), :func:`jsonable`;
* schema -- :func:`validate_stats` and the ``repro.stats/v2`` document
  contract, ``{schema, experiment, result, env}`` (see :mod:`.schema`
  and ``docs/observability.md``);
* statdiff -- :func:`stats_digest` / :func:`result_blocks`, which
  compare runs by their ``result`` blocks (see :mod:`.statdiff`).

Every instrumented entry point (``run_phases``, ``coalesce_phis``,
``sreedhar_to_cssa``, ``aggressive_coalesce``, the interpreter) takes an
optional ``tracer`` keyword defaulting to ``None`` == :data:`NULL_TRACER`.
``repro serve`` keeps its lifetime totals itself
(:attr:`repro.serve.server.CompileServer.totals`).
"""

from .exporters import (chrome_trace_events, chrome_trace_json, jsonable,
                        pass_profile, pass_self_times, phase_table,
                        summary, write_chrome_trace)
from .schema import (COLLECTION_SCHEMA, DELTA_KEYS, SNAPSHOT_KEYS,
                     STATS_SCHEMA, SchemaError, validate_stats,
                     validate_stats_file)
from .statdiff import first_difference, result_blocks, stats_digest
from .tracer import (NULL_TRACER, EventRecord, NullTracer, SpanRecord,
                     Tracer, resolve)

__all__ = [
    "NULL_TRACER", "NullTracer", "Tracer", "SpanRecord", "EventRecord",
    "resolve",
    "result_blocks", "first_difference", "stats_digest",
    "chrome_trace_events", "chrome_trace_json", "write_chrome_trace",
    "summary", "phase_table", "pass_profile", "pass_self_times",
    "jsonable",
    "STATS_SCHEMA", "COLLECTION_SCHEMA", "DELTA_KEYS", "SNAPSHOT_KEYS",
    "SchemaError", "validate_stats", "validate_stats_file",
]
