"""The structured-stats JSON schema and its validator.

Two document shapes are emitted by the CLI and the benchmark harness
(see ``docs/observability.md`` for the field-by-field reference):

``repro.stats/v2``
    One experiment run, ``{schema, experiment, result, env}``:

    * ``result`` -- what the run produced, identical at any job count,
      cache temperature and interpreter tier: ``totals``,
      ``phase_stats`` (raw per-phase pass statistics), ``counters``
      (decision counters) and ``phases[]`` as ``{phase, delta,
      functions}`` (move/instruction/phi deltas, per function with
      ``before``/``after`` measures);
    * ``env`` -- how it ran: ``analysis_cache`` (shared-analysis and
      interference-oracle traffic, from
      :class:`repro.analysis.manager.AnalysisManager`), ``events``
      (the tracer's event count), ``interp`` (the interpreter tier
      behind the verify passes and the compiled tier's code-cache
      traffic), ``phases[]`` as ``{phase, seq, start_ns,
      duration_ns}``, and -- when they apply -- ``parallel`` (the
      fork-pool execution, see :mod:`repro.parallel`) and ``cache``
      (persistent compilation-cache traffic, see :mod:`repro.cache`).

    Produced by :meth:`repro.pipeline.ExperimentResult.to_stats`;
    :func:`repro.observability.statdiff.stats_digest` hashes
    ``result``.

``repro.stats-collection/v1``
    ``{"schema": ..., "runs": [<stats doc>, ...]}`` -- many runs in one
    file, each optionally annotated with extra context keys such as
    ``suite`` and ``table``.  Produced by ``repro tables --stats-json``,
    ``repro experiments --stats-json`` and the benchmark harness.

Validation is hand-rolled (no third-party jsonschema dependency) and
*permissive about extra keys*: producers may annotate documents freely,
consumers must get the documented core.  Run as a module to validate a
file::

    python -m repro.observability.schema stats.json
"""

from __future__ import annotations

import json
from typing import Any

STATS_SCHEMA = "repro.stats/v2"
COLLECTION_SCHEMA = "repro.stats-collection/v1"

#: The integer fields of ``env.analysis_cache``.
ANALYSIS_CACHE_KEYS = ("hits", "misses", "invalidations", "preserved",
                       "oracle_hits", "oracle_misses")

#: The required integer fields of the optional ``env.cache`` block:
#: persistent compilation-cache traffic (see :mod:`repro.cache`).
CACHE_BLOCK_KEYS = ("hits", "misses", "stores", "evictions", "bytes")

#: The integer fields of ``env.interp.code_cache``: compiled-tier
#: code-cache traffic (see :mod:`repro.interp.compiled`).
INTERP_CODE_CACHE_KEYS = ("hits", "misses", "compile_ns")

#: The integer fields of the optional ``env.parallel`` block.
PARALLEL_KEYS = ("jobs", "workers", "pool_ns", "merge_ns")

#: The integer fields of every ``env.phases[]`` timing entry.
TIMING_FIELDS = ("seq", "start_ns", "duration_ns")

#: The integer fields of every ``delta`` object.
DELTA_KEYS = ("instructions", "moves", "phis",
              "copies_inserted", "copies_removed")

#: The integer fields of every snapshot (``before``/``after``) object.
SNAPSHOT_KEYS = ("instructions", "moves", "phis")


class SchemaError(ValueError):
    """A stats document does not match the documented schema."""


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{where}: {message}")


def _expect_int(doc: dict, key: str, where: str) -> None:
    _expect(isinstance(doc.get(key), int) and
            not isinstance(doc.get(key), bool),
            where, f"{key!r} must be an integer, got {doc.get(key)!r}")


def _validate_measures(doc: Any, keys, where: str) -> None:
    _expect(isinstance(doc, dict), where, "must be an object")
    for key in keys:
        _expect_int(doc, key, where)


def _validate_phase(entry: Any, where: str) -> None:
    _expect(isinstance(entry, dict), where, "must be an object")
    _expect(isinstance(entry.get("phase"), str), where,
            "'phase' must be a string")
    _validate_measures(entry.get("delta"), DELTA_KEYS, f"{where}.delta")
    functions = entry.get("functions")
    _expect(isinstance(functions, dict), where,
            "'functions' must be an object")
    for fname, per_fn in functions.items():
        fn_where = f"{where}.functions[{fname!r}]"
        _expect(isinstance(per_fn, dict), fn_where, "must be an object")
        for key in ("before", "after", "delta"):
            _validate_measures(per_fn.get(key), SNAPSHOT_KEYS,
                               f"{fn_where}.{key}")


def _validate_timing(entry: Any, where: str) -> None:
    _validate_measures(entry, TIMING_FIELDS, where)
    _expect(isinstance(entry.get("phase"), str), where,
            "'phase' must be a string")
    _expect(entry["duration_ns"] >= 0, where,
            "'duration_ns' must be non-negative")


def _expect_list(doc: dict, key: str, where: str) -> list:
    value = doc.get(key)
    _expect(isinstance(value, list), where, f"{key!r} must be a list")
    return value


def validate_stats(doc: Any, where: str = "$") -> None:
    """Validate one document of either schema; raises :class:`SchemaError`
    on the first problem, returns ``None`` when the document is valid."""
    _expect(isinstance(doc, dict), where, "document must be an object")
    schema = doc.get("schema")
    if schema == COLLECTION_SCHEMA:
        for i, run in enumerate(_expect_list(doc, "runs", where)):
            validate_stats(run, f"{where}.runs[{i}]")
        return
    _expect(schema == STATS_SCHEMA, where,
            f"unknown schema {schema!r} (expected {STATS_SCHEMA!r} or "
            f"{COLLECTION_SCHEMA!r})")
    _expect(isinstance(doc.get("experiment"), str), where,
            "'experiment' must be a string")
    result, env = doc.get("result"), doc.get("env")
    _expect(isinstance(result, dict), where, "'result' must be an object")
    _expect(isinstance(env, dict), where, "'env' must be an object")

    r_where = f"{where}.result"
    _validate_measures(result.get("totals"),
                       ("moves", "weighted", "instructions"),
                       f"{r_where}.totals")
    _expect(isinstance(result.get("phase_stats"), dict), r_where,
            "'phase_stats' must be an object")
    counters = result.get("counters")
    _expect(isinstance(counters, dict), r_where,
            "'counters' must be an object")
    for name, value in counters.items():
        _expect(isinstance(value, int) and not isinstance(value, bool),
                f"{r_where}.counters", f"{name!r} must map to an integer")
    phases = _expect_list(result, "phases", r_where)
    for i, entry in enumerate(phases):
        _validate_phase(entry, f"{r_where}.phases[{i}]")

    e_where = f"{where}.env"
    _expect_int(env, "events", e_where)
    _validate_measures(env.get("analysis_cache"), ANALYSIS_CACHE_KEYS,
                       f"{e_where}.analysis_cache")
    interp = env.get("interp")
    _expect(isinstance(interp, dict), e_where, "'interp' must be an object")
    _expect(isinstance(interp.get("tier"), str), f"{e_where}.interp",
            "'tier' must be a string")
    _validate_measures(interp.get("code_cache"), INTERP_CODE_CACHE_KEYS,
                       f"{e_where}.interp.code_cache")
    timing = _expect_list(env, "phases", e_where)
    for i, entry in enumerate(timing):
        _validate_timing(entry, f"{e_where}.phases[{i}]")
    _expect([entry["phase"] for entry in timing]
            == [entry["phase"] for entry in phases], e_where,
            "'phases' must time exactly the phases of result.phases")
    if "parallel" in env:  # only when the run went through a pool
        _validate_measures(env["parallel"], PARALLEL_KEYS,
                           f"{e_where}.parallel")
    if "cache" in env:  # only with a persistent cache
        _validate_measures(env["cache"], CACHE_BLOCK_KEYS,
                           f"{e_where}.cache")


def validate_stats_file(path: str) -> dict:
    """Load *path* as JSON, validate it and return the document;
    raises on any problem."""
    with open(path) as handle:
        doc = json.load(handle)
    validate_stats(doc)
    return doc


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.schema",
        description="validate a stats JSON file against the documented "
                    "schema")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    for path in args.files:
        try:
            validate_stats_file(path)
        except (OSError, json.JSONDecodeError, SchemaError) as error:
            print(f"{path}: INVALID: {error}")
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
