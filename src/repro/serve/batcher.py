"""Request batching: many in-flight compiles, one engine call.

The server drains its queue into a *batch* and hands it here.  Each
request is one job of :func:`repro.parallel.run_units`, so every
``(request, function)`` pair is one work unit and the engine's
greedy-LPT placement spans request boundaries -- one large request and
five small ones fill the pool evenly instead of queueing behind each
other.  Each request's payloads merge through
:func:`repro.parallel.merge_job`, which assembles them with the same
:func:`repro.pipeline.fold` the serial path uses for its own output
and its cache hits -- that is what makes a batched response
**byte-identical** to the serial CLI path: same module order, same
``phase_stats`` sequencing, same summed counters.

Failures stay per-request: a request whose compile raises (validation
error, malformed IR that parsed but does not compile) turns into that
request's ``{"ok": false}`` response; the other requests in the batch
are unaffected.

The serial path (no pool, pool broke, or a batch of one single-function
request) runs in the server process against the same cache directory,
so cache heat is identical either way.  Every request compiles untraced
for the ST120 target with IR validation on, as the one-shot
``repro compile`` the responses are byte-identical to does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..ir.printer import format_module
from ..machine.st120 import ST120
from ..observability.statdiff import stats_digest
from ..parallel import Job, merge_job, run_units
from .protocol import ProtocolError


@dataclass
class ServeJob:
    """One compile request travelling through the batcher."""

    rid: int
    request: object  # protocol.CompileRequest
    #: Set by the server: the asyncio future the response resolves.
    future: object = None
    #: Filled by :func:`run_batch`.
    response: Optional[dict] = None


def _error(error: Exception) -> dict:
    return {"ok": False, "error": f"{type(error).__name__}: {error}"}


def _respond(result, batch: dict) -> dict:
    """Build the success response.  ``stats_digest`` hashes the stats
    document's ``result`` block, which is exactly what an untraced
    serial :func:`repro.pipeline.run_phases` produces for this request
    (pool shape and cache traffic live in ``env``, which the digest
    never reads), so it matches the one-shot CLI at any jobs setting."""
    return {
        "ok": True,
        "experiment": result.name,
        "module": format_module(result.module),
        "moves": result.moves,
        "weighted": result.weighted,
        "instructions": result.instructions,
        "stats_digest": stats_digest(result.to_stats()),
        "analysis_cache": dict(result.analysis_cache),
        "cache": dict(result.cache),
        "batch": batch,
    }


def _run_serial(jobs: Sequence[ServeJob], cache) -> None:
    """In-process fallback: each request through ``run_phases`` against
    the server's own cache handle."""
    from .. import pipeline as _pipeline

    for job in jobs:
        request = job.request
        try:
            result = _pipeline.run_phases(
                request.module, request.experiment, request.phases,
                request.options, ST120, cache=cache)
        except Exception as error:  # noqa: BLE001 -- per-request isolation
            job.response = _error(error)
        else:
            job.response = _respond(
                result, {"size": len(jobs), "mode": "serial", "shards": 1})


def run_batch(jobs: Sequence[ServeJob], pool=None, cache=None) -> None:
    """Compile every job of the batch, filling ``job.response``.

    With a :class:`~repro.parallel.WorkerPool`, the whole batch is one
    :func:`~repro.parallel.run_units` call; without one -- or when the
    engine declines (see :mod:`repro.parallel`) -- requests run
    serially in-process.  Either way every job ends with a response
    dict (``ok`` true or false); this function does not raise for
    per-request failures.
    """
    jobs = [job for job in jobs if job.response is None]
    # Parse here, in the batch worker thread: the event loop only ever
    # touched the fingerprint.  A parse failure is that request's error
    # response, nothing more.
    parsed = []
    for job in jobs:
        try:
            job.request.ensure_module()
        except ProtocolError as error:
            job.response = {"ok": False, "error": str(error)}
        else:
            parsed.append(job)
    jobs = parsed
    if not jobs:
        return
    sharded = None
    if pool is not None:
        sharded = run_units(
            [Job(job.request.module, job.request.experiment,
                 job.request.phases, job.request.options) for job in jobs],
            pool=pool, cache=cache)
    if sharded is None:
        _run_serial(jobs, cache)
        return

    workers, pool_ns, outcomes = sharded
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, Exception):
            job.response = _error(outcome)
            continue
        request = job.request
        result = merge_job(request.module, request.experiment, outcome,
                           workers=workers, pool_ns=pool_ns)
        job.response = _respond(result, {"size": len(jobs), "mode": "pool",
                                         "workers": workers,
                                         "shards": len(outcome)})
