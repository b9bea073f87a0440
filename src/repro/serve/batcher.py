"""Request batching: many in-flight compiles, one driver call.

The server drains its queue into a *batch* and hands it here.  The
whole batch is one :func:`repro.pipeline.run_jobs` call, each request
one job of it, so with the server's pool every ``(request, function)``
pair is one work unit and the engine's greedy-LPT placement spans
request boundaries -- one large request and five small ones fill the
pool evenly instead of queueing behind each other.  Each request's
payloads merge through the same :func:`repro.pipeline.fold` the serial
path uses for its own output and its cache hits -- that is what makes a
batched response **byte-identical** to the serial CLI path: same module
order, same ``phase_stats`` sequencing, same summed counters.

Failures stay per-request: a request whose compile raises (validation
error, malformed IR that parsed but does not compile) turns into that
request's ``{"ok": false}`` response; the other requests in the batch
are unaffected.

Without a pool (or when the engine declines: the pool broke, or a batch
of one single-function request) ``run_jobs`` runs the requests serially
in the server process against the same cache directory, so cache heat
is identical either way.  Every request compiles untraced for the ST120
target, as the one-shot ``repro compile`` the responses are
byte-identical to does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..ir.printer import format_module
from ..observability.statdiff import stats_digest
from ..parallel import Job
from ..pipeline import run_jobs
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


def _respond(result, size: int) -> dict:
    """Build the success response.  ``stats_digest`` hashes the stats
    document's ``result`` block, which is exactly what an untraced
    serial :func:`repro.pipeline.run_phases` produces for this request
    (pool shape and cache traffic live in ``env``, which the digest
    never reads), so it matches the one-shot CLI at any jobs setting.
    The ``batch`` block reads the pool shape from ``result.parallel``,
    empty for a serial run."""
    parallel = result.parallel
    batch = {"size": size, "mode": "pool", "workers": parallel["jobs"],
             "shards": len(parallel["shards"])} if parallel \
        else {"size": size, "mode": "serial", "shards": 1}
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


def run_batch(jobs: Sequence[ServeJob], pool=None, cache=None) -> None:
    """Compile every job of the batch through one
    :func:`~repro.pipeline.run_jobs` call (serially in-process when
    there is no :class:`~repro.parallel.WorkerPool`), filling
    ``job.response``.  Every job ends with a response dict (``ok`` true
    or false); this function does not raise for per-request failures.
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
    results = run_jobs(
        [Job(job.request.module, job.request.experiment,
             job.request.phases, job.request.options) for job in jobs],
        jobs=1 if pool is None else None, pool=pool, cache=cache)
    for job, result in zip(jobs, results):
        if isinstance(result, Exception):
            job.response = {"ok": False,
                            "error": f"{type(result).__name__}: {result}"}
        else:
            job.response = _respond(result, len(jobs))
