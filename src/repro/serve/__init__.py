"""The warm compile service: ``repro serve``.

One-shot CLI runs pay interpreter startup, module import, pool
construction and cold analysis caches on every request.  This package
keeps all of that hot in a long-running process:

* :mod:`.protocol` -- the newline-delimited-JSON request/response
  contract shared by the unix-socket and HTTP transports, plus the
  request fingerprint (built from the :mod:`repro.cache.key`
  fingerprints) behind identical-request dedup;
* :mod:`.batcher` -- coalesces concurrent in-flight requests into one
  call of the parallel engine on the persistent
  :class:`repro.parallel.WorkerPool` (deterministic LPT over every
  request's functions) and merges the results back per request,
  byte-identical to the serial CLI path;
* :mod:`.server` -- the asyncio server (unix socket, optional
  localhost HTTP) with live ``stats``/``metrics`` endpoints, graceful
  drain on SIGTERM/SIGINT and a final ledger record;
* :mod:`.client` -- a small blocking client for tests, benchmarks and
  scripting;
* :mod:`.bench` -- the closed-loop load generator behind
  ``benchmarks/bench_serve.py`` and ``BENCH_serve.json``.

See ``docs/serving.md`` for the protocol and deployment knobs.
"""

from .client import ServeClient, wait_for_server
from .protocol import (SERVE_SCHEMA, ProtocolError, error_response,
                       request_fingerprint)
from .server import CompileServer, ThreadedServer

__all__ = [
    "CompileServer", "ThreadedServer", "ServeClient", "wait_for_server",
    "SERVE_SCHEMA", "ProtocolError", "error_response",
    "request_fingerprint",
]
