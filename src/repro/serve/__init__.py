"""The warm compile service: ``repro serve``.

One-shot CLI runs pay interpreter startup, module import, pool
construction and cold analysis caches on every request.  This package
keeps all of that hot in a long-running process:

* :mod:`.protocol` -- the newline-delimited-JSON request/response
  contract of the unix socket, plus the request fingerprint (built
  from the :mod:`repro.cache.key` fingerprints) behind
  identical-request dedup and the response memo;
* :mod:`.server` -- the asyncio unix-socket server: each request that
  compiles is one task (:func:`.server.compile_request`) sent whole to
  a worker of the persistent :class:`repro.parallel.WorkerPool` as it
  arrives, byte-identical to the serial CLI path; lifetime totals
  behind its ``stats``/``metrics`` ops and a graceful drain on
  SIGTERM/SIGINT;
* :mod:`.client` -- a small blocking client for tests, benchmarks and
  scripting.

See ``docs/serving.md`` for the protocol.
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
