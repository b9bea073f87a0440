"""The warm compile server.

One process owns the expensive state a one-shot CLI run rebuilds every
time: the imported compiler, a persistent
:class:`~repro.parallel.WorkerPool` (forked once at startup, respawned
on ``BrokenProcessPool``), one process-lifetime
:class:`~repro.cache.CompilationCache` (a private temporary directory
unless ``--cache-dir`` pins it).  Requests arrive over a unix socket
(NDJSON, see :mod:`.protocol`).  Each request that compiles is one
task, :func:`compile_request`, sent whole to a pool worker as soon as
it arrives, so concurrent connections compile at the same time; without
a pool the same task runs on a one-thread executor.  Identical requests
collapse via the cache-key fingerprint twice over: concurrent ones ride
the same in-flight task, repeats hit a bounded response memo and skip
compilation (and parsing) entirely -- compilation is deterministic, so
byte-identical input through an identical pipeline owns its response
bytes.

``stats`` reports pool health and the server's lifetime totals
(:attr:`CompileServer.totals`); ``metrics`` renders the same totals as
Prometheus counter lines.  SIGTERM/SIGINT (or the ``shutdown`` op)
drains in-flight requests, closes the pool and exits.

Concurrency discipline: the event loop owns the totals and all
bookkeeping (JSON, fingerprints, memo); compiling happens only in
:func:`compile_request`, on a pool worker or the one-thread executor.
The pool is warmed *before* any server thread starts, so the fork never
races thread state.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from ..cache import resolve_cache
from ..ir.printer import format_module
from ..observability.statdiff import stats_digest
from ..parallel import Job, WorkerPool, fork_available, resolve_jobs
from ..pipeline import run_jobs
from .protocol import (MAX_REQUEST_BYTES, SERVE_SCHEMA, ProtocolError,
                       decode_request, encode_response, error_response,
                       parse_compile)

#: Entries of the response memo (least recently used evicted first).
MEMO_SIZE = 256


def compile_request(request, cache) -> dict:
    """Parse and compile one :class:`~.protocol.CompileRequest` serially
    and return its finished response: ``{"ok": false}`` for a parse or
    compile error, never an exception.

    The server's one compile task, run on a pool worker or its
    one-thread executor.  ``stats_digest`` hashes the stats document's
    ``result`` block, which is exactly what an untraced one-shot
    ``repro compile`` produces for this request (cache traffic lives in
    ``env``, which the digest never reads), so responses are
    byte-identical to the CLI.
    """
    try:
        module = request.ensure_module()
    except ProtocolError as error:
        return error_response(error)
    [result] = run_jobs([Job(module, request.experiment, request.phases,
                             request.options)], jobs=1, cache=cache)
    if isinstance(result, Exception):
        return error_response(f"{type(result).__name__}: {result}")
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
    }


class CompileServer:
    """The long-running compile service (see module docstring).

    Construct, then either ``asyncio.run(server.run())`` (the CLI path:
    installs signal handlers, serves until shutdown) or drive
    ``start()``/``shutdown()`` from an existing loop (the tests', via
    :class:`ThreadedServer`).
    """

    def __init__(self, socket_path: str, jobs: Optional[int] = None,
                 cache=None) -> None:
        self.socket_path = socket_path
        self.jobs = resolve_jobs(jobs)
        self.pool = WorkerPool(self.jobs) \
            if self.jobs > 1 and fork_available() else None
        self.cache = resolve_cache(cache)
        self._cache_tempdir: Optional[str] = None
        if self.cache is None:
            # Cross-request cache heat by default: a private store that
            # lives and dies with the server process.
            self._cache_tempdir = tempfile.mkdtemp(prefix="repro-serve-")
            self.cache = resolve_cache(self._cache_tempdir)
        #: Lifetime totals: request counts, summed request wall time and
        #: the summed ``cache.*``/``analysis.*`` traffic of every
        #: compiled response (keys added as they first appear).
        #: ``batches`` and ``batched_requests`` both count compile
        #: dispatches (one request each); perfbench reads their ratio.
        self.totals: dict[str, float] = {
            "requests": 0, "errors": 0, "dedup_hits": 0, "memo_hits": 0,
            "batches": 0, "batched_requests": 0, "request_seconds": 0.0}
        self.started = time.time()
        #: Response memo: fingerprint -> finished ok-response (LRU,
        #: :data:`MEMO_SIZE` entries).  A hit answers without parsing or
        #: compiling.
        self._memo: OrderedDict[str, dict] = OrderedDict()
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        #: Runs :func:`compile_request` when there is no pool, or when
        #: a respawned pool broke too.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-compile")
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the pool and open the socket."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        if self.pool is not None:
            # Fork the workers before any request thread exists.
            self.pool.warm()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a crash
        self._server = await asyncio.start_unix_server(
            self._handle_socket, path=self.socket_path,
            limit=MAX_REQUEST_BYTES)

    async def run(self) -> None:
        """CLI entry: serve until SIGTERM/SIGINT or a ``shutdown`` op."""
        await self.start()
        if threading.current_thread() is threading.main_thread():
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.ensure_future(self.shutdown()))
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish every in-flight
        request, close the pool, remove the socket and the private cache
        directory."""
        if self._draining:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if self._inflight:
            await asyncio.gather(*list(self._inflight.values()),
                                 return_exceptions=True)
        # One scheduling round so handler coroutines can write their
        # final responses before the loop is torn down.
        await asyncio.sleep(0.1)
        if self.pool is not None:
            await self._loop.run_in_executor(None, self.pool.close)
        self._executor.shutdown(wait=True)
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        if self._cache_tempdir is not None:
            shutil.rmtree(self._cache_tempdir, ignore_errors=True)
        self._stopped.set()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def handle_line(self, line: bytes) -> dict:
        try:
            obj = decode_request(line)
        except ProtocolError as error:
            self.totals["errors"] += 1
            return error_response(error)
        return await self.handle(obj)

    async def handle(self, obj: dict) -> dict:
        op = obj.get("op", "compile")
        if op == "ping":
            return {"ok": True, "schema": SERVE_SCHEMA,
                    "pid": os.getpid(), "draining": self._draining}
        if op == "stats":
            return self.stats_document()
        if op == "metrics":
            return {"ok": True, "text": self.metrics_text()}
        if op == "shutdown":
            asyncio.ensure_future(self.shutdown())
            return {"ok": True, "draining": True}
        return await self._compile(obj)

    async def _compile(self, obj: dict) -> dict:
        start = time.perf_counter()
        if self._draining:
            self.totals["errors"] += 1
            return error_response("server is draining")
        try:
            request = parse_compile(obj)
        except ProtocolError as error:
            self.totals["errors"] += 1
            return error_response(error)

        fingerprint = request.fingerprint
        memoized = self._memo.get(fingerprint)
        if memoized is not None:
            self._memo.move_to_end(fingerprint)
            self.totals["memo_hits"] += 1
            response = dict(memoized)
            response["memo"] = True
            return self._answered(response, start)
        existing = self._inflight.get(fingerprint)
        if existing is not None:
            # Identical request already compiling: ride its result.
            self.totals["dedup_hits"] += 1
            response = dict(await asyncio.shield(existing))
            response["deduped"] = True
        else:
            task = asyncio.ensure_future(self._dispatch(request))
            self._inflight[fingerprint] = task
            task.add_done_callback(
                lambda _: self._inflight.pop(fingerprint, None))
            response = dict(await asyncio.shield(task))
        if not response.get("ok"):
            self.totals["errors"] += 1
        return self._answered(response, start)

    def _answered(self, response: dict, start: float) -> dict:
        """Stamp *response* with its wall time and count it."""
        wall = time.perf_counter() - start
        response["wall_s"] = round(wall, 6)
        self.totals["requests"] += 1
        self.totals["request_seconds"] += wall
        return response

    # ------------------------------------------------------------------
    # Dispatch: each request is one task, started as soon as it arrives
    # ------------------------------------------------------------------
    async def _dispatch(self, request) -> dict:
        """Compile *request* (:meth:`_run`), then count its traffic and
        memoize a success."""
        try:
            response = await self._run(request)
        except Exception as error:  # noqa: BLE001 -- request must answer
            response = error_response(f"{type(error).__name__}: {error}")
        self.totals["batches"] += 1
        self.totals["batched_requests"] += 1
        for block, prefix in (("cache", "cache."),
                              ("analysis_cache", "analysis.")):
            for key, value in (response.get(block) or {}).items():
                self.totals[prefix + key] = \
                    self.totals.get(prefix + key, 0) + value
        if response.get("ok"):
            self._memo[request.fingerprint] = response
            while len(self._memo) > MEMO_SIZE:
                self._memo.popitem(last=False)
        return response

    async def _run(self, request) -> dict:
        """Run :func:`compile_request` on a pool worker.  A worker that
        dies under it (``BrokenProcessPool``) respawns the pool -- once
        per broken executor, however many requests it took down -- and
        the request is resubmitted once; if that fails too, or there is
        no pool, the task runs on the one-thread executor."""
        if self.pool is not None:
            for _ in range(2):
                future = self.pool.submit(compile_request, request,
                                          self.cache)
                if future is None:
                    break
                generation = self.pool.respawns
                try:
                    return await asyncio.wrap_future(future)
                except BrokenProcessPool:
                    if self.pool.respawns == generation:
                        self.pool.respawn()
        return await self._loop.run_in_executor(
            self._executor,
            functools.partial(compile_request, request, self.cache))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def worker_pids(self) -> list[int]:
        """The pool's live worker pids (after a respawn, the new ones)."""
        return self.pool.pids if self.pool is not None else []

    def stats_document(self) -> dict:
        return {
            "ok": True,
            "schema": SERVE_SCHEMA,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started, 3),
            "jobs": self.jobs,
            "draining": self._draining,
            "inflight": len(self._inflight),
            "pool": {"workers": self.pool.workers,
                     "alive": self.pool.alive,
                     "respawns": self.pool.respawns,
                     "pids": self.worker_pids}
                    if self.pool is not None else None,
            "cache_dir": self.cache.path,
            "serve": dict(self.totals),
        }

    def metrics_text(self) -> str:
        """:attr:`totals` in Prometheus text format: one counter per
        total (``repro_serve_cache_hits_total``) and the request wall
        time as a summary (``repro_serve_request_seconds_sum`` and
        ``_count``)."""
        lines = []
        for key, value in self.totals.items():
            name = "repro_serve_" + key.replace(".", "_")
            if key == "request_seconds":
                lines += [f"# TYPE {name} summary", f"{name}_sum {value!r}",
                          f"{name}_count {self.totals['requests']}"]
            else:
                lines += [f"# TYPE {name}_total counter",
                          f"{name}_total {value}"]
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def _handle_socket(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversized request or peer reset
                if not line:
                    break
                response = await self.handle_line(line)
                writer.write(encode_response(response))
                await writer.drain()
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()



class ThreadedServer:
    """Run a :class:`CompileServer` on a background thread -- the test
    harness (`with ThreadedServer(server) as handle:`).
    ``stop()`` performs the same graceful drain as SIGTERM."""

    def __init__(self, server: CompileServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> "ThreadedServer":
        self._thread = threading.Thread(target=self._main,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to start")
        if self._error is not None:
            raise RuntimeError(
                f"serve startup failed: {self._error}")
        return self

    def _main(self) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as error:  # surface to start()
                self._error = error
                self._ready.set()
                return
            self._ready.set()
            await self.server._stopped.wait()

        asyncio.run(body())

    def stop(self, timeout: float = 60) -> None:
        if self._loop is None or self._error is not None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop)
        future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
