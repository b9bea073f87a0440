"""The warm compile server.

One process owns the expensive state a one-shot CLI run rebuilds every
time: the imported compiler, a persistent
:class:`~repro.parallel.WorkerPool` (forked once at startup, respawned
on ``BrokenProcessPool``), one process-lifetime
:class:`~repro.cache.CompilationCache` (a private temporary directory
unless ``--cache-dir`` pins it).  Requests arrive
over a unix socket (NDJSON, see :mod:`.protocol`) and optionally a
minimal localhost HTTP listener; concurrent in-flight compiles are
coalesced by the batch loop into one call of the parallel engine
(:mod:`.batcher`), and identical requests collapse via the cache-key
fingerprint twice over: concurrent ones ride the same in-flight
future, repeats hit a bounded response memo and skip compilation (and
parsing) entirely -- compilation is deterministic, so byte-identical
input through an identical pipeline owns its response bytes.

Everything observable is live: ``stats`` reports queue depth, pool
health, dedup and latency percentiles; ``metrics`` serves the
Prometheus exposition of the server's own
:class:`~repro.observability.MetricsRegistry`.  SIGTERM/SIGINT (or the
``shutdown`` op) drains in-flight requests, closes the pool, appends a
final lifetime record to the run ledger and exits.

Concurrency discipline: the event loop owns the metrics registry and
all bookkeeping; the single-threaded batch executor only runs
:func:`~repro.serve.batcher.run_batch`; pool workers are separate
processes.  The pool is warmed *before* any server thread starts, so
the fork never races thread state.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..analysis.manager import AnalysisManager
from ..cache import resolve_cache
from ..ir.function import Module
from ..machine.st120 import ST120
from ..machine.target import Target
from ..observability.ledger import make_record, resolve_ledger
from ..pipeline import ExperimentResult
from ..observability.metrics import COUNT_BOUNDS, MetricsRegistry
from ..parallel import WorkerPool, fork_available, resolve_jobs
from .batcher import ServeJob, run_batch
from .protocol import (MAX_REQUEST_BYTES, SERVE_SCHEMA, ProtocolError,
                       decode_request, encode_response, error_response,
                       parse_compile)

#: Queue sentinel: everything before it drains, then the batch loop
#: exits.
_STOP = None


class CompileServer:
    """The long-running compile service (see module docstring).

    Construct, then either ``asyncio.run(server.run())`` (the CLI path:
    installs signal handlers, serves until shutdown) or drive
    ``start()``/``shutdown()`` from an existing loop (the tests', via
    :class:`ThreadedServer`).
    """

    def __init__(self, socket_path: Optional[str] = None,
                 http_port: Optional[int] = None,
                 http_host: str = "127.0.0.1",
                 jobs: Optional[int] = None,
                 cache=None, ledger=None,
                 batch_window: float = 0.0,
                 target: Target = ST120,
                 validate: bool = True,
                 memo_size: int = 256) -> None:
        if socket_path is None and http_port is None:
            raise ValueError("serve needs a unix socket path and/or an "
                             "HTTP port")
        self.socket_path = socket_path
        self.http_host = http_host
        self.http_port = http_port
        self.jobs = resolve_jobs(jobs)
        self.batch_window = batch_window
        self.target = target
        self.validate = validate
        self.pool = WorkerPool(self.jobs) \
            if self.jobs > 1 and fork_available() else None
        self.cache = resolve_cache(cache)
        self._cache_tempdir: Optional[str] = None
        if self.cache is None:
            # Cross-request cache heat by default: a private store that
            # lives and dies with the server process.
            self._cache_tempdir = tempfile.mkdtemp(prefix="repro-serve-")
            self.cache = resolve_cache(self._cache_tempdir)
        self.ledger = resolve_ledger(ledger)
        self.metrics = MetricsRegistry()
        #: Serial-path lifetime analysis manager (flushed after every
        #: request).
        self.analyses = AnalysisManager()
        self.started = time.time()
        self.worker_pids: list[int] = []
        self._rid = 0
        #: Response memo: fingerprint -> finished ok-response (LRU,
        #: ``memo_size`` entries, 0 disables).  A hit answers without
        #: parsing or compiling.
        self.memo_size = memo_size
        self._memo: OrderedDict[str, dict] = OrderedDict()
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._batch_task: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch")
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the pool and open the listeners."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stopped = asyncio.Event()
        if self.pool is not None:
            # Fork the workers before any request thread exists.
            self.worker_pids = self.pool.warm()
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a crash
            self._servers.append(await asyncio.start_unix_server(
                self._handle_socket, path=self.socket_path,
                limit=MAX_REQUEST_BYTES))
        if self.http_port is not None:
            server = await asyncio.start_server(
                self._handle_http, host=self.http_host,
                port=self.http_port, limit=MAX_REQUEST_BYTES)
            if self.http_port == 0:  # OS-assigned: publish the real port
                self.http_port = \
                    server.sockets[0].getsockname()[1]
            self._servers.append(server)
        self._batch_task = asyncio.ensure_future(self._batch_loop())

    async def run(self, ready=None) -> None:
        """CLI entry: serve until SIGTERM/SIGINT or a ``shutdown`` op.
        ``ready`` is called once the listeners are open (after an
        ``--http 0`` port has been resolved) -- the CLI banner hook."""
        await self.start()
        if threading.current_thread() is threading.main_thread():
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.ensure_future(self.shutdown()))
        if ready is not None:
            ready()
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish every queued and
        in-flight request, close the pool, flush the final ledger
        record."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        await self._queue.put(_STOP)
        if self._batch_task is not None:
            await self._batch_task
        if self._inflight:
            await asyncio.gather(*list(self._inflight.values()),
                                 return_exceptions=True)
        # One scheduling round so handler coroutines can write their
        # final responses before the loop is torn down.
        await asyncio.sleep(0.1)
        if self.pool is not None:
            await self._loop.run_in_executor(None, self.pool.close)
        self._executor.shutdown(wait=True)
        self._final_ledger_record()
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
        if self._cache_tempdir is not None:
            shutil.rmtree(self._cache_tempdir, ignore_errors=True)
        self._stopped.set()

    def _final_ledger_record(self) -> None:
        if self.ledger is None:
            return
        result = ExperimentResult(name="serve", module=Module("serve"))
        record = make_record(result, suite="serve", jobs=self.jobs,
                             wall_s=None,
                             metrics=self.metrics.snapshot())
        record["serve"] = self._lifetime_stats()
        self.ledger.append(record)

    def _lifetime_stats(self) -> dict:
        latency = self.metrics.histogram("serve.request_seconds")
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "requests": self.metrics.counter("serve.requests").value,
            "errors": self.metrics.counter("serve.errors").value,
            "dedup_hits": self.metrics.counter("serve.dedup_hits").value,
            "memo_hits": self.metrics.counter("serve.memo_hits").value,
            "batches": self.metrics.counter("serve.batches").value,
            "batched_requests":
                self.metrics.counter("serve.batched_requests").value,
            "respawns": self.pool.respawns if self.pool else 0,
            "latency": latency.percentiles(),
        }

    # ------------------------------------------------------------------
    # Request handling (both transports end up in handle())
    # ------------------------------------------------------------------
    async def handle_line(self, line: bytes) -> dict:
        try:
            obj = decode_request(line)
        except ProtocolError as error:
            self.metrics.counter("serve.errors").inc()
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
            return {"ok": True, "text": self.metrics.to_prometheus()}
        if op == "shutdown":
            asyncio.ensure_future(self.shutdown())
            return {"ok": True, "draining": True}
        return await self._compile(obj)

    async def _compile(self, obj: dict) -> dict:
        start = time.perf_counter()
        if self._draining:
            self.metrics.counter("serve.errors").inc()
            return error_response("server is draining")
        try:
            request = parse_compile(obj, self.target)
        except ProtocolError as error:
            self.metrics.counter("serve.errors").inc()
            return error_response(error)

        fingerprint = request.fingerprint
        memoized = self._memo.get(fingerprint)
        if memoized is not None:
            self._memo.move_to_end(fingerprint)
            self.metrics.counter("serve.memo_hits").inc()
            response = dict(memoized)
            response["memo"] = True
            wall = time.perf_counter() - start
            response["wall_s"] = round(wall, 6)
            self.metrics.counter("serve.requests").inc()
            self.metrics.histogram("serve.request_seconds").observe(wall)
            return response
        existing = self._inflight.get(fingerprint)
        if existing is not None:
            # Identical request already compiling: ride its result.
            self.metrics.counter("serve.dedup_hits").inc()
            response = dict(await asyncio.shield(existing))
            response["deduped"] = True
        else:
            future = self._loop.create_future()
            self._inflight[fingerprint] = future
            future.add_done_callback(
                lambda _: self._inflight.pop(fingerprint, None))
            self._rid += 1
            job = ServeJob(rid=self._rid, request=request, future=future)
            self._queue.put_nowait(job)
            response = dict(await asyncio.shield(future))

        wall = time.perf_counter() - start
        response["wall_s"] = round(wall, 6)
        self.metrics.counter("serve.requests").inc()
        self.metrics.histogram("serve.request_seconds").observe(wall)
        if not response.get("ok"):
            self.metrics.counter("serve.errors").inc()
        return response

    # ------------------------------------------------------------------
    # The batch loop: one batch at a time, everything queued while the
    # previous batch compiled coalesces into the next one.
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            stop = job is _STOP
            batch = [] if stop else [job]
            if not stop and self.batch_window > 0:
                deadline = self._loop.time() + self.batch_window
                while True:
                    remaining = deadline - self._loop.time()
                    if remaining <= 0:
                        break
                    try:
                        extra = await asyncio.wait_for(
                            self._queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                    if extra is _STOP:
                        stop = True
                        break
                    batch.append(extra)
            while True:  # opportunistic drain: no waiting
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _STOP:
                    stop = True
                else:
                    batch.append(extra)
            if batch:
                await self._run_one_batch(batch)
            if stop:
                return

    async def _run_one_batch(self, batch: list) -> None:
        start = time.perf_counter()
        try:
            await self._loop.run_in_executor(
                self._executor,
                functools.partial(run_batch, batch, pool=self.pool,
                                  cache=self.cache, target=self.target,
                                  validate=self.validate,
                                  analyses=self.analyses))
        except Exception as error:  # noqa: BLE001 -- batch must answer
            for job in batch:
                if job.response is None:
                    job.response = error_response(
                        f"{type(error).__name__}: {error}")
        elapsed = time.perf_counter() - start
        self.metrics.counter("serve.batches").inc()
        self.metrics.counter("serve.batched_requests").inc(len(batch))
        self.metrics.histogram("serve.batch_size",
                               bounds=COUNT_BOUNDS).observe(len(batch))
        self.metrics.histogram("serve.batch_seconds").observe(elapsed)
        for job in batch:
            response = job.response if job.response is not None \
                else error_response("batch produced no response")
            for block, prefix in (("cache", "serve.cache."),
                                  ("analysis_cache", "serve.analysis.")):
                for key, value in (response.get(block) or {}).items():
                    self.metrics.counter(prefix + key).inc(value)
            if response.get("ok") and self.memo_size > 0:
                self._memo[job.request.fingerprint] = response
                while len(self._memo) > self.memo_size:
                    self._memo.popitem(last=False)
            if not job.future.done():
                job.future.set_result(response)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_document(self) -> dict:
        return {
            "ok": True,
            "schema": SERVE_SCHEMA,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started, 3),
            "jobs": self.jobs,
            "draining": self._draining,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight": len(self._inflight),
            "pool": {"workers": self.pool.workers,
                     "alive": self.pool.alive,
                     "respawns": self.pool.respawns,
                     "pids": self.worker_pids}
                    if self.pool is not None else None,
            "cache_dir": self.cache.path,
            "serve": self._lifetime_stats(),
        }

    # ------------------------------------------------------------------
    # Transports
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

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            status, content_type, body = await self._http_response(reader)
            head = (f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n")
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ValueError, ConnectionError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _http_response(self, reader) -> tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode(
            "latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return "400 Bad Request", "text/plain", b"bad request\n"
        method, path = parts[0], parts[1]
        length = 0
        while True:  # headers
            header = (await reader.readline()).decode("latin-1")
            if header in ("\r\n", "\n", ""):
                break
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                with contextlib.suppress(ValueError):
                    length = int(value.strip())
        if method == "GET" and path == "/healthz":
            return "200 OK", "text/plain", b"ok\n"
        if method == "GET" and path == "/stats":
            body = json.dumps(self.stats_document(), indent=2) + "\n"
            return "200 OK", "application/json", body.encode()
        if method == "GET" and path == "/metrics":
            return ("200 OK", "text/plain; version=0.0.4",
                    self.metrics.to_prometheus().encode())
        if method == "POST" and path == "/compile":
            body = await reader.readexactly(length) if length else b""
            response = await self.handle_line(body or b"{}")
            status = "200 OK" if response.get("ok") \
                else "422 Unprocessable Entity"
            return (status, "application/json",
                    json.dumps(response).encode() + b"\n")
        return "404 Not Found", "text/plain", b"not found\n"


class ThreadedServer:
    """Run a :class:`CompileServer` on a background thread -- the test
    and benchmark harness (`with ThreadedServer(server) as handle:`).
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


def serve_forever(**kwargs) -> None:
    """Blocking convenience entry used by the CLI."""
    server = CompileServer(**kwargs)
    asyncio.run(server.run())
