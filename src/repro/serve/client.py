"""Blocking client for the ``repro serve`` unix socket.

One :class:`ServeClient` holds one connection and speaks NDJSON
(:mod:`.protocol`): requests on a connection are answered in order, so
a client instance is safe for one thread; concurrency (requests
compiling at the same time on the server's workers) comes from one
client per thread.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Optional

from .protocol import MAX_REQUEST_BYTES, encode_response


class ServeClient:
    """A connected NDJSON client (context manager)."""

    def __init__(self, socket_path: str, timeout: float = 120.0) -> None:
        self.socket_path = socket_path
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        except OSError:
            self._sock.close()
            raise
        self._reader = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def request(self, obj: dict) -> dict:
        """One request/response round-trip."""
        self._sock.sendall(encode_response(obj))  # same NDJSON framing
        line = self._reader.readline(MAX_REQUEST_BYTES)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def compile(self, source: str, experiment: str = "Lphi,ABI+C",
                variant: str = "base", name: str = "request") -> dict:
        return self.request({"op": "compile", "source": source,
                             "experiment": experiment,
                             "variant": variant, "name": name})

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def metrics_text(self) -> str:
        return self.request({"op": "metrics"})["text"]

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def wait_for_server(socket_path: str, timeout: float = 30.0,
                    interval: float = 0.05) -> None:
    """Poll until the server answers a ping (used after spawning the
    server as a subprocess); raises ``TimeoutError`` otherwise."""
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(socket_path, timeout=5.0) as client:
                if client.ping().get("ok"):
                    return
        except (OSError, ValueError) as error:
            last = error
        time.sleep(interval)
    raise TimeoutError(
        f"no server on {socket_path} after {timeout}s: {last}")
