"""The on-disk content-addressed store for per-function results.

Layout (one directory, shareable between processes and runs)::

    <cache-dir>/
        objects/<aa>/<38 more hex chars>.bin     one entry per key

Each entry file is ``MAGIC + sha256(payload) + payload`` where the
payload is a pickled one-function *part* (see
:func:`repro.pipeline.fold`): the translated
:class:`~repro.ir.function.Function`, its per-phase pass statistics,
its per-phase IR measures (so warm runs rebuild the ``phases[]``
breakdown of the stats document) and the decision counters recorded
while it compiled.

Concurrency model -- the one the parallel driver
(:mod:`repro.parallel`) relies on:

* **Writes are atomic.**  An entry is written to a temp file in the
  same fan-out directory and ``os.replace``-d into place, so a reader
  never observes a half-written file; last writer wins, and since keys
  are content-addressed, concurrent writers of one key wrote the same
  bytes anyway.
* **Reads take no locks.**  A probe either sees a complete entry or no
  entry.  Files vanishing mid-read (a concurrent eviction) and payload
  corruption (truncation, bit rot, a stale pickle across Python
  versions) are *misses*, never errors: the pipeline silently
  recompiles and re-stores.
* **Eviction is best-effort LRU.**  Probes freshen an entry's mtime;
  when a ``max_bytes`` cap is set, a store that pushes the directory
  over the cap deletes oldest-mtime entries until it fits.  Races with
  other evictors are ignored.

Per-instance counters (``hits``/``misses``/``stores``/``evictions``/
``corrupt``/``bytes``) feed the ``env.cache`` block of ``repro.stats/v2``
documents; the parallel driver sums them across forked workers.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Iterable, Optional

from ..ir.function import Function
from .key import cache_key

MAGIC = b"repro-cache/1\n"
_DIGEST_SIZE = hashlib.sha256().digest_size

#: Environment variables consulted by :func:`resolve_cache` /
#: :class:`CompilationCache` defaults.
CACHE_DIR_ENV = "REPRO_CACHE"
CACHE_LIMIT_ENV = "REPRO_CACHE_LIMIT"

#: The counter names of the stats ``cache`` block, in emission order.
CACHE_STATS_KEYS = ("hits", "misses", "stores", "evictions", "bytes",
                    "corrupt")

#: Keys every stored payload must carry to be considered intact.
_PAYLOAD_KEYS = frozenset({"functions", "phase_stats", "phases",
                           "counters"})


class CompilationCache:
    """Content-addressed cache of per-function out-of-SSA results."""

    def __init__(self, path: os.PathLike | str,
                 max_bytes: Optional[int] = None) -> None:
        self.path = os.fspath(path)
        self.objects = os.path.join(self.path, "objects")
        if max_bytes is None:
            try:
                max_bytes = int(os.environ.get(CACHE_LIMIT_ENV, "0")) or None
            except ValueError:
                max_bytes = None
        self.max_bytes = max_bytes
        os.makedirs(self.objects, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        self.bytes = 0  # payload bytes written by *this* instance

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key(self, function: Function, phases: Iterable[str], options,
            target) -> str:
        """The content-addressed key of ``(function, pipeline)`` (see
        :mod:`repro.cache.key`)."""
        return cache_key(function, tuple(phases), options, target)

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.objects, key[:2], key[2:] + ".bin")

    # ------------------------------------------------------------------
    # Probe / store
    # ------------------------------------------------------------------
    def probe(self, key: str) -> Optional[dict]:
        """Return the stored payload for *key*, or ``None`` on a miss.

        Any defect -- missing file, bad magic, checksum mismatch,
        truncation, unpicklable or structurally wrong payload -- counts
        the entry as corrupt (except a plain missing file), removes it
        best-effort, and reports a miss: corruption is always recovered
        by recompilation, never surfaced to the pipeline.
        """
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.misses += 1
            return None
        payload = self._decode(blob)
        if payload is None:
            self.corrupt += 1
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        try:  # freshen for LRU eviction; losing the race is harmless
            os.utime(path)
        except OSError:
            pass
        return payload

    def _decode(self, blob: bytes) -> Optional[dict]:
        if not blob.startswith(MAGIC):
            return None
        digest = blob[len(MAGIC):len(MAGIC) + _DIGEST_SIZE]
        body = blob[len(MAGIC) + _DIGEST_SIZE:]
        if hashlib.sha256(body).digest() != digest:
            return None
        try:
            payload = pickle.loads(body)
        except Exception:  # truncated/stale pickles raise many types
            return None
        if not (isinstance(payload, dict)
                and _PAYLOAD_KEYS <= payload.keys()
                and isinstance(payload["functions"], dict)
                and len(payload["functions"]) == 1
                and all(isinstance(function, Function)
                        for function in payload["functions"].values())):
            return None
        return payload

    def store(self, key: str, payload: dict) -> None:
        """Atomically write *payload* under *key* (tempfile +
        ``os.replace`` in the same directory), then evict if over cap."""
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        blob = MAGIC + hashlib.sha256(body).digest() + body
        path = self._entry_path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp_path, path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return  # a full/read-only disk degrades to "no store"
        self.stores += 1
        self.bytes += len(blob)
        if self.max_bytes is not None:
            self._evict(self.max_bytes)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[float, int, str]]:
        """Every entry as ``(mtime, size, path)``; racing deletions are
        skipped."""
        entries = []
        for fan_out in sorted(os.listdir(self.objects)):
            directory = os.path.join(self.objects, fan_out)
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".bin"):
                    continue
                path = os.path.join(directory, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _evict(self, max_bytes: int) -> None:
        """Delete oldest-mtime entries until the store fits *max_bytes*."""
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # another evictor got there first
            total -= size
            self.evictions += 1

    def size_bytes(self) -> int:
        """Current on-disk size of the store (all writers)."""
        return sum(size for _, size, _ in self._entries())

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Lifetime counters of this instance, in ``cache``-block shape."""
        return {name: getattr(self, name) for name in CACHE_STATS_KEYS}

    def stats_since(self, mark: dict[str, int]) -> dict[str, int]:
        """The counter deltas since a :meth:`stats` snapshot -- what one
        pipeline run contributes to its stats document when a single
        cache instance serves many runs (``repro tables``)."""
        return {name: getattr(self, name) - mark.get(name, 0)
                for name in CACHE_STATS_KEYS}

    def __repr__(self) -> str:
        return (f"<CompilationCache {self.path!r} hits={self.hits} "
                f"misses={self.misses} stores={self.stores}>")


def resolve_cache(cache) -> Optional[CompilationCache]:
    """Normalize an optional ``cache=`` argument.

    ``None`` consults ``$REPRO_CACHE`` (unset/empty means caching off);
    a string or path constructs a :class:`CompilationCache` there; a
    cache instance passes through unchanged.
    """
    if cache is None:
        path = os.environ.get(CACHE_DIR_ENV, "")
        return CompilationCache(path) if path else None
    if isinstance(cache, (str, os.PathLike)):
        return CompilationCache(cache)
    return cache
