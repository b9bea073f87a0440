"""The ``repro serve`` wire contract.

The server speaks newline-delimited JSON (NDJSON) over a unix socket:
one request object per line in, one response object per line out,
processed in order per connection.  Concurrency comes from concurrent
connections: the server compiles their requests at the same time.

Requests are ``{"op": ..., ...}``:

``compile``
    ``source`` (LAI text, required), ``experiment`` (Table 1 label,
    default ``Lphi,ABI+C``), ``variant`` (Table 5 coalescer variant,
    default ``base``), ``name`` (module name, default ``request``).
``stats`` / ``metrics`` / ``ping`` / ``shutdown``
    No payload.  ``shutdown`` starts the graceful drain.

Responses always carry ``"ok"``; failures are
``{"ok": false, "error": "..."}`` and never tear down the connection.
A successful compile response carries the byte-identical serial-CLI
artifacts: ``module`` (the ``format_module`` text), the
``moves``/``weighted``/``instructions`` totals, and ``stats_digest``
(:func:`repro.observability.statdiff.stats_digest`, a hash of the
``result`` block of the run's stats document).

:func:`request_fingerprint` is the identity behind identical-request
dedup and the server's response memo: it composes the
:mod:`repro.cache.key` fingerprints (phases, options, target, code
version -- the same pipeline identity the compilation cache keys on)
with the raw LAI source bytes.  The source text *is* the entire
function-level input of a request, so hashing it is equivalent to
hashing every function fingerprint -- and it lets the server recognize
a repeat request without parsing the module at all (parsing happens in
the compile task, off the event loop, only on memo misses).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from ..cache.key import (code_version, options_fingerprint,
                         target_fingerprint)
from ..ir.function import Module
from ..lai import LaiSyntaxError, parse_module
from ..machine.st120 import ST120
from ..pipeline import EXPERIMENTS, PhaseOptions, table5_variants

#: Version tag carried by ``stats`` and ``ping`` responses.
SERVE_SCHEMA = "repro.serve/v3"

#: Maximum request line (bytes) the server accepts -- generous
#: headroom over the largest generated suite (~100 KiB of LAI text).
MAX_REQUEST_BYTES = 16 * 1024 * 1024

OPS = ("compile", "stats", "metrics", "ping", "shutdown")


class ProtocolError(ValueError):
    """A malformed request (bad JSON, unknown op, bad field)."""


def error_response(message: str) -> dict:
    return {"ok": False, "error": str(message)}


def decode_request(line: bytes | str) -> dict:
    """One NDJSON line -> request dict (:class:`ProtocolError` on
    garbage -- the server answers with an error response instead of
    dropping the connection)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"request is not UTF-8: {error}")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON: {error}")
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op", "compile")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of "
                            f"{', '.join(OPS)})")
    obj["op"] = op
    return obj


def encode_response(response: dict) -> bytes:
    """Response dict -> one NDJSON line (compact separators keep the
    framing deterministic)."""
    return (json.dumps(response, separators=(",", ":"),
                       sort_keys=False) + "\n").encode("utf-8")


@dataclass
class CompileRequest:
    """A validated ``compile`` request.

    The module is parsed lazily (:meth:`ensure_module`) so the server
    can answer memo/dedup hits from the fingerprint alone and parsing
    runs in the compile task, not on the event loop.
    """

    source: str
    name: str
    experiment: str
    variant: str
    options: Optional[PhaseOptions]
    fingerprint: str
    module: Optional[Module] = None

    @property
    def phases(self) -> tuple[str, ...]:
        return EXPERIMENTS[self.experiment]

    def ensure_module(self) -> Module:
        if self.module is None:
            try:
                self.module = parse_module(self.source, name=self.name)
            except LaiSyntaxError as error:
                raise ProtocolError(f"parse error: {error}")
        return self.module


def parse_compile(obj: dict) -> CompileRequest:
    """Validate a decoded ``compile`` request object and compute its
    fingerprint (no parsing yet -- see :class:`CompileRequest`).

    Raises :class:`ProtocolError` for anything the server should answer
    with ``{"ok": false}``: missing/bad source text, unknown
    experiment or variant.
    """
    source = obj.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("compile request needs a non-empty "
                            "'source' (LAI text)")
    name = obj.get("name", "request")
    if not isinstance(name, str):
        raise ProtocolError("'name' must be a string")
    experiment = obj.get("experiment", "Lphi,ABI+C")
    if experiment not in EXPERIMENTS:
        raise ProtocolError(
            f"unknown experiment {experiment!r} (expected one of "
            f"{', '.join(sorted(EXPERIMENTS))})")
    variant = obj.get("variant", "base")
    if variant == "base":
        options = None
    else:
        variants = table5_variants()
        if variant not in variants:
            raise ProtocolError(
                f"unknown variant {variant!r} (expected 'base' or one "
                f"of {', '.join(sorted(variants))})")
        options = variants[variant]
    fingerprint = request_fingerprint(source, EXPERIMENTS[experiment],
                                      options, name=name)
    return CompileRequest(source=source, name=name,
                          experiment=experiment, variant=variant,
                          options=options, fingerprint=fingerprint)


def request_fingerprint(source: str, phases, options,
                        name: str = "request") -> str:
    """Identity of one compile request: the pipeline fingerprints of
    :func:`repro.cache.key.cache_key` for the ST120 target (so dedup
    and the compilation cache agree on what "the same pipeline" means)
    over the raw source bytes.  Byte-identical text through an
    identical pipeline is guaranteed an identical response -- the
    invariant the server's in-flight dedup and response memo rely
    on."""
    digest = hashlib.sha256()
    for part in (code_version(), "|".join(phases),
                 options_fingerprint(options), target_fingerprint(ST120),
                 name, source):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()
