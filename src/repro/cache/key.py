"""Cache-key derivation: canonical fingerprints of what compilation reads.

A cached out-of-SSA result is only reusable when *everything* the
pipeline looked at is unchanged.  Four inputs determine the output of
:func:`repro.pipeline.run_phases` for one function:

1. **The function's IR.**  Canonicalized through the round-trippable
   printer (:func:`repro.ir.printer.format_function`) plus the variable
   metadata the textual form elides -- register classes and physical
   origins are part of a :class:`~repro.ir.types.Var`'s identity but not
   of its printed name, and they steer ABI pinning and coalescing.  The
   fresh-name counters are included too: two textually identical
   functions with different ``new_var`` counters produce differently
   named temporaries.
2. **The resolved phase list and options.**  The phase tuple is the
   experiment's actual content (two Table 1 labels with the same phases
   share entries); :class:`~repro.pipeline.PhaseOptions` fields are
   hashed by name so adding a knob changes every key.
3. **The target** (name, register file, tied-operand table is code).
4. **The code version salt** (:func:`code_version`): a digest over the
   ``repro`` package's own source files, so editing any pass invalidates
   the whole store without anyone remembering to bump a constant.

Keys are hex SHA-256 digests; the store fans them out as
``objects/<first two hex chars>/<rest>`` (see :mod:`.store`).
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Optional

from ..ir.function import Function
from ..ir.printer import format_function
from ..ir.types import PhysReg, Var

_code_version: Optional[str] = None


def code_version() -> str:
    """A digest of the ``repro`` package's source tree (computed once
    per process).

    Any edit to any compiler source file yields a different salt and
    therefore a cold cache -- stale artifacts can never be replayed
    across code changes, the classic content-addressed-store guarantee
    (ccache, Bazel, XLA's kernel caches all do the same).
    """
    global _code_version
    if _code_version is None:
        from .. import __version__  # deferred: repro/__init__ imports us

        package_root = os.path.dirname(os.path.dirname(__file__))
        digest = hashlib.sha256(__version__.encode())
        for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_version = digest.hexdigest()
    return _code_version


def _variable_metadata(function: Function) -> list[str]:
    """The per-variable facts the printed text does not carry.

    Register classes and physical origins are not printed but are
    compilation-relevant (the validator allows one value per printed
    name, so the name keys them); pin *resources* are walked too so a
    pin to a variable that never occurs as an operand still contributes
    its class.
    """
    seen: dict[str, str] = {}
    for instr in function.instructions():
        for op in instr.operands():
            for value in (op.value, op.pin):
                if isinstance(value, Var):
                    origin = value.origin.name if value.origin else ""
                    seen[value.name] = \
                        f"{value.name}:{value.regclass.value}:{origin}"
                elif isinstance(value, PhysReg):
                    seen[f"${value.name}"] = \
                        f"${value.name}:{value.regclass.value}"
    return [seen[name] for name in sorted(seen)]


def function_fingerprint(function: Function) -> str:
    """Canonical serialization of one function's compilation-relevant
    state: printed IR + variable metadata + fresh-name counters."""
    parts = [format_function(function)]
    parts.extend(_variable_metadata(function))
    parts.append(f"counters:{function._temp_counter}"
                 f":{function._label_counter}")
    return "\n".join(parts)


def options_fingerprint(options) -> str:
    """The phase options as a stable ``name=value`` line (``None`` --
    the defaults -- hashes like an explicit default instance)."""
    if options is None:
        from ..pipeline import PhaseOptions

        options = PhaseOptions()
    fields = sorted(vars(options).items())
    return ";".join(f"{name}={value!r}" for name, value in fields)


def target_fingerprint(target) -> str:
    """Target identity: name plus the register file (per-register
    class); the tied-operand table is code, covered by the salt."""
    registers = ",".join(
        f"{name}:{reg.regclass.value}"
        for name, reg in sorted(target.registers.items()))
    return f"{target.name}[{registers}]sp={target.stack_pointer.name}"


def cache_key(function: Function, phases: Iterable[str], options,
              target) -> str:
    """The content-addressed key for one ``(function, pipeline)`` pair."""
    digest = hashlib.sha256()
    for part in (code_version(), "|".join(phases),
                 options_fingerprint(options), target_fingerprint(target),
                 function_fingerprint(function)):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()
