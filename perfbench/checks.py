"""Output checks that do not trust the compiler under test.

Every compiled output is read back from its *text* and replayed on the
reference tree-walking interpreter (``repro.interp.interpreter``, not
the closure-compiled tier the pipeline's own verify replay uses), and
its observables are compared with those of the source program on the
same tier.

Reading outputs back: ``repro.lai.parse_module`` rejects one form that
``repro.ir.printer.format_module`` emits once ABI pins are lowered --
a call whose results are physical registers (``call $R0 = f($R0)``).
:class:`OutputParser` is that parser with the call form also accepting
a register result list; the round trip ``format_module(read) == text``
is checked on every output, so the reader cannot silently read
something other than what was printed.  :func:`parser_rejects` counts
how many outputs the unmodified parser rejects, which the traced run
reports as ``lai.output_rejects``.

Verdicts are memoised in a JSON file keyed on the exact bytes checked,
the verify inputs, a digest of the ``repro`` source tree and of this
file, so a rerun that produces identical bytes with identical code
reuses the verdict instead of replaying again; any changed byte is
checked afresh.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.cache.key import code_version
from repro.interp.interpreter import Interpreter, InterpreterError
from repro.ir.instructions import Instruction
from repro.ir.printer import format_module
from repro.lai import LaiSyntaxError, parse_module
from repro.lai.parser import Parser


class OutputParser(Parser):
    """``repro.lai.parser.Parser`` accepting ``call $R0 = f(...)``."""

    def _parse_call(self, line: int) -> Instruction:
        token = self._peek()
        if token.kind not in ("IDENT", "REG"):
            raise self._error(
                "malformed call: expected callee or result list", token)
        after = self.tokens[self.pos + 1]
        operands = []
        if token.kind == "IDENT" and after.kind == "PUNCT" \
                and after.text == "(":
            callee = self._next().text
        else:
            operands = self._parse_operand_list(is_def=True)
            self._expect("PUNCT", "=")
            callee = self._expect("IDENT").text
        self._expect("PUNCT", "(")
        uses = []
        if not self._accept("PUNCT", ")"):
            uses = self._parse_operand_list()
            self._expect("PUNCT", ")")
        return Instruction("call", operands, uses, {"callee": callee})


def digest(*parts: str) -> str:
    """sha256 over NUL-separated text parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def parser_rejects(text: str) -> bool:
    """Whether ``repro.lai.parse_module`` refuses *text*."""
    try:
        parse_module(text)
    except LaiSyntaxError:
        return True
    return False


def reference_run(module, verify) -> tuple[list, int]:
    """Observables of every verify run on the reference tier, and the
    total interpreter steps."""
    observed, steps = [], 0
    for fn_name, args in verify:
        trace = Interpreter(module).run(fn_name, list(args))
        observed.append(trace.observable())
        steps += trace.steps
    return observed, steps


class Verdicts:
    """Persistent memo of check results (see the module docstring)."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(__file__, "rb") as handle:
            checker = hashlib.sha256(handle.read()).hexdigest()
        self.salt = digest(code_version(), checker)
        try:
            with open(path) as handle:
                self.table = json.load(handle)
        except (OSError, ValueError):
            self.table = {}

    def get(self, key: str, compute):
        full = digest(self.salt, key)
        if full not in self.table:
            self.table[full] = compute()
        return self.table[full]

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.table, handle)
        os.replace(tmp, self.path)


def source_observables(verdicts: Verdicts, source: str, name: str,
                       verify) -> list:
    """Reference-tier observables of the source program (memoised)."""
    def compute():
        observed, _ = reference_run(parse_module(source, name=name),
                                    verify)
        return repr(observed)
    return verdicts.get(digest("source", source, repr(verify)), compute)


def check_output(verdicts: Verdicts, source: str, name: str, verify,
                 output: str) -> dict:
    """Read *output* back and replay it against *source*.

    Returns ``{"ok", "steps", "detail", "rejected"}``: ``steps`` is the
    reference-tier step total of the output over *verify*, and
    ``rejected`` whether the unmodified parser refuses the text.
    """
    expected = source_observables(verdicts, source, name, verify)

    def compute():
        verdict = {"ok": False, "steps": 0, "detail": "",
                   "rejected": parser_rejects(output)}
        try:
            module = OutputParser(output).parse_module(name)
        except LaiSyntaxError as error:
            verdict["detail"] = f"output does not read back: {error}"
            return verdict
        if format_module(module) != output:
            verdict["detail"] = "output text does not round-trip"
            return verdict
        try:
            observed, steps = reference_run(module, verify)
        except (InterpreterError, KeyError) as error:
            verdict["detail"] = f"output replay failed: {error!r}"
            return verdict
        if repr(observed) != expected:
            verdict["detail"] = "output observables differ from source"
            return verdict
        verdict.update(ok=True, steps=steps)
        return verdict
    return verdicts.get(digest("output", source, repr(verify), output),
                        compute)
