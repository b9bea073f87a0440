"""Line-oriented parser for the LAI-like assembly language.

Accepts the exact syntax :mod:`repro.ir.printer` emits, so IR round-trips
through text.  Typical input:

.. code-block:: text

    func fig1
    entry:
        input C^R0, P^P0
        load A, P
        autoadd Q^Q, P^Q, 1
        load B, Q
        call D^R0 = f(A^R0, B^R1)
        add E, C, D
        make L, 0x00A1
        more K^K, L^K, 0x2BFA
        sub F, E, K
        ret F^R0
    endfunc

One statement per line, optionally preceded by ``label:`` prefixes;
comments start with ``;`` or ``//`` and run to the end of the line.
Tokens are identifiers (opcodes, labels, variables such as ``x.3``),
``$R0``-style registers, decimal or ``0x`` integers (optionally signed)
and the punctuation ``: , = ( ) ^ ? # <-``.

Pin resolution: in pin position (after ``^``), a name that matches a
register of the target (``R0``, ``P3``, ``SP``...) denotes that physical
register, anything else denotes a *virtual resource* (a variable).  In
operand position, physical registers must be written ``$R0`` to keep
them visually distinct from variables.

The whole source is split into tokens by one ``findall`` of
:data:`_TOKEN`, with ``"\\n"`` tokens ending lines, and statements are
built straight from that list.  A character outside the grammar comes
out as a one-character token no statement accepts; diagnostics rescan
the source with the same regex to report the offending line, column
and token, giving a lexical error anywhere precedence over a syntax
error, as if the whole source had been tokenized first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from ..ir.function import Function, Module
from ..ir.instructions import OPCODES, Instruction, Operand
from ..ir.types import Imm, PhysReg, RegClass, Value, Var
from ..machine.st120 import ST120
from ..machine.target import Target

#: Identifiers, punctuation, numbers, registers and any other non-blank
#: character, which no statement accepts; a ``"\n"`` token ends every
#: line.  The alternatives start with distinct characters, so their
#: order (most frequent first) changes no token -- except that a hex
#: number must be tried before a decimal one and the catch-all last.
_TOKEN = re.compile(r"""
    [A-Za-z_][A-Za-z0-9_.]*
  | [:,=()^?\#] | <-
  | -?0[xX][0-9a-fA-F]+ | -?[0-9]+
  | \$[A-Za-z][A-Za-z0-9]*
  | [^ \t]
""", re.VERBOSE)
_COMMENT = re.compile(r"(?:;|//)[^\n]*")
_DIGITS = "0123456789"
_NUM_START = _DIGITS + "-"
_IDENT_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"


class LaiSyntaxError(Exception):
    """Lexical or syntactic error in LAI source.

    Carries a structured location so tooling (the fuzzing minimizer,
    generator round-trip checks, editors) can point at the offending
    source instead of re-parsing a bare message: ``line`` (1-based),
    ``column`` (1-based, ``None`` when unknown) and ``token`` (the
    offending token text, ``None`` when the error is not anchored to
    one token).
    """

    def __init__(self, message: str, line: int,
                 column: "int | None" = None,
                 token: "str | None" = None) -> None:
        where = f"line {line}" if column is None \
            else f"line {line}, col {column}"
        detail = f"{where}: {message}"
        if token is not None and repr(token) not in message:
            detail += f" (at {token!r})"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.token = token


@dataclass(frozen=True)
class Token:
    """One token of :func:`tokenize`: ``kind`` is ``IDENT``, ``REG``
    (``text`` without the ``$``), ``NUM``, ``PUNCT``, or the synthetic
    ``NEWLINE``/``EOF`` (column 0: no source extent)."""

    kind: str
    text: str
    line: int
    column: int = 0

    def __repr__(self) -> str:
        return (f"Token({self.kind}, {self.text!r}, "
                f"line {self.line}, col {self.column})")


def _kind(text: str) -> Optional[str]:
    """Token kind of a :data:`_TOKEN` match; ``None`` for a character
    outside the grammar."""
    head = text[0]
    if head in _IDENT_START:
        return "IDENT"
    if len(text) > 1:
        return "REG" if head == "$" else "PUNCT" if head == "<" else "NUM"
    if head in _DIGITS:
        return "NUM"
    return "PUNCT" if head in ":,=()^?#" else None


def _scan(line: str, line_no: int) -> list[tuple[int, str, str]]:
    """``(column, kind, text)`` of every token on one source line."""
    tokens = []
    for match in _TOKEN.finditer(_COMMENT.sub("", line)):
        text, column = match.group(), match.start() + 1
        kind = _kind(text)
        if kind is None:
            raise LaiSyntaxError(f"unexpected character {text!r}", line_no,
                                 column=column, token=text)
        tokens.append((column, kind, text[1:] if kind == "REG" else text))
    return tokens


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens for *source*; NEWLINE after each line with tokens."""
    line_no = 1
    for line_no, line in enumerate(source.splitlines(), start=1):
        tokens = _scan(line, line_no)
        for column, kind, text in tokens:
            yield Token(kind, text, line_no, column)
        if tokens:
            yield Token("NEWLINE", "", line_no)
    yield Token("EOF", "", line_no)


class _At(Exception):
    """``_At(message, index)``: a syntax error at token *index* of the
    token list being parsed."""


def _shown(token: str) -> str:
    """A token as diagnostics quote it."""
    return "" if token == "\n" else token[1:] if token[0] == "$" else token


def _expected(want: str, tokens: list[str], index: int) -> _At:
    want = "NEWLINE" if want == "\n" else want
    return _At(f"expected {want!r}, found {_shown(tokens[index])!r}", index)


def _ident(tokens: list[str], index: int) -> str:
    token = tokens[index]
    if token[0] not in _IDENT_START:
        raise _expected("IDENT", tokens, index)
    return token


def _expect(want: str, tokens: list[str], index: int) -> int:
    if tokens[index] != want:
        raise _expected(want, tokens, index)
    return index + 1


class Parser:
    """Parses LAI *source* for *target*: ``Parser(source).parse_module()``."""

    def __init__(self, source: str, target: Target = ST120) -> None:
        self.source = source
        self.target = target
        self._registers = {"$" + name: reg
                           for name, reg in target.registers.items()}
        self._pins = {**target.registers, **self._registers}
        #: Values of the current function by token: ``$R0`` registers
        #: and one :class:`Var` per name, shared by operands and pins.
        self._values: dict[str, Value] = {}

    def parse_module(self, name: str = "module") -> Module:
        text = "\n".join(self.source.splitlines()) + "\n"
        if ";" in text or "//" in text:
            text = _COMMENT.sub("", text)
        tokens = _TOKEN.findall(text)
        module = Module(name)
        try:
            self._parse(module, tokens)
        except _At as error:
            raise self._locate(error, tokens) from None
        return module

    def _parse(self, module: Module, tokens: list[str]) -> None:
        function = block = None
        i, end = 0, len(tokens)
        while i < end:
            head = tokens[i]
            if head == "\n":
                i += 1
            elif function is None:
                if head != "func":
                    raise _expected("func", tokens, i)
                name = _ident(tokens, i + 1)
                i = _expect("\n", tokens, i + 2)
                function = Function(name)
                self._values = dict(self._registers)
                block = None
            elif head == "endfunc":
                module.add_function(function)
                function = None
                i += 1
            elif tokens[i + 1] == ":" and head[0] in _IDENT_START:
                block = function.add_block(head)
                i += 2
            else:
                if block is None:
                    block = function.add_block("entry")
                instr, i = self._instruction(tokens, i)
                if tokens[i] != "\n":
                    raise _expected("\n", tokens, i)
                block.append(instr)
                i += 1
        if function is not None:
            raise _At(f"unterminated function {function.name!r} "
                      f"(missing 'endfunc')", end)

    def _locate(self, error: _At, tokens: list[str]) -> LaiSyntaxError:
        """*error* with its source line, column and token -- or the first
        lexical error of the source, which takes precedence."""
        for _ in tokenize(self.source):
            pass
        message, index = error.args
        if index == len(tokens):
            return LaiSyntaxError(message, tokens.count("\n"), token="EOF")
        first = index
        while first and tokens[first - 1] != "\n":
            first -= 1
        line_no = tokens[:first].count("\n") + 1
        if tokens[index] == "\n":
            return LaiSyntaxError(message, line_no, token="NEWLINE")
        line = self.source.splitlines()[line_no - 1]
        column, _, text = _scan(line, line_no)[index - first]
        return LaiSyntaxError(message, line_no, column, text)

    # ------------------------------------------------------------------
    # Operands
    # ------------------------------------------------------------------
    def _var(self, name: str) -> Var:
        ptr = name.startswith(("p_", "ptr_"))
        var = self._values[name] = Var(name, RegClass.PTR if ptr
                                       else RegClass.GPR)
        return var

    def _value(self, tokens: list[str], i: int) -> Value:
        """The value of a token not yet in ``_values``."""
        token = tokens[i]
        head = token[0]
        if head in _IDENT_START:
            return self._var(token)
        if head in _NUM_START:
            try:
                return Imm(int(token, 0))
            except ValueError:
                raise _At(f"malformed number {token!r}", i) from None
        if head == "$":
            raise _At(f"unknown register {token[1:]!r}", i)
        raise _At(f"expected operand, found {_shown(token)!r}", i)

    def _pin(self, tokens: list[str], i: int) -> PhysReg | Var:
        token = tokens[i]
        pin = self._pins.get(token)
        if pin is not None:
            return pin
        if token[0] in _IDENT_START:
            return self._values.get(token) or self._var(token)
        if token[0] == "$":
            raise _At(f"unknown register {token[1:]!r}", i)
        raise _At(f"expected pin target, found {_shown(token)!r}", i)

    def _operand(self, tokens: list[str], i: int,
                 is_def: bool = False) -> tuple[Operand, int]:
        value = self._values.get(tokens[i]) or self._value(tokens, i)
        if tokens[i + 1] != "^":
            return Operand(value, None, is_def), i + 1
        pin = self._pin(tokens, i + 2)
        if value.__class__ is Imm:
            raise _At("an immediate operand cannot be pinned", i)
        return Operand(value, pin, is_def), i + 3

    def _operands(self, tokens: list[str], i: int, is_def: bool = False,
                  offset: bool = False) -> tuple[list[Operand], int]:
        """``operand (',' operand)*`` from token *i*; with *offset*, the
        list also ends before ``, #``."""
        operand, i = self._operand(tokens, i, is_def)
        operands = [operand]
        while tokens[i] == "," and not (offset and tokens[i + 1] == "#"):
            operand, i = self._operand(tokens, i + 1, is_def)
            operands.append(operand)
        return operands, i

    # ------------------------------------------------------------------
    # Instructions: each returns the instruction and the index of the
    # token after it, which the caller requires to end the line.
    # ------------------------------------------------------------------
    def _instruction(self, tokens: list[str],
                     i: int) -> tuple[Instruction, int]:
        op = tokens[i]
        spec = OPCODES.get(op)
        if spec is None:
            if op[0] not in _IDENT_START:
                raise _expected("IDENT", tokens, i)
            if tokens[i + 1] in ("=", "^"):
                return self._assignment(tokens, i)
            # Not assignment syntax: a mistyped mnemonic, reported as
            # such instead of a puzzling "expected '='".
            raise _At(f"unknown opcode {op!r}", i)
        i += 1
        if spec.n_defs is not None and not spec.is_terminator:
            operands: list[Operand] = []
            if tokens[i] != "\n":
                operands, i = self._operands(tokens, i, offset=True)
            offset = 0
            if tokens[i] == ",":  # the list ended at ", #offset"
                if tokens[i + 2][0] not in _NUM_START:
                    raise _expected("NUM", tokens, i + 2)
                offset = self._value(tokens, i + 2).value
                i += 3
            n_defs = spec.n_defs
            return Instruction(op, operands[:n_defs], operands[n_defs:],
                               {"offset": offset} if offset else None), i
        if op == "br":
            return Instruction("br", attrs={"targets": [
                _ident(tokens, i)]}), i + 1
        if op == "cbr":
            cond, i = self._operand(tokens, i)
            taken = _ident(tokens, _expect(",", tokens, i))
            fallthrough = _ident(tokens, _expect(",", tokens, i + 2))
            if taken == fallthrough:
                return Instruction("br", attrs={"targets": [taken]}), i + 4
            return Instruction("cbr", uses=[cond], attrs={
                "targets": [taken, fallthrough]}), i + 4
        if op == "ret":
            uses: list[Operand] = []
            if tokens[i] != "\n":
                uses, i = self._operands(tokens, i)
            return Instruction("ret", uses=uses), i
        if op == "input":
            defs, i = self._operands(tokens, i, is_def=True)
            return Instruction("input", defs=defs), i
        if op == "call":
            return self._call(tokens, i)
        return self._pcopy(tokens, i)

    def _assignment(self, tokens: list[str],
                    i: int) -> tuple[Instruction, int]:
        """``x = phi(v:L, ...)`` / ``x = psi(g ? v, ...)``, maybe pinned."""
        dest, i = self._operand(tokens, i, is_def=True)
        i = _expect("=", tokens, i)
        op = _ident(tokens, i)
        if op not in ("phi", "psi"):
            raise _At(f"only phi/psi use assignment syntax, found {op!r}", i)
        i = _expect("(", tokens, i + 1)
        labels: list[str] = []
        uses: list[Operand] = []
        while True:
            use, i = self._operand(tokens, i)
            uses.append(use)
            if op == "phi":
                labels.append(_ident(tokens, _expect(":", tokens, i)))
                i += 2
            else:
                value, i = self._operand(tokens, _expect("?", tokens, i))
                uses.append(value)
            if tokens[i] != ",":
                break
            i += 1
        i = _expect(")", tokens, i)
        if op == "phi":
            return Instruction("phi", [dest], uses, {"incoming": labels}), i
        return Instruction("psi", [dest], uses), i

    def _call(self, tokens: list[str], i: int) -> tuple[Instruction, int]:
        # Forms:  call f(a, b)          no results
        #         call d = f(a, b)      one result
        #         call d, e = f(a)      several results
        #         call $R0 = f($R0)     register results (ABI-lowered)
        head = tokens[i]
        if head[0] not in _IDENT_START and head[0] != "$":
            raise _At("malformed call: expected callee or result list", i)
        defs: list[Operand] = []
        if head[0] == "$" or tokens[i + 1] != "(":
            defs, i = self._operands(tokens, i, is_def=True)
            i = _expect("=", tokens, i)
        callee = _ident(tokens, i)
        i = _expect("(", tokens, i + 1)
        uses: list[Operand] = []
        if tokens[i] != ")":
            uses, i = self._operands(tokens, i)
        i = _expect(")", tokens, i)
        return Instruction("call", defs, uses, {"callee": callee}), i

    def _pcopy(self, tokens: list[str], i: int) -> tuple[Instruction, int]:
        defs: list[Operand] = []
        uses: list[Operand] = []
        while True:
            dest, i = self._operand(tokens, i, is_def=True)
            src, i = self._operand(tokens, _expect("<-", tokens, i))
            defs.append(dest)
            uses.append(src)
            if tokens[i] != ",":
                return Instruction("pcopy", defs, uses), i
            i += 1


def parse_module(source: str, name: str = "module",
                 target: Target = ST120) -> Module:
    """Parse LAI source text into a :class:`~repro.ir.function.Module`."""
    return Parser(source, target).parse_module(name)


def parse_function(source: str, target: Target = ST120) -> Function:
    """Parse LAI source containing exactly one function."""
    module = parse_module(source, target=target)
    functions = list(module.iter_functions())
    if len(functions) != 1:
        raise LaiSyntaxError(
            f"expected exactly one function, found {len(functions)}", 0)
    return functions[0]
