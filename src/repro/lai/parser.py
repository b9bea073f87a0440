"""Recursive-descent parser for the LAI-like assembly language.

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

Pin resolution: in pin position (after ``^``), a name that matches a
register of the target (``R0``, ``P3``, ``SP``...) denotes that physical
register, anything else denotes a *virtual resource* (a variable).  In
operand position, physical registers must be written ``$R0`` to keep
them visually distinct from variables.
"""

from __future__ import annotations

from typing import Optional

from ..ir.function import Function, Module
from ..ir.instructions import OPCODES, Instruction, Operand
from ..ir.types import Imm, PhysReg, RegClass, Resource, Value, Var
from ..machine.st120 import ST120
from ..machine.target import Target
from .lexer import LaiSyntaxError, Token, tokenize


class Parser:
    def __init__(self, source: str, target: Target = ST120) -> None:
        self.tokens = list(tokenize(source))
        self.pos = 0
        self.target = target
        self.function: Optional[Function] = None
        self._vars: dict[str, Var] = {}

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def _error(self, message: str, token: Token) -> "LaiSyntaxError":
        """A syntax error anchored at *token* (line, column, text)."""
        return LaiSyntaxError(message, token.line,
                              column=token.column or None,
                              token=token.text or token.kind)

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise self._error(
                f"expected {want!r}, found {token.text!r}", token)
        return token

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._next()
        return None

    def _skip_newlines(self) -> None:
        while self._accept("NEWLINE"):
            pass

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def _var(self, name: str) -> Var:
        if name not in self._vars:
            regclass = RegClass.GPR
            if name.startswith(("p_", "ptr_")):
                regclass = RegClass.PTR
            self._vars[name] = Var(name, regclass)
        return self._vars[name]

    def _reg(self, name: str, token: Token) -> PhysReg:
        reg = self.target.registers.get(name)
        if reg is None:
            raise self._error(f"unknown register {name!r}", token)
        return reg

    def _parse_value(self) -> Value:
        token = self._next()
        if token.kind == "NUM":
            return Imm(int(token.text, 0))
        if token.kind == "REG":
            return self._reg(token.text, token)
        if token.kind == "IDENT":
            return self._var(token.text)
        raise self._error(f"expected operand, found {token.text!r}", token)

    def _parse_pin(self) -> Optional[Resource]:
        if not self._accept("PUNCT", "^"):
            return None
        token = self._next()
        if token.kind == "REG":
            return self._reg(token.text, token)
        if token.kind == "IDENT":
            if token.text in self.target.registers:
                return self._reg(token.text, token)
            return self._var(token.text)
        raise self._error(f"expected pin target, found {token.text!r}",
                          token)

    def _parse_operand(self, is_def: bool = False) -> Operand:
        value = self._parse_value()
        pin = self._parse_pin()
        return Operand(value, pin, is_def)

    def _parse_operand_list(self, is_def: bool = False) -> list[Operand]:
        operands = [self._parse_operand(is_def)]
        while self._accept("PUNCT", ","):
            operands.append(self._parse_operand(is_def))
        return operands

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_module(self, name: str = "module") -> Module:
        module = Module(name)
        self._skip_newlines()
        while self._peek().kind != "EOF":
            module.add_function(self._parse_function())
            self._skip_newlines()
        return module

    def _parse_function(self) -> Function:
        self._expect("IDENT", "func")
        name_token = self._expect("IDENT")
        self._expect("NEWLINE")
        self.function = Function(name_token.text)
        self._vars = {}
        current = None
        self._skip_newlines()
        while True:
            token = self._peek()
            if token.kind == "EOF":
                raise self._error(
                    f"unterminated function {self.function.name!r} "
                    f"(missing 'endfunc')", token)
            if token.kind == "IDENT" and token.text == "endfunc":
                self._next()
                self._accept("NEWLINE")
                break
            # Label?
            if (token.kind == "IDENT"
                    and self.tokens[self.pos + 1].kind == "PUNCT"
                    and self.tokens[self.pos + 1].text == ":"):
                self._next()
                self._expect("PUNCT", ":")
                self._accept("NEWLINE")
                current = self.function.add_block(token.text)
                continue
            if current is None:
                current = self.function.add_block("entry")
            current.append(self._parse_instruction())
            self._expect("NEWLINE")
            self._skip_newlines()
        function = self.function
        self.function = None
        return function

    # ------------------------------------------------------------------
    # Instructions
    # ------------------------------------------------------------------
    def _parse_instruction(self) -> Instruction:
        token = self._peek()
        # "x = phi(...)" / "x = psi(...)" / "x^r = phi(...)"
        if token.kind == "IDENT" and token.text not in OPCODES \
                and token.text != "call":
            after = self.tokens[self.pos + 1]
            if after.kind == "PUNCT" and after.text in ("=", "^"):
                return self._parse_assignment()
            # Not assignment syntax: a mistyped mnemonic, reported as
            # such instead of a puzzling "expected '='".
            raise self._error(f"unknown opcode {token.text!r}", token)
        mnemonic = self._expect("IDENT")
        op = mnemonic.text
        if op == "call":
            return self._parse_call(mnemonic.line)
        if op == "pcopy":
            return self._parse_pcopy()
        if op == "br":
            target = self._expect("IDENT")
            return Instruction("br", attrs={"targets": [target.text]})
        if op == "cbr":
            cond = self._parse_operand()
            self._expect("PUNCT", ",")
            taken = self._expect("IDENT").text
            self._expect("PUNCT", ",")
            fallthrough = self._expect("IDENT").text
            if taken == fallthrough:
                return Instruction("br", attrs={"targets": [taken]})
            return Instruction("cbr", uses=[cond],
                               attrs={"targets": [taken, fallthrough]})
        if op == "ret":
            uses = []
            if self._peek().kind != "NEWLINE":
                uses = self._parse_operand_list()
            return Instruction("ret", uses=uses)
        if op == "input":
            defs = self._parse_operand_list(is_def=True)
            return Instruction("input", defs=defs)
        if op not in OPCODES:
            raise self._error(f"unknown opcode {op!r}", mnemonic)
        spec = OPCODES[op]
        operands = []
        offset = 0
        if self._peek().kind != "NEWLINE":
            operands = [self._parse_operand()]
            while self._accept("PUNCT", ","):
                if self._accept("PUNCT", "#"):
                    offset = int(self._expect("NUM").text, 0)
                    break
                operands.append(self._parse_operand())
        n_defs = spec.n_defs or 0
        defs = operands[:n_defs]
        uses = operands[n_defs:]
        for d in defs:
            d.is_def = True
        attrs = {"offset": offset} if offset else None
        return Instruction(op, defs, uses, attrs)

    def _parse_assignment(self) -> Instruction:
        dest = self._parse_operand(is_def=True)
        self._expect("PUNCT", "=")
        op_token = self._expect("IDENT")
        if op_token.text == "phi":
            return self._parse_phi(dest)
        if op_token.text == "psi":
            return self._parse_psi(dest)
        raise self._error(
            f"only phi/psi use assignment syntax, found {op_token.text!r}",
            op_token)

    def _parse_phi(self, dest: Operand) -> Instruction:
        self._expect("PUNCT", "(")
        labels: list[str] = []
        uses: list[Operand] = []
        while True:
            use = self._parse_operand()
            self._expect("PUNCT", ":")
            label = self._expect("IDENT")
            uses.append(use)
            labels.append(label.text)
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ")")
        return Instruction("phi", [dest], uses, {"incoming": labels})

    def _parse_psi(self, dest: Operand) -> Instruction:
        self._expect("PUNCT", "(")
        uses: list[Operand] = []
        while True:
            guard = self._parse_operand()
            self._expect("PUNCT", "?")
            value = self._parse_operand()
            uses.extend([guard, value])
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ")")
        return Instruction("psi", [dest], uses)

    def _parse_call(self, line: int) -> Instruction:
        # Forms:  call f(a, b)          no results
        #         call d = f(a, b)      one result
        #         call d, e = f(a)      several results
        #         call $R0 = f($R0)     register results (ABI-lowered)
        operands: list[Operand] = []
        callee: Optional[str] = None
        token = self._peek()
        if token.kind not in ("IDENT", "REG"):
            raise self._error(
                "malformed call: expected callee or result list", token)
        # Lookahead: IDENT '(' means no-result form.
        if (token.kind == "IDENT"
                and self.tokens[self.pos + 1].kind == "PUNCT"
                and self.tokens[self.pos + 1].text == "("):
            callee = self._next().text
        else:
            operands = self._parse_operand_list(is_def=True)
            self._expect("PUNCT", "=")
            callee = self._expect("IDENT").text
        self._expect("PUNCT", "(")
        uses: list[Operand] = []
        if not self._accept("PUNCT", ")"):
            uses = self._parse_operand_list()
            self._expect("PUNCT", ")")
        return Instruction("call", operands, uses, {"callee": callee})

    def _parse_pcopy(self) -> Instruction:
        defs: list[Operand] = []
        uses: list[Operand] = []
        while True:
            dest = self._parse_operand(is_def=True)
            self._expect("PUNCT", "<-")
            src = self._parse_operand()
            defs.append(dest)
            uses.append(src)
            if not self._accept("PUNCT", ","):
                break
        return Instruction("pcopy", defs, uses)


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
