"""Fluent programmatic construction of IR functions.

Tests and examples build programs either from LAI text
(:func:`repro.lai.parse_module`) or with this builder:

.. code-block:: python

    b = FunctionBuilder("axpy")
    entry = b.block("entry")
    a, x, y = b.inputs("a", "x", "y")
    t = b.emit("mul", "t", a, x)
    r = b.emit("add", "r", t, y)
    b.ret(r)
    func = b.finish()

String operands name variables; integers become immediates; ``$R0``-style
strings (or :class:`~repro.ir.types.PhysReg` objects) name physical
registers.  Pins are attached with the ``pin_*`` keyword helpers or by
passing ``(value, resource)`` tuples.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .basicblock import BasicBlock
from .function import Function
from .instructions import Instruction, Operand
from .types import Imm, PhysReg, RegClass, Resource, Value, Var

OperandLike = Union[str, int, Value, tuple]


class FunctionBuilder:
    """Incremental builder for one :class:`~repro.ir.function.Function`."""

    def __init__(self, name: str) -> None:
        self.function = Function(name)
        self.current: Optional[BasicBlock] = None
        self._vars: dict[str, Var] = {}
        self._regs: dict[str, PhysReg] = {}

    # ------------------------------------------------------------------
    # Value resolution
    # ------------------------------------------------------------------
    def var(self, name: str, regclass: RegClass = RegClass.GPR) -> Var:
        """Return the variable called *name*, creating it if needed."""
        if name not in self._vars:
            self._vars[name] = Var(name, regclass)
        return self._vars[name]

    def reg(self, name: str, regclass: RegClass = RegClass.GPR) -> PhysReg:
        if name not in self._regs:
            if name == "SP":
                regclass = RegClass.SP
            elif name.startswith("P"):
                regclass = RegClass.PTR
            self._regs[name] = PhysReg(name, regclass)
        return self._regs[name]

    def value(self, item: OperandLike) -> Value:
        if isinstance(item, (Var, PhysReg, Imm)):
            return item
        if isinstance(item, bool):
            raise TypeError("bool operand is ambiguous; use int 0/1")
        if isinstance(item, int):
            return Imm(item)
        if isinstance(item, str):
            if item.startswith("$"):
                return self.reg(item[1:])
            return self.var(item)
        raise TypeError(f"cannot interpret operand {item!r}")

    def resource(self, item: Union[str, Resource, None]) -> Optional[Resource]:
        if item is None:
            return None
        if isinstance(item, (Var, PhysReg)):
            return item
        if isinstance(item, str):
            if item.startswith("$"):
                return self.reg(item[1:])
            # Bare register-looking names in pin position mean registers,
            # matching the printed form  D^R0.
            if item in ("SP",) or (len(item) <= 3 and item[:1] in "RP"
                                   and item[1:].isdigit()):
                return self.reg(item)
            return self.var(item)
        raise TypeError(f"cannot interpret resource {item!r}")

    def operand(self, item: OperandLike, is_def: bool = False) -> Operand:
        """``(value, pin)`` tuples attach a pin; anything else is bare."""
        if isinstance(item, tuple):
            value, pin = item
            return Operand(self.value(value), self.resource(pin), is_def)
        return Operand(self.value(item), None, is_def)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def block(self, label: str) -> BasicBlock:
        """Create block *label* and make it current."""
        blk = self.function.add_block(label)
        self.current = blk
        return blk

    def switch_to(self, label: str) -> BasicBlock:
        self.current = self.function.blocks[label]
        return self.current

    def _require_block(self) -> BasicBlock:
        if self.current is None:
            self.block("entry")
        assert self.current is not None
        return self.current

    # ------------------------------------------------------------------
    # Instruction emission
    # ------------------------------------------------------------------
    def inputs(self, *names: OperandLike) -> list[Var]:
        """Emit the ``input`` pseudo-instruction defining the parameters."""
        block = self._require_block()
        defs = [self.operand(n, is_def=True) for n in names]
        block.append(Instruction("input", defs=defs))
        return [op.value for op in defs]

    def emit(self, opcode: str, dest: Optional[OperandLike],
             *sources: OperandLike, **attrs) -> Optional[Var]:
        """Emit ``dest = opcode sources`` in the current block."""
        block = self._require_block()
        defs = [] if dest is None else [self.operand(dest, is_def=True)]
        uses = [self.operand(s) for s in sources]
        block.append(Instruction(opcode, defs, uses, attrs or None))
        return defs[0].value if defs else None

    def copy(self, dest: OperandLike, src: OperandLike) -> Var:
        return self.emit("copy", dest, src)

    def load(self, dest: OperandLike, addr: OperandLike,
             offset: int = 0) -> Var:
        attrs = {"offset": offset} if offset else {}
        return self.emit("load", dest, addr, **attrs)

    def store(self, addr: OperandLike, value: OperandLike,
              offset: int = 0) -> None:
        attrs = {"offset": offset} if offset else {}
        self.emit("store", None, addr, value, **attrs)

    def call(self, callee: str, dests: Sequence[OperandLike],
             args: Sequence[OperandLike]) -> list[Var]:
        block = self._require_block()
        defs = [self.operand(d, is_def=True) for d in dests]
        uses = [self.operand(a) for a in args]
        block.append(Instruction("call", defs, uses, {"callee": callee}))
        return [op.value for op in defs]

    def phi(self, dest: OperandLike,
            *pairs: tuple[OperandLike, str]) -> Var:
        """``b.phi("x", ("x1", "left"), ("x2", "right"))``"""
        block = self._require_block()
        dest_op = self.operand(dest, is_def=True)
        labels = []
        uses = []
        for value, label in pairs:
            labels.append(label)
            uses.append(self.operand(value))
        block.append(Instruction("phi", [dest_op], uses,
                                 {"incoming": labels}))
        return dest_op.value

    def br(self, target: str) -> None:
        self.emit("br", None, targets=[target])

    def cbr(self, cond: OperandLike, taken: str, fallthrough: str) -> None:
        self.emit("cbr", None, cond, targets=[taken, fallthrough])

    def ret(self, *values: OperandLike) -> None:
        self.emit("ret", None, *values)

    # ------------------------------------------------------------------
    def finish(self, ssa: bool = False) -> Function:
        from .validate import validate_function

        validate_function(self.function, ssa=ssa)
        return self.function
