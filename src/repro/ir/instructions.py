"""Instructions and operands of the machine-level IR.

An :class:`Operand` is *the textual use of a variable* (paper section 2.1),
either a definition (write) or a use (read).  Each operand may carry a
*pin*: a pre-coloring to a resource, rendered ``x^R0`` by the printer
(the paper writes it :math:`X\\uparrow R0`).

An :class:`Instruction` is an opcode plus lists of def and use operands,
with extra payload in ``attrs`` (branch targets, callee name, phi incoming
block labels, ...).  The instruction set is described declaratively by
:class:`OpSpec` entries in :data:`OPCODES`; both interpreter tiers, the
verifier and the ABI-constraint collector all consult the same table, so
instruction semantics live in exactly one place.

Notable opcodes
---------------
``phi``
    SSA merge.  ``attrs["incoming"]`` holds the predecessor block label of
    each use, parallel to ``uses``.  All phis at a block entry have
    *parallel* semantics (paper section 2.2, Case 3).
``pcopy``
    A parallel copy ``(d1, .., dn) := (s1, .., sn)``: all sources are read
    before any destination is written.  Out-of-SSA algorithms emit these
    and sequentialize them at the very end, which is how the classic
    *swap problem* is avoided.
``autoadd`` / ``more`` / ``mac``
    Two-operand (destructive) instructions of the ST120: the first source
    operand is *tied* to the destination and must share its resource
    (paper Figure 1, statements S1 and S6).
``psi``
    Predicated merge of the psi-SSA extension (paper section 5 mentions
    the LAO uses psi-SSA [13]); see :mod:`repro.ssa.psi`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .types import Imm, Resource, Value, Var, wrap32


class Operand:
    """A single textual occurrence of a value in an instruction.

    Operands have identity semantics: two operands are equal only when
    they are the same occurrence.  The optional ``pin`` pre-colors the
    occurrence to a resource (a :class:`Var` used as a virtual resource,
    or a :class:`PhysReg`).
    """

    __slots__ = ("value", "pin", "is_def")

    def __init__(self, value: Value, pin: Optional[Resource] = None,
                 is_def: bool = False) -> None:
        if isinstance(value, Imm) and pin is not None:
            raise ValueError("an immediate operand cannot be pinned")
        self.value = value
        self.pin = pin
        self.is_def = is_def

    def __str__(self) -> str:
        if self.pin is not None:
            return f"{self.value}^{self.pin}"
        return str(self.value)

    def __repr__(self) -> str:
        kind = "def" if self.is_def else "use"
        return f"Operand({self.value!r}, pin={self.pin!r}, {kind})"

    def copy(self) -> "Operand":
        return Operand(self.value, self.pin, self.is_def)


@dataclass(frozen=True)
class OpSpec:
    """Declarative description of one opcode.

    Attributes
    ----------
    name:
        Opcode mnemonic.
    n_defs / n_uses:
        Expected operand counts; ``None`` means variadic.
    kernel:
        The opcode's scalar arithmetic: a pure function taking one
        Python int per use and returning one unwrapped int (a C-level
        ``operator`` function where one exists).  ``None`` for opcodes
        with special interpreter handling (control flow, memory, calls,
        phi, pcopy, psi).  This is the only arithmetic table: the
        compiled interpreter tier binds ``kernel`` directly and wraps
        the result to 32 bits itself.
    predicate:
        True when ``kernel`` returns a truth value (the comparisons);
        the instruction's def is then exactly ``1`` or ``0``.
    evaluate:
        Derived from ``kernel`` (not a constructor argument): use
        values to the 1-tuple of the def value -- ``wrap32`` of the
        kernel's result, or ``1``/``0`` for a predicate.  ``None``
        exactly when ``kernel`` is.  The reference interpreter and
        constant folding call this form.
    tied:
        Pairs ``(def_index, use_index)`` whose operands must share a
        resource -- the 2-operand constraints collected by ``pinningABI``.
    is_terminator:
        True for opcodes that end a basic block.
    has_side_effects:
        True when the instruction may not be removed even if its defs are
        dead (stores, calls, returns).
    commutative:
        For documentation / simplification passes.
    """

    name: str
    n_defs: Optional[int]
    n_uses: Optional[int]
    kernel: Optional[Callable[..., int]] = None
    predicate: bool = False
    tied: tuple = ()
    is_terminator: bool = False
    has_side_effects: bool = False
    commutative: bool = False
    evaluate: Optional[Callable[..., tuple]] = field(
        init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kernel is not None:
            object.__setattr__(self, "evaluate",
                               _evaluator(self.kernel, self.predicate))


def _evaluator(kernel: Callable[..., int],
               predicate: bool) -> Callable[..., tuple]:
    if predicate:
        def evaluate(*args: int) -> tuple:
            return (1 if kernel(*args) else 0,)
    else:
        def evaluate(*args: int) -> tuple:
            return (wrap32(kernel(*args)),)
    return evaluate


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0  # DSP-style: division by zero yields 0, keeps runs total
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - _sdiv(a, b) * b


def _shl(a: int, b: int) -> int:
    return a << (b & 31)


def _shr(a: int, b: int) -> int:
    return a >> (b & 31)


OPCODES: dict[str, OpSpec] = {}


def _register(spec: OpSpec) -> None:
    if spec.name in OPCODES:
        raise ValueError(f"duplicate opcode {spec.name}")
    OPCODES[spec.name] = spec


for _spec in [
    # Constant materialization (paper Figure 1: "make L, 0x00A1").
    OpSpec("make", 1, 1, kernel=operator.pos),
    # Register-to-register move -- the instruction every experiment counts.
    OpSpec("copy", 1, 1, kernel=operator.pos),
    # Plain 3-operand arithmetic.
    OpSpec("add", 1, 2, kernel=operator.add, commutative=True),
    OpSpec("sub", 1, 2, kernel=operator.sub),
    OpSpec("mul", 1, 2, kernel=operator.mul, commutative=True),
    OpSpec("div", 1, 2, kernel=_sdiv),
    OpSpec("rem", 1, 2, kernel=_srem),
    OpSpec("and", 1, 2, kernel=operator.and_, commutative=True),
    OpSpec("or", 1, 2, kernel=operator.or_, commutative=True),
    OpSpec("xor", 1, 2, kernel=operator.xor, commutative=True),
    OpSpec("shl", 1, 2, kernel=_shl),
    OpSpec("shr", 1, 2, kernel=_shr),
    OpSpec("min", 1, 2, kernel=min, commutative=True),
    OpSpec("max", 1, 2, kernel=max, commutative=True),
    OpSpec("neg", 1, 1, kernel=operator.neg),
    OpSpec("not", 1, 1, kernel=operator.invert),
    # Comparisons produce 0/1.
    OpSpec("cmpeq", 1, 2, kernel=operator.eq, predicate=True,
           commutative=True),
    OpSpec("cmpne", 1, 2, kernel=operator.ne, predicate=True,
           commutative=True),
    OpSpec("cmplt", 1, 2, kernel=operator.lt, predicate=True),
    OpSpec("cmple", 1, 2, kernel=operator.le, predicate=True),
    OpSpec("cmpgt", 1, 2, kernel=operator.gt, predicate=True),
    OpSpec("cmpge", 1, 2, kernel=operator.ge, predicate=True),
    OpSpec("select", 1, 3, kernel=lambda c, a, b: a if c else b),
    # ST120-style 2-operand (destructive) instructions: the destination is
    # tied to the first source (paper Figure 1, S1 and S6).
    OpSpec("autoadd", 1, 2, kernel=operator.add, tied=((0, 0),)),
    OpSpec("more", 1, 2, kernel=lambda a, b: (a << 16) | (b & 0xFFFF),
           tied=((0, 0),)),
    OpSpec("mac", 1, 3, kernel=lambda acc, a, b: acc + a * b,
           tied=((0, 0),)),
    # Memory.  ``load d, p`` / ``store p, v``; addresses are plain ints.
    OpSpec("load", 1, 1, has_side_effects=False),
    OpSpec("store", 0, 2, has_side_effects=True),
    # Function call: ``call d.. = f(a..)``; ``attrs["callee"]`` names the
    # target.  ABI pins are attached by the collect phase.
    OpSpec("call", None, None, has_side_effects=True),
    # Control flow.
    OpSpec("br", 0, 0, is_terminator=True, has_side_effects=True),
    OpSpec("cbr", 0, 1, is_terminator=True, has_side_effects=True),
    OpSpec("ret", 0, None, is_terminator=True, has_side_effects=True),
    # Entry pseudo-instruction defining the function parameters; mirrors
    # the paper's ``.input C^R0, P^P0`` notation.
    OpSpec("input", None, 0, has_side_effects=True),
    # Materialize the incoming stack pointer.  Programs that manipulate
    # the stack write ``readsp $SP`` first; SSA construction then renames
    # SP like any variable and ``pinningSP`` re-pins the web to SP
    # (the paper always runs pinningSP, section 5).
    OpSpec("readsp", 1, 0, kernel=lambda: 0x7FF00000,
           has_side_effects=True),
    # SSA constructs.
    OpSpec("phi", 1, None),
    OpSpec("pcopy", None, None),
    # psi-SSA predicated merge: uses alternate (guard, value) pairs.
    OpSpec("psi", 1, None),
]:
    _register(_spec)


_instr_ids = itertools.count()


class Instruction:
    """One IR instruction: an opcode with def/use operand lists.

    ``attrs`` carries non-register payload:

    ``targets``
        list of successor block labels (``br``: 1, ``cbr``: 2 as
        ``[taken, fallthrough]``).
    ``incoming``
        for ``phi``: predecessor labels, parallel to ``uses``.
    ``callee``
        for ``call``: target function name.
    ``offset``
        for ``load``/``store``: constant address offset (int).

    Each instruction has a process-unique ``uid`` so analyses can key
    dictionaries by instruction without relying on list positions.
    """

    __slots__ = ("opcode", "spec", "is_phi", "is_pcopy", "is_terminator",
                 "defs", "uses", "attrs", "uid")

    def __init__(self, opcode: str, defs: Sequence[Operand] = (),
                 uses: Sequence[Operand] = (),
                 attrs: Optional[dict] = None) -> None:
        spec = OPCODES.get(opcode)
        if spec is None:
            raise ValueError(f"unknown opcode: {opcode}")
        self.opcode = opcode
        self.spec = spec
        self.is_phi = opcode == "phi"
        self.is_pcopy = opcode == "pcopy"
        self.is_terminator = spec.is_terminator
        self.defs = list(defs)
        self.uses = list(uses)
        self.attrs = dict(attrs or {})
        self.uid = next(_instr_ids)
        for op in self.defs:
            op.is_def = True
        for op in self.uses:
            op.is_def = False

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    # ``spec`` / ``is_phi`` / ``is_pcopy`` / ``is_terminator`` are plain
    # attributes precomputed in ``__init__``: the opcode never changes
    # after construction, and these predicates sit on every analysis
    # and validation inner loop.

    @property
    def is_copy(self) -> bool:
        """True for a plain register-to-register move (the counted kind).

        A property (unlike the opcode predicates above) because the
        answer changes when constant propagation rewrites the use
        operand to an immediate."""
        return (self.opcode == "copy"
                and not isinstance(self.uses[0].value, Imm))

    def operands(self) -> Iterator[Operand]:
        """Iterate def operands then use operands."""
        yield from self.defs
        yield from self.uses

    def def_values(self) -> list[Value]:
        return [op.value for op in self.defs]

    def use_values(self) -> list[Value]:
        return [op.value for op in self.uses]

    def def_vars(self) -> list[Var]:
        return [op.value for op in self.defs if isinstance(op.value, Var)]

    def use_vars(self) -> list[Var]:
        return [op.value for op in self.uses if isinstance(op.value, Var)]

    def targets(self) -> list[str]:
        return list(self.attrs.get("targets", ()))

    # ------------------------------------------------------------------
    # phi helpers
    # ------------------------------------------------------------------
    def phi_pairs(self) -> list[tuple[str, Operand]]:
        """For a phi, return ``[(pred_label, use_operand), ...]``."""
        assert self.is_phi
        return list(zip(self.attrs["incoming"], self.uses))

    def phi_arg_for(self, pred_label: str) -> Operand:
        """The use operand of a phi flowing in from *pred_label*."""
        assert self.is_phi
        for label, op in zip(self.attrs["incoming"], self.uses):
            if label == pred_label:
                return op
        raise KeyError(f"phi has no incoming edge from {pred_label}")

    def set_phi_arg(self, pred_label: str, value: Value,
                    pin: Optional[Resource] = None) -> None:
        assert self.is_phi
        for i, label in enumerate(self.attrs["incoming"]):
            if label == pred_label:
                self.uses[i] = Operand(value, pin, is_def=False)
                return
        raise KeyError(f"phi has no incoming edge from {pred_label}")

    # ------------------------------------------------------------------
    # pcopy helpers
    # ------------------------------------------------------------------
    def pcopy_pairs(self) -> list[tuple[Operand, Operand]]:
        """For a pcopy, return ``[(dest_operand, src_operand), ...]``."""
        assert self.is_pcopy
        return list(zip(self.defs, self.uses))

    # ------------------------------------------------------------------
    # psi helpers: uses alternate (guard0, val0, guard1, val1, ...)
    # ------------------------------------------------------------------
    def psi_pairs(self) -> list[tuple[Operand, Operand]]:
        assert self.opcode == "psi"
        pairs = []
        for i in range(0, len(self.uses), 2):
            pairs.append((self.uses[i], self.uses[i + 1]))
        return pairs

    # ------------------------------------------------------------------
    def copy(self) -> "Instruction":
        """Deep-copy this instruction (fresh operand objects, same values).

        Mutable attr payloads (``targets``, ``incoming`` lists) are
        copied too: passes mutate them in place (edge splitting), and a
        shared list would leak edits between a function and its clones.
        """
        attrs = {key: list(value) if isinstance(value, list) else value
                 for key, value in self.attrs.items()}
        return Instruction(self.opcode,
                           [op.copy() for op in self.defs],
                           [op.copy() for op in self.uses],
                           attrs)

    # ------------------------------------------------------------------
    # Pickling (the parallel driver ships transformed functions back to
    # the parent process).  ``spec`` must not cross the pipe: OpSpec
    # carries ``kernel``/``evaluate`` lambdas, which do not pickle --
    # rebuild the precomputed predicates from the opcode on the
    # receiving side.
    def __getstate__(self):
        return (self.opcode, self.defs, self.uses, self.attrs, self.uid)

    def __setstate__(self, state) -> None:
        opcode, defs, uses, attrs, uid = state
        self.opcode = opcode
        spec = OPCODES[opcode]
        self.spec = spec
        self.is_phi = opcode == "phi"
        self.is_pcopy = opcode == "pcopy"
        self.is_terminator = spec.is_terminator
        self.defs = defs
        self.uses = uses
        self.attrs = attrs
        self.uid = uid

    def __str__(self) -> str:
        from .printer import format_instruction

        return format_instruction(self)

    def __repr__(self) -> str:
        return f"<Instruction {self}>"


# ----------------------------------------------------------------------
# Small constructors used throughout the code base and the tests.
# ----------------------------------------------------------------------

def make_phi(dest: Value, pairs: Iterable[tuple[str, Value]],
             dest_pin: Optional[Resource] = None) -> Instruction:
    """Build ``dest = phi(v1:B1, ..., vn:Bn)``."""
    labels = []
    uses = []
    for label, value in pairs:
        labels.append(label)
        uses.append(Operand(value, is_def=False))
    return Instruction("phi", [Operand(dest, dest_pin, is_def=True)], uses,
                       {"incoming": labels})


def make_copy(dest: Value, src: Value,
              dest_pin: Optional[Resource] = None,
              src_pin: Optional[Resource] = None) -> Instruction:
    return Instruction("copy", [Operand(dest, dest_pin, is_def=True)],
                       [Operand(src, src_pin, is_def=False)])


def make_pcopy(pairs: Iterable[tuple[Value, Value]]) -> Instruction:
    defs = []
    uses = []
    for dest, src in pairs:
        defs.append(Operand(dest, is_def=True))
        uses.append(Operand(src, is_def=False))
    return Instruction("pcopy", defs, uses)


def make_branch(target: str) -> Instruction:
    return Instruction("br", attrs={"targets": [target]})


def make_cond_branch(cond: Value, taken: str, fallthrough: str) -> Instruction:
    return Instruction("cbr", uses=[Operand(cond)],
                       attrs={"targets": [taken, fallthrough]})
