"""Core value and resource types for the machine-level IR.

The paper distinguishes *dedicated registers* (physical resources such as
``R0`` or ``SP``) from *virtual registers* (variables, assumed unlimited in
number).  A *resource* is "either a physical register or a variable"
(paper section 2.1); operands may be *pinned* to a resource.

This module defines the three kinds of values that can appear in an
instruction operand:

* :class:`Var` -- an SSA (or pre-SSA) virtual register.
* :class:`PhysReg` -- a physical, dedicated register of the target.
* :class:`Imm` -- an immediate constant (never a resource, never pinned).

``Var`` and ``PhysReg`` are both valid *pin targets* (resources); ``Imm``
is not.  All three are immutable and hashable so they can be used freely
as dictionary keys in analyses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union


class RegClass(enum.Enum):
    """Register classes of the ST120-like target.

    ``GPR``
        General purpose data registers ``R0`` .. ``R15``.
    ``PTR``
        Pointer registers ``P0`` .. ``P5`` used for addresses
        (the paper's Figure 1 passes the pointer input in ``P0``).
    ``SP``
        The dedicated stack pointer.  It gets a class of its own because
        the paper treats SP constraints separately (``pinningSP`` is always
        run, see section 5).
    ``COND``
        Condition/guard registers for predication (used by the psi-SSA
        extension).
    """

    GPR = "gpr"
    PTR = "ptr"
    SP = "sp"
    COND = "cond"


@dataclass(frozen=True, eq=False)
class Var:
    """A virtual register (an SSA variable once the program is in SSA form).

    Attributes
    ----------
    name:
        Unique textual name within a function (e.g. ``"x"``, ``"x.3"``).
    regclass:
        The register class this variable would be allocated in.
    origin:
        When SSA construction renames a *physical* register (machine-level
        SSA renames dedicated registers like ordinary variables, as in
        Leung & George), ``origin`` records which one, so the collect
        phase can re-pin the variable to it.  ``None`` for ordinary
        variables.

    Identity is the *name* alone (``regclass``/``origin`` are carried
    metadata); the hash is cached at construction because values serve
    as dictionary keys in every analysis -- liveness and interference
    hash them millions of times per pipeline run.
    """

    name: str
    regclass: RegClass = field(default=RegClass.GPR, compare=False)
    origin: "PhysReg | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.name))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Rebuild through the constructor: the cached string hash is
        # per process (hash randomization), so it must not be pickled.
        return (Var, (self.name, self.regclass, self.origin))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Var:
            return self.name == other.name  # type: ignore[attr-defined]
        return NotImplemented

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var({self.name})"

    @property
    def is_physical(self) -> bool:
        return False


@dataclass(frozen=True, eq=False)
class PhysReg:
    """A dedicated physical register of the target machine.

    Two physical registers always *strongly interfere* (paper section 3.2),
    and a variable pinned to one must end up renamed to it.
    """

    name: str
    regclass: RegClass = field(default=RegClass.GPR, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((PhysReg, self.name)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        return (PhysReg, (self.name, self.regclass))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is PhysReg:
            return self.name == other.name  # type: ignore[attr-defined]
        return NotImplemented

    def __str__(self) -> str:
        return f"${self.name}"

    def __repr__(self) -> str:
        return f"PhysReg({self.name})"

    @property
    def is_physical(self) -> bool:
        return True


@dataclass(frozen=True)
class Imm:
    """An immediate integer constant used as an instruction operand."""

    value: int

    def __str__(self) -> str:
        if self.value >= 4096 or self.value <= -4096:
            return hex(self.value & 0xFFFFFFFF)
        return str(self.value)

    def __repr__(self) -> str:
        return f"Imm({self.value})"

    @property
    def is_physical(self) -> bool:
        return False


#: A value that may appear in an operand.
Value = Union[Var, PhysReg, Imm]

#: A value that may serve as a pin target ("resource" in the paper).
Resource = Union[Var, PhysReg]


def is_resource(value: object) -> bool:
    """Return True when *value* can act as a resource (pin target)."""
    return isinstance(value, (Var, PhysReg))


MASK32 = 0xFFFFFFFF


def wrap32(value: int) -> int:
    """Wrap *value* to a signed 32-bit integer (two's complement).

    The reference interpreter evaluates all arithmetic modulo 2**32 so
    results are deterministic and match a 32-bit DSP like the ST120.
    """
    value &= MASK32
    if value & 0x80000000:
        value -= 1 << 32
    return value
