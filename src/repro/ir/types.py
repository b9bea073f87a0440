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
as dictionary keys in analyses; ``Var`` and ``PhysReg`` are interned,
so they hash and compare by identity.
"""

from __future__ import annotations

import enum
import os
import threading
import weakref
from dataclasses import dataclass
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


#: The interned values, one per identity key (see :func:`_interned`).
_INTERNED: "weakref.WeakValueDictionary[tuple, object]" = \
    weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


def _reset_intern_lock() -> None:
    # A worker forked while another thread held the lock (a pool's
    # result thread unpickles values) must not inherit it locked.
    global _INTERN_LOCK
    _INTERN_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_intern_lock)


def _interned(cls: type, key: tuple, fields: tuple) -> object:
    """The one live *cls* object for *key*, created from *fields* if
    there is none.  A lookup that misses is retried under a lock, so
    two threads never create two objects for one key; the table holds
    its values weakly, so a value no IR refers to any more is freed."""
    value = _INTERNED.get(key)
    if value is None:
        with _INTERN_LOCK:
            value = _INTERNED.get(key)
            if value is None:
                value = object.__new__(cls)
                for name, item in zip(cls.__dataclass_fields__, fields):
                    object.__setattr__(value, name, item)
                _INTERNED[key] = value
    return value


@dataclass(frozen=True, eq=False, init=False)
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

    Values are *interned*: constructing ``Var(name, regclass, origin)``
    returns the one live object with that key, so equality and hashing
    are ``object``'s identity versions, done in C.  Values serve as
    dictionary keys in every analysis -- liveness and interference use
    them millions of times per pipeline run.  Two variables with one
    name but a different ``regclass`` or ``origin`` are two values; the
    IR validator rejects a function that holds both.
    """

    name: str
    regclass: RegClass = RegClass.GPR
    origin: "PhysReg | None" = None

    def __new__(cls, name: str, regclass: RegClass = RegClass.GPR,
                origin: "PhysReg | None" = None) -> "Var":
        return _interned(cls, (cls, name, regclass, origin),
                         (name, regclass, origin))

    def __reduce__(self):
        # Rebuild through the constructor, so an unpickled value is the
        # interned one of the loading process.
        return (Var, (self.name, self.regclass, self.origin))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var({self.name})"

    @property
    def is_physical(self) -> bool:
        return False


@dataclass(frozen=True, eq=False, init=False)
class PhysReg:
    """A dedicated physical register of the target machine.

    Two physical registers always *strongly interfere* (paper section 3.2),
    and a variable pinned to one must end up renamed to it.  Interned
    like :class:`Var`, keyed by ``(name, regclass)``.
    """

    name: str
    regclass: RegClass = RegClass.GPR

    def __new__(cls, name: str,
                regclass: RegClass = RegClass.GPR) -> "PhysReg":
        return _interned(cls, (cls, name, regclass), (name, regclass))

    def __reduce__(self):
        return (PhysReg, (self.name, self.regclass))

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
