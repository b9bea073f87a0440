"""ST120-like target description.

The paper's experiments target the STMicroelectronics ST120, "a DSP
processor with full predication, 16-bit packed arithmetic instructions,
multiply-accumulate instructions and a few 2-operands instructions such
as addressing mode with auto-modification of base pointer" (section 1).

We model what the algorithms observe:

* sixteen data registers ``R0``-``R15`` (ABI: first four carry data
  arguments, ``R0`` the result -- as in Figure 1 / Figure 3),
* six pointer registers ``P0``-``P5`` (first two carry pointer
  arguments, as ``.input P^P0`` in Figure 1),
* the dedicated stack pointer ``SP``,
* guard registers ``G0``-``G3`` for the ``psi`` opcode's guards,
* 2-operand instructions ``autoadd``, ``more``, ``mac`` whose destination
  is tied to their first source.
"""

from __future__ import annotations

from ..ir.types import PhysReg, RegClass
from .target import Abi, Target


def make_st120() -> Target:
    registers: dict[str, PhysReg] = {}
    for i in range(16):
        registers[f"R{i}"] = PhysReg(f"R{i}", RegClass.GPR)
    for i in range(6):
        registers[f"P{i}"] = PhysReg(f"P{i}", RegClass.PTR)
    for i in range(4):
        registers[f"G{i}"] = PhysReg(f"G{i}", RegClass.COND)
    registers["SP"] = PhysReg("SP", RegClass.SP)

    abi = Abi(
        arg_regs=[registers[f"R{i}"] for i in range(4)],
        ret_regs=[registers[f"R{i}"] for i in range(2)],
        ptr_arg_regs=[registers["P0"], registers["P1"]],
        ptr_ret_regs=[registers["P0"]],
    )
    return Target("st120", registers, abi, registers["SP"])


#: Shared singleton; the description is immutable in practice.
ST120 = make_st120()
