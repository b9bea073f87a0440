"""Structural IR verifier.

Run between passes (the pipeline driver calls it after every phase) to
catch malformed programs early: dangling branch targets, phi operand
mismatches, missing terminators, operand-count violations against the
:data:`~repro.ir.instructions.OPCODES` table, two distinct values with
one printed name, and -- when ``ssa=True`` -- the single-assignment
property and phi/predecessor agreement.
"""

from __future__ import annotations

from typing import Callable

from .cfg import predecessors_map, reachable_labels
from .function import Function, Module
from .instructions import OPCODES, Instruction
from .types import Imm, PhysReg, Var


class ValidationError(Exception):
    """Raised when the IR violates a structural invariant."""


def _fail(function: Function, where: str, message: str) -> None:
    raise ValidationError(f"{function.name}: {where}: {message}")


def validate_function(function: Function, ssa: bool = False,
                      allow_phis: bool = True) -> None:
    """Check structural invariants; raise :class:`ValidationError`.

    Parameters
    ----------
    ssa:
        Additionally enforce single assignment, phi arity matching the
        predecessor lists, and definitions in reachable blocks.
    allow_phis:
        Set to False after out-of-SSA translation: any remaining phi (or
        pcopy, which must have been sequentialized) is an error.
    """
    if function.entry is None or function.entry not in function.blocks:
        raise ValidationError(f"{function.name}: missing entry block")

    preds = predecessors_map(function)
    #: Every value and pin the operands hold, for the name check below.
    values: set[Var | PhysReg] = set()
    add = values.add

    for label, block in function.blocks.items():
        where = f"block {label}"
        if block.label != label:
            _fail(function, where, "label mismatch with function map")
        term = block.terminator
        if term is None:
            _fail(function, where, "missing terminator")
        for instr in block.body:
            if instr.is_terminator and instr is not term:
                _fail(function, where, "terminator in the middle of a block")
            if instr.is_phi:
                _fail(function, where, "phi outside the phi prefix")
            _validate_instruction(function, where, instr, allow_phis, add)
        for target in term.targets():
            if target not in function.blocks:
                _fail(function, where, f"branch to unknown block {target!r}")
        for instr in block.phis:
            _validate_instruction(function, where, instr, allow_phis, add)
        for phi in block.phis:
            incoming = phi.attrs.get("incoming")
            if incoming is None or len(incoming) != len(phi.uses):
                _fail(function, where, f"phi incoming/use mismatch: {phi}")
            if ssa:
                if sorted(incoming) != sorted(preds[label]):
                    _fail(function, where,
                          f"phi incoming {incoming} != preds {preds[label]}"
                          f" for {phi}")

    # Values are interned and compare by identity, so two distinct
    # objects with one printed name (``Var("x")`` and
    # ``Var("x", RegClass.PTR)``) would silently split one variable in
    # two.  Values sharing a bare name are rare; only then are the
    # printed forms compared.
    if len({value.name for value in values}) != len(values):
        _validate_names(function)
    if ssa:
        _validate_single_assignment(function)


def _validate_instruction(function: Function, where: str,
                          instr: Instruction, allow_phis: bool,
                          add: Callable[[Var | PhysReg], None]) -> None:
    """Check *instr* and *add* each value and pin its operands hold."""
    # The constructor rejects unknown opcodes and precomputes the spec,
    # so no table lookup is needed here (unpickling rebuilds it too).
    spec = instr.spec
    if spec is None:
        _fail(function, where, f"unknown opcode {instr.opcode!r}")
    if not allow_phis and instr.opcode in ("phi", "pcopy", "psi"):
        _fail(function, where,
              f"{instr.opcode} must not survive out-of-SSA: {instr}")
    if spec.n_defs is not None and len(instr.defs) != spec.n_defs:
        _fail(function, where,
              f"{instr.opcode} expects {spec.n_defs} defs, "
              f"got {len(instr.defs)}: {instr}")
    if spec.n_uses is not None and len(instr.uses) != spec.n_uses:
        _fail(function, where,
              f"{instr.opcode} expects {spec.n_uses} uses, "
              f"got {len(instr.uses)}: {instr}")
    for op in instr.defs:
        value = op.value
        if not op.is_def:
            _fail(function, where, f"def operand not marked as def: {instr}")
        if value.__class__ is Imm:
            _fail(function, where, f"immediate cannot be defined: {instr}")
        add(value)
        if op.pin is not None:
            add(op.pin)
    for op in instr.uses:
        value = op.value
        if op.is_def:
            _fail(function, where, f"use operand marked as def: {instr}")
        if value.__class__ is not Imm:
            add(value)
        if op.pin is not None:
            add(op.pin)
    if instr.opcode == "pcopy" and len(instr.defs) != len(instr.uses):
        _fail(function, where, f"pcopy def/use length mismatch: {instr}")
    if instr.opcode == "psi" and len(instr.uses) % 2 != 0:
        _fail(function, where, f"psi needs (guard, value) pairs: {instr}")
    if instr.opcode == "call" and "callee" not in instr.attrs:
        _fail(function, where, f"call without callee: {instr}")


def _validate_names(function: Function) -> None:
    """Fail on the first operand, in program order, whose value or pin
    prints like an earlier, distinct value."""
    named: dict[str, Var | PhysReg] = {}
    for block in function.iter_blocks():
        for instr in block.instructions():
            for op in instr.operands():
                for value in (op.value, op.pin):
                    if value is None or value.__class__ is Imm:
                        continue
                    other = named.setdefault(str(value), value)
                    if other is not value:
                        _fail(function, f"block {block.label}",
                              f"two values named {value}: {other!r} "
                              f"({other.regclass.name}) and {value!r} "
                              f"({value.regclass.name}) in {instr}")


def _validate_single_assignment(function: Function) -> None:
    defined: dict[Var, str] = {}
    for block in function.iter_blocks():
        for instr in block.instructions():
            for op in instr.defs:
                value = op.value
                if isinstance(value, PhysReg):
                    _fail(function, f"block {block.label}",
                          f"SSA form may not define a physical register "
                          f"directly: {instr}")
                if value in defined:
                    _fail(function, f"block {block.label}",
                          f"variable {value} defined twice "
                          f"(also in {defined[value]})")
                defined[value] = block.label
    reachable = reachable_labels(function)
    for var, label in defined.items():
        if label not in reachable:
            _fail(function, f"block {label}",
                  f"definition of {var} in unreachable block")


def validate_module(module: Module, ssa: bool = False,
                    allow_phis: bool = True) -> None:
    for function in module.iter_functions():
        validate_function(function, ssa=ssa, allow_phis=allow_phis)
    for function in module.iter_functions():
        for instr in function.instructions():
            if instr.opcode == "call":
                callee = instr.attrs["callee"]
                if (callee not in module.functions
                        and callee not in module.externals):
                    raise ValidationError(
                        f"{function.name}: call to unknown function "
                        f"{callee!r}")
