"""Delta-debugging minimizer for fuzz-found failures.

:func:`minimize` shrinks an LAI program (plus its verify runs) while a
caller-supplied predicate keeps answering "the failure still
reproduces".  Reductions run coarse to fine, each to a fixpoint:

1. drop whole functions (with their verify runs),
2. drop verify runs,
3. simplify ``call`` instructions into constant ``make``s (which lets
   round 1 drop the now-uncalled callees),
4. collapse ``cbr`` to one arm and drop unreachable blocks,
5. drop instructions, halving chunk sizes down to single lines.

Every candidate is re-printed and handed to the predicate as text, so a
reduction that produces an unparseable / semantically broken program is
simply rejected -- the predicate is the single source of truth, exactly
like classic ddmin.  :func:`divergence_predicate` builds the standard
predicate from a recorded :class:`~repro.fuzz.differential.Divergence`:
re-run only the failing check and match on :meth:`Divergence.key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..ir.function import Module
from ..ir.instructions import Instruction, Operand
from ..ir.types import Imm
from ..ir.printer import format_module
from ..lai import parse_module
from .differential import (ALL_CHECKS, ANCHOR_COMPOSITION,
                           DEFAULT_INVARIANTS, Divergence, check_module)

Verify = Sequence[tuple[str, Sequence[int]]]
Predicate = Callable[[str, Verify], bool]


@dataclass
class MinimizeResult:
    source: str
    verify: list
    checks: int       #: predicate evaluations spent
    accepted: int     #: reductions that kept the failure alive
    functions: int
    instructions: int


def divergence_predicate(divergence: Divergence,
                         jobs: int = 4) -> Predicate:
    """The standard predicate: does re-running the failing check family
    still produce a divergence with the same :meth:`Divergence.key`?

    Only the failing check runs (and for composition/variant failures
    only the failing experiment), so minimization stays fast even when
    the original sweep ran everything.  A ``parallel`` or ``cache``
    failure compares against the serial anchor output, so the anchor
    composition runs with it.
    """
    check = divergence.check if divergence.check in ALL_CHECKS \
        else "compositions"
    checks: tuple = (check,)
    experiments: Optional[list[str]] = None
    if check == "compositions" and divergence.composition:
        experiments = [divergence.composition]
    if check in ("parallel", "cache"):
        checks = ("compositions", check)
        experiments = [ANCHOR_COMPOSITION]
    invariants = DEFAULT_INVARIANTS
    if check == "invariants":
        checks = ("compositions", "invariants")
        if "<=" in divergence.composition:
            lhs, rhs = divergence.composition.split("<=", 1)
            invariants = ((lhs, rhs),)
            experiments = [lhs, rhs]

    def predicate(source: str, verify: Verify) -> bool:
        result = check_module(source, verify, checks=checks,
                              experiments=experiments,
                              invariants=invariants, jobs=jobs)
        target = divergence.key()
        return any(d.key() == target for d in result.divergences)

    return predicate


# ----------------------------------------------------------------------
# IR surgery helpers (all operate on fresh parses, mutate, re-print)
# ----------------------------------------------------------------------
def _drop_function(module: Module, name: str) -> Module:
    slim = Module(module.name)
    for function in module.iter_functions():
        if function.name != name:
            slim.add_function(function)
    slim.externals = dict(module.externals)
    return slim


def _drop_unreachable(function) -> None:
    reachable = set()
    stack = [function.entry]
    while stack:
        label = stack.pop()
        if label in reachable or label not in function.blocks:
            continue
        reachable.add(label)
        stack.extend(function.blocks[label].successors())
    for label in [l for l in function.blocks if l not in reachable]:
        del function.blocks[label]
    # Phi incoming edges from removed predecessors would no longer
    # correspond to the CFG; prune them (pre-SSA inputs have no phis,
    # this matters only when minimizing hand-written SSA repros).
    predecessors: dict[str, set] = {label: set() for label in
                                    function.blocks}
    for label, block in function.blocks.items():
        for succ in block.successors():
            if succ in predecessors:
                predecessors[succ].add(label)
    for label, block in function.blocks.items():
        for phi in list(block.phis):
            incoming = phi.attrs.get("incoming", [])
            keep = [i for i, src in enumerate(incoming)
                    if src in predecessors[label]]
            if len(keep) == len(incoming):
                continue
            phi.uses = [phi.uses[i] for i in keep]
            phi.attrs["incoming"] = [incoming[i] for i in keep]
    function.bump_cfg_epoch()


def _call_sites(module: Module) -> list[tuple[str, str, int]]:
    sites = []
    for function in module.iter_functions():
        for label, block in function.blocks.items():
            for pos, instr in enumerate(block.body):
                if instr.opcode == "call":
                    sites.append((function.name, label, pos))
    return sites


def _called_names(module: Module) -> set:
    return {instr.attrs.get("callee")
            for function in module.iter_functions()
            for block in function.iter_blocks()
            for instr in block.body if instr.opcode == "call"}


class _Minimizer:
    def __init__(self, source: str, verify: Verify,
                 predicate: Predicate, max_checks: int) -> None:
        self.predicate = predicate
        self.max_checks = max_checks
        self.checks = 0
        self.accepted = 0
        self.source = format_module(parse_module(source))
        self.verify = [(fn, list(args)) for fn, args in verify]

    def exhausted(self) -> bool:
        return self.checks >= self.max_checks

    def _try(self, module: Module,
             verify: Optional[list] = None) -> bool:
        """Accept (module, verify) as the new current state if the
        failure still reproduces on it."""
        if self.exhausted():
            return False
        candidate = format_module(module)
        candidate_verify = self.verify if verify is None else verify
        if candidate == self.source and verify is None:
            return False
        self.checks += 1
        try:
            if not self.predicate(candidate, candidate_verify):
                return False
        except Exception:  # noqa: BLE001 - broken candidate == rejected
            return False
        self.source = candidate
        self.verify = candidate_verify
        self.accepted += 1
        return True

    def module(self) -> Module:
        return parse_module(self.source)

    # -- reduction rounds ----------------------------------------------
    def drop_functions(self) -> bool:
        changed = False
        progress = True
        while progress and not self.exhausted():
            progress = False
            module = self.module()
            called = _called_names(module)
            for name in list(module.functions):
                if name in called:
                    continue  # removing a called function cannot pass
                slim = _drop_function(parse_module(self.source), name)
                if not slim.functions:
                    continue
                verify = [(fn, args) for fn, args in self.verify
                          if fn != name]
                if self._try(slim, verify):
                    progress = changed = True
                    break
        return changed

    def drop_verify(self) -> bool:
        changed = False
        index = 0
        while index < len(self.verify) and len(self.verify) > 1 \
                and not self.exhausted():
            verify = self.verify[:index] + self.verify[index + 1:]
            if self._try(self.module(), verify):
                changed = True
            else:
                index += 1
        return changed

    def simplify_calls(self) -> bool:
        changed = False
        for fn_name, label, pos in reversed(_call_sites(self.module())):
            if self.exhausted():
                break
            module = self.module()
            block = module.functions[fn_name].blocks[label]
            call = block.body[pos]
            # Results become constants; a result-less call just goes.
            makes = [Instruction("make", [dest], [Operand(Imm(1))])
                     for dest in call.defs]
            block.body[pos:pos + 1] = makes
            module.functions[fn_name].bump_epoch()
            if self._try(module):
                changed = True
        return changed

    def collapse_branches(self) -> bool:
        changed = True
        any_change = False
        while changed and not self.exhausted():
            changed = False
            module = self.module()
            sites = [(function.name, label)
                     for function in module.iter_functions()
                     for label, block in function.blocks.items()
                     if (block.terminator is not None
                         and block.terminator.opcode == "cbr")]
            for fn_name, label in sites:
                if self.exhausted():
                    break
                for arm in (0, 1):
                    module = self.module()
                    function = module.functions[fn_name]
                    block = function.blocks[label]
                    term = block.terminator
                    target = term.targets()[arm]
                    block.body[-1] = Instruction(
                        "br", attrs={"targets": [target]})
                    _drop_unreachable(function)
                    if self._try(module):
                        changed = any_change = True
                        break
                if changed:
                    break
        return any_change

    def drop_instructions(self) -> bool:
        any_change = False
        module = self.module()
        for fn_name in list(module.functions):
            for label in list(module.functions[fn_name].blocks):
                if self.exhausted():
                    return any_change
                if self._shrink_block(fn_name, label):
                    any_change = True
        return any_change

    def _removable(self, fn_name: str, label: str) -> list[int]:
        function = parse_module(self.source).functions.get(fn_name)
        if function is None or label not in function.blocks:
            return []
        block = function.blocks[label]
        positions = []
        for pos, instr in enumerate(block.body):
            if instr.is_terminator or instr.opcode == "input":
                continue
            positions.append(pos)
        return positions

    def _shrink_block(self, fn_name: str, label: str) -> bool:
        changed = False
        chunk = max(1, len(self._removable(fn_name, label)) // 2)
        while chunk >= 1 and not self.exhausted():
            progress = False
            positions = self._removable(fn_name, label)
            start = 0
            while start < len(positions) and not self.exhausted():
                window = positions[start:start + chunk]
                module = self.module()
                block = module.functions[fn_name].blocks[label]
                for pos in reversed(window):
                    del block.body[pos]
                module.functions[fn_name].bump_epoch()
                if self._try(module):
                    changed = progress = True
                    positions = self._removable(fn_name, label)
                else:
                    start += chunk
            if not progress:
                chunk //= 2
        return changed


def minimize(source: str, verify: Verify, predicate: Predicate,
             max_rounds: int = 10,
             max_checks: int = 600) -> MinimizeResult:
    """Shrink *source*/*verify* while *predicate* keeps reproducing.

    The initial input must reproduce (``ValueError`` otherwise) --
    shrinking a non-failure would minimize to garbage.  ``max_checks``
    bounds total predicate evaluations; ``max_rounds`` bounds
    coarse-to-fine sweeps (each sweep re-runs every reduction family
    until none fires).
    """
    state = _Minimizer(source, verify, predicate, max_checks)
    if not predicate(state.source, state.verify):
        raise ValueError("input does not reproduce the failure; "
                         "refusing to minimize")
    for _ in range(max_rounds):
        changed = state.drop_functions()
        changed |= state.drop_verify()
        changed |= state.simplify_calls()
        changed |= state.drop_functions()
        changed |= state.collapse_branches()
        changed |= state.drop_instructions()
        if not changed or state.exhausted():
            break
    module = state.module()
    instructions = sum(len(block.phis) + len(block.body)
                       for function in module.iter_functions()
                       for block in function.iter_blocks())
    return MinimizeResult(source=state.source, verify=state.verify,
                          checks=state.checks, accepted=state.accepted,
                          functions=len(module.functions),
                          instructions=instructions)
