"""CFG utilities and the structural verifier."""

import pytest

from repro.ir import (Operand, PhysReg, RegClass, ValidationError, Var,
                      format_function, has_critical_edges,
                      predecessors_map, remove_unreachable_blocks,
                      reverse_postorder, split_critical_edges,
                      validate_function, validate_module)
from repro.lai import parse_function, parse_module

from helpers import DIAMOND, LOOP, function_of

CRITICAL = """
func crit
entry:
    input a
    cbr a, mid, join
mid:
    make x, 1
    br join
join:
    y = phi(x:mid, a:entry)
    ret y
endfunc
"""


class TestCfgQueries:
    def test_predecessors(self):
        f = function_of(DIAMOND)
        preds = predecessors_map(f)
        assert sorted(preds["join"]) == ["left", "right"]
        assert preds["entry"] == []

    def test_reverse_postorder_starts_at_entry(self):
        f = function_of(LOOP)
        order = reverse_postorder(f)
        assert order[0] == "entry"
        assert set(order) == set(f.blocks)
        # head precedes body and exit
        assert order.index("head") < order.index("body")

    def test_unreachable_removed(self):
        f = function_of("""
func f
entry:
    input a
    br out
dead:
    make x, 1
    br out
out:
    ret a
endfunc
""")
        removed = remove_unreachable_blocks(f)
        assert removed == ["dead"]
        assert "dead" not in f.blocks

    def test_unreachable_phi_args_dropped(self):
        f = function_of("""
func f
entry:
    input a
    br out
dead:
    br out
out:
    y = phi(a:entry, a:dead)
    ret y
endfunc
""")
        remove_unreachable_blocks(f)
        phi = f.blocks["out"].phis[0]
        assert phi.attrs["incoming"] == ["entry"]
        assert len(phi.uses) == 1


class TestCriticalEdges:
    def test_detection(self):
        assert has_critical_edges(function_of(CRITICAL))
        assert not has_critical_edges(function_of(DIAMOND))

    def test_split_fixes_phis(self):
        f = function_of(CRITICAL)
        created = split_critical_edges(f)
        assert len(created) == 1
        assert not has_critical_edges(f)
        phi = f.blocks["join"].phis[0]
        assert set(phi.attrs["incoming"]) == {"mid", created[0]}
        validate_function(f, ssa=True)

    def test_split_idempotent(self):
        f = function_of(CRITICAL)
        split_critical_edges(f)
        assert split_critical_edges(f) == []


class TestValidator:
    def test_accepts_good_ssa(self):
        validate_function(function_of(DIAMOND), ssa=True)

    def test_missing_terminator(self):
        f = function_of(DIAMOND)
        f.blocks["left"].body.pop()
        with pytest.raises(ValidationError, match="terminator"):
            validate_function(f)

    def test_branch_to_unknown_block(self):
        f = function_of(DIAMOND)
        f.blocks["left"].terminator.attrs["targets"] = ["nowhere"]
        with pytest.raises(ValidationError, match="unknown block"):
            validate_function(f)

    def test_double_definition_rejected_in_ssa(self):
        f = function_of("""
func f
entry:
    input a
    add x, a, 1
    add x, a, 2
    ret x
endfunc
""")
        validate_function(f)  # fine as non-SSA
        with pytest.raises(ValidationError, match="defined twice"):
            validate_function(f, ssa=True)

    def test_two_values_with_one_name_rejected(self):
        # Values compare by identity: Var("b") and Var("b", PTR) are
        # two variables that print alike.
        f = function_of(DIAMOND)
        mul = f.blocks["right"].body[0]
        assert mul.uses[0].value is Var("b")
        mul.uses[0] = Operand(Var("b", RegClass.PTR))
        for ssa in (False, True):
            with pytest.raises(ValidationError,
                               match=r"block right: two values named b"):
                validate_function(f, ssa=ssa)

    def test_pin_with_a_second_register_of_one_name_rejected(self):
        f = function_of(DIAMOND)
        add = f.blocks["left"].body[0]
        add.uses[0] = Operand(Var("b"), pin=PhysReg("R1"))
        mul = f.blocks["right"].body[0]
        mul.uses[0] = Operand(Var("b"), pin=PhysReg("R1", RegClass.PTR))
        with pytest.raises(ValidationError, match=r"two values named \$R1"):
            validate_function(f)

    def test_variable_named_like_a_register_accepted(self):
        # One bare name, two printed names ("R1" and "$R1"): legal.
        f = function_of(DIAMOND)
        add = f.blocks["left"].body[0]
        add.uses[0] = Operand(Var("R1"), pin=PhysReg("R1"))
        validate_function(f)

    def test_phi_incoming_mismatch(self):
        f = function_of(DIAMOND)
        f.blocks["join"].phis[0].attrs["incoming"] = ["left", "left"]
        with pytest.raises(ValidationError, match="phi incoming"):
            validate_function(f, ssa=True)

    def test_phis_forbidden_after_out_of_ssa(self):
        f = function_of(DIAMOND)
        with pytest.raises(ValidationError, match="survive"):
            validate_function(f, allow_phis=False)

    def test_operand_count_checked(self):
        f = function_of(LOOP)
        add = next(i for i in f.instructions() if i.opcode == "add")
        add.uses.pop()
        with pytest.raises(ValidationError, match="expects 2 uses"):
            validate_function(f)

    def test_module_checks_callees(self):
        m = parse_module("""
func main
entry:
    call r = ghost()
    ret r
endfunc
""")
        with pytest.raises(ValidationError, match="unknown function"):
            validate_module(m)
