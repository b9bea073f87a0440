"""Unit tests for the IR core: values, operands, instructions, blocks."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.ir import (OPCODES, BasicBlock, Imm, Instruction, Operand,
                      PhysReg, RegClass, Var, is_resource, make_branch,
                      make_cond_branch, make_copy, make_pcopy, make_phi,
                      wrap32)


class TestValues:
    def test_var_identity(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")
        assert hash(Var("x")) == hash(Var("x"))

    def test_var_is_interned_by_name_regclass_and_origin(self):
        sp = PhysReg("SP", RegClass.SP)
        assert Var("sp.1", RegClass.SP, sp) is Var("sp.1", RegClass.SP, sp)
        assert PhysReg("SP", RegClass.SP) is sp
        assert Var("sp.1", RegClass.SP, sp) != Var("sp.1", RegClass.SP)
        assert Var("x") != Var("x", RegClass.PTR)
        assert PhysReg("SP") != sp

    def test_interning_is_safe_under_threads(self):
        names = [f"thread_race.{i}" for i in range(300)]
        barrier = threading.Barrier(4)

        def build() -> list:
            barrier.wait()
            return [Var(name) for name in names]

        with ThreadPoolExecutor(4) as pool:
            built = list(pool.map(lambda _: build(), range(4)))
        for values in built[1:]:
            assert all(a is b for a, b in zip(values, built[0]))

    def test_values_hash_and_compare_by_identity_in_c(self):
        # A Python-level __hash__/__eq__ costs every analysis query.
        for cls in (Var, PhysReg):
            assert cls.__hash__ is object.__hash__
            assert cls.__eq__ is object.__eq__

    def test_physreg_str_has_dollar(self):
        assert str(PhysReg("R0")) == "$R0"

    def test_var_is_not_physical(self):
        assert not Var("x").is_physical
        assert PhysReg("R0").is_physical
        assert not Imm(3).is_physical

    def test_is_resource(self):
        assert is_resource(Var("x"))
        assert is_resource(PhysReg("R1"))
        assert not is_resource(Imm(1))
        assert not is_resource("x")

    def test_imm_str_small_decimal_large_hex(self):
        assert str(Imm(42)) == "42"
        assert str(Imm(0x12345)) == hex(0x12345)

    def test_wrap32_positive(self):
        assert wrap32(5) == 5
        assert wrap32(2**31 - 1) == 2**31 - 1

    def test_wrap32_overflow(self):
        assert wrap32(2**31) == -(2**31)
        assert wrap32(2**32 + 7) == 7

    def test_wrap32_negative(self):
        assert wrap32(-1) == -1
        assert wrap32(-(2**31) - 1) == 2**31 - 1

    def test_unpickled_values_are_the_interned_ones_across_processes(self):
        # String hashes differ per process: a Var/PhysReg written to a
        # cache by one process must load as the very object a fresh
        # construction gives in another.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

        def run(seed: str, code: str, stdin: str = "") -> str:
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env,
                capture_output=True, text=True, check=True).stdout.strip()

        dumped = run("1", (
            "import pickle; from repro.ir import PhysReg, RegClass, Var; "
            "sp = PhysReg('SP', RegClass.SP); "
            "print(pickle.dumps([Var('x'), PhysReg('R0'), "
            "Var('sp.1', RegClass.SP, sp)]).hex())"))
        checked = run("2", (
            "import pickle, sys; "
            "from repro.ir import PhysReg, RegClass, Var; "
            "x, r0, sp1 = pickle.loads(bytes.fromhex(sys.stdin.read())); "
            "sp = PhysReg('SP', RegClass.SP); "
            "print(x is Var('x'), r0 is PhysReg('R0'), "
            "sp1 is Var('sp.1', RegClass.SP, sp), sp1.origin is sp, "
            "sp1 in {Var('sp.1', RegClass.SP, sp)}, "
            "sp1 is not Var('sp.1', RegClass.SP))"), dumped)
        assert checked == "True True True True True True"


class TestOperand:
    def test_pin_on_immediate_rejected(self):
        with pytest.raises(ValueError):
            Operand(Imm(1), pin=PhysReg("R0"))

    def test_str_with_pin(self):
        op = Operand(Var("x"), pin=PhysReg("R0"))
        assert str(op) == "x^$R0"

    def test_copy_is_fresh_object(self):
        op = Operand(Var("x"), pin=Var("r"), is_def=True)
        clone = op.copy()
        assert clone is not op
        assert clone.value == op.value
        assert clone.pin == op.pin
        assert clone.is_def


class TestInstruction:
    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            Instruction("frobnicate")

    def test_def_use_marking(self):
        instr = Instruction("add", [Operand(Var("d"))],
                            [Operand(Var("a")), Operand(Imm(1))])
        assert instr.defs[0].is_def
        assert not instr.uses[0].is_def

    def test_is_copy_excludes_immediates(self):
        assert make_copy(Var("a"), Var("b")).is_copy
        assert not Instruction("copy", [Operand(Var("a"), is_def=True)],
                               [Operand(Imm(5))]).is_copy

    def test_phi_accessors(self):
        phi = make_phi(Var("x"), [("a", Var("x1")), ("b", Var("x2"))])
        assert phi.is_phi
        assert phi.phi_arg_for("a").value == Var("x1")
        assert phi.phi_arg_for("b").value == Var("x2")
        with pytest.raises(KeyError):
            phi.phi_arg_for("zzz")

    def test_phi_set_arg(self):
        phi = make_phi(Var("x"), [("a", Var("x1")), ("b", Var("x2"))])
        phi.set_phi_arg("b", Var("y"))
        assert phi.phi_arg_for("b").value == Var("y")

    def test_pcopy_pairs(self):
        pc = make_pcopy([(Var("a"), Var("b")), (Var("c"), Imm(3))])
        pairs = pc.pcopy_pairs()
        assert pairs[0][0].value == Var("a")
        assert pairs[1][1].value == Imm(3)

    def test_terminators(self):
        assert make_branch("x").is_terminator
        assert make_cond_branch(Var("c"), "a", "b").is_terminator
        assert Instruction("ret").is_terminator
        assert not make_copy(Var("a"), Var("b")).is_terminator

    def test_copy_deep_copies_attrs(self):
        br = make_cond_branch(Var("c"), "a", "b")
        clone = br.copy()
        clone.attrs["targets"][0] = "z"
        assert br.attrs["targets"][0] == "a"

    def test_uid_unique(self):
        a = make_branch("x")
        b = make_branch("x")
        assert a.uid != b.uid

    def test_tied_specs(self):
        assert OPCODES["autoadd"].tied == ((0, 0),)
        assert OPCODES["mac"].tied == ((0, 0),)
        assert OPCODES["more"].tied == ((0, 0),)
        assert OPCODES["add"].tied == ()


class TestBasicBlock:
    def test_append_routes_phis(self):
        block = BasicBlock("b")
        phi = make_phi(Var("x"), [("p", Var("y"))])
        block.append(phi)
        block.append(make_branch("b"))
        assert block.phis == [phi]
        assert len(block.body) == 1

    def test_terminator_property(self):
        block = BasicBlock("b")
        assert block.terminator is None
        block.append(make_copy(Var("a"), Var("b")))
        assert block.terminator is None
        block.append(make_branch("x"))
        assert block.terminator is not None
        assert block.successors() == ["x"]

    def test_insert_before_terminator(self):
        block = BasicBlock("b")
        block.append(make_branch("x"))
        copy = make_copy(Var("a"), Var("b"))
        block.insert_before_terminator(copy)
        assert block.body[0] is copy

    def test_insert_at_entry_skips_input(self):
        block = BasicBlock("entry")
        inp = Instruction("input", defs=[Operand(Var("p"), is_def=True)])
        block.append(inp)
        block.append(make_branch("x"))
        copy = make_copy(Var("a"), Var("b"))
        block.insert_at_entry(copy)
        assert block.body[0] is inp
        assert block.body[1] is copy

    def test_len_counts_phis_and_body(self):
        block = BasicBlock("b")
        block.append(make_phi(Var("x"), [("p", Var("y"))]))
        block.append(make_branch("q"))
        assert len(block) == 2
