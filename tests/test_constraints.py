"""Constraint collection: pinningSP, pinningABI, tied-operand rules."""

from repro.ir.types import PhysReg, RegClass, Var
from repro.lai import parse_function
from repro.machine.constraints import pinning_abi, pinning_sp
from repro.machine.st120 import ST120, make_st120
from repro.pipeline import ensure_ssa
from repro.ssa import variable_resources

from helpers import function_of


class TestTarget:
    def test_register_file(self):
        t = make_st120()
        assert t.reg("R0").regclass == RegClass.GPR
        assert t.reg("P0").regclass == RegClass.PTR
        assert t.reg("SP").regclass == RegClass.SP
        assert t.stack_pointer.name == "SP"

    def test_abi_assignment_by_class(self):
        t = ST120
        regs = t.abi.assign([RegClass.GPR, RegClass.PTR, RegClass.GPR])
        assert [r.name for r in regs] == ["R0", "P0", "R1"]

    def test_abi_returns(self):
        regs = ST120.abi.assign_returns([RegClass.GPR])
        assert regs[0].name == "R0"

    def test_abi_exhaustion(self):
        import pytest

        with pytest.raises(ValueError):
            ST120.abi.assign([RegClass.GPR] * 10)


class TestPinningSP:
    def test_sp_web_repinned(self):
        f = function_of("""
func f
entry:
    readsp $SP
    sub $SP, $SP, 8
    store $SP, 1
    add $SP, $SP, 8
    ret 0
endfunc
""")
        ensure_ssa(f)
        pinned = pinning_sp(f)
        assert pinned == 3
        res = variable_resources(f)
        sp = ST120.stack_pointer
        repinned = [r for v, r in res.items() if v.origin is not None]
        assert repinned and all(r is sp for r in repinned)

    def test_non_sp_untouched(self):
        f = function_of("""
func f
entry:
    input a
    add x, a, 1
    ret x
endfunc
""")
        ensure_ssa(f)
        assert pinning_sp(f) == 0


class TestPinningABI:
    def test_input_and_ret(self):
        f = function_of("""
func f
entry:
    input a, p_x
    add r, a, 1
    ret r
endfunc
""")
        ensure_ssa(f)
        pinning_abi(f)
        inp = f.input_instr
        assert inp.defs[0].pin.name == "R0"
        assert inp.defs[1].pin.name == "P0"  # pointer class by prefix
        ret = f.return_instrs()[0]
        assert ret.uses[0].pin.name == "R0"

    def test_call_operands(self):
        f = function_of("""
func f
entry:
    input a, b
    call r, s = g(b, a)
    add t, r, s
    ret t
endfunc
""")
        ensure_ssa(f)
        pinning_abi(f)
        call = next(i for i in f.instructions() if i.opcode == "call")
        assert [op.pin.name for op in call.uses] == ["R0", "R1"]
        assert [op.pin.name for op in call.defs] == ["R0", "R1"]

    def test_explicit_register_origin(self):
        f = function_of("""
func f
entry:
    input a
    copy $R4, a
    add x, $R4, 1
    ret x
endfunc
""")
        ensure_ssa(f)
        pinning_abi(f)
        res = variable_resources(f)
        r4_vars = [v for v in res if v.origin == PhysReg("R4")]
        assert r4_vars and all(res[v].name == "R4" for v in r4_vars)

    def test_explicit_pins_respected(self):
        f = function_of("""
func f
entry:
    input a^R3
    ret a
endfunc
""")
        ensure_ssa(f)
        pinning_abi(f)
        assert f.input_instr.defs[0].pin.name == "R3"


class TestTiedPinning:
    def test_tie_coalesce_when_free(self):
        """Both definitions unpinned and non-interfering: the paper's
        Figure 11 treatment merges them by pinning the destination."""
        f = function_of("""
func f
entry:
    input a
    add b, a, 2
    autoadd x, b, 3
    ret x
endfunc
""")
        ensure_ssa(f)
        pinning_abi(f)
        res = variable_resources(f)
        # b.1 and x.1 share a resource
        names = {v.name: r for v, r in res.items()}
        assert names["b.1"] == names["x.1"]

    def test_fallback_when_source_is_pinned(self):
        """Figure 1: P is pinned to P0, so the use is pinned to the
        definition's resource instead (a move will be inserted)."""
        f = function_of("""
func f
entry:
    input a, p_in
    autoadd q, p_in, 1
    load r, q
    store q, r
    ret r
endfunc
""")
        ensure_ssa(f)
        pinning_abi(f)
        auto = next(i for i in f.instructions() if i.opcode == "autoadd")
        assert auto.uses[0].pin is not None
        assert auto.uses[0].pin == auto.defs[0].value  # pinned to q

    def test_fallback_when_interference(self):
        """The tied source stays live past the destination's definition:
        tying the definitions would kill it, so the use-pin fallback is
        chosen."""
        f = function_of("""
func f
entry:
    input a
    add b, a, 2
    autoadd x, b, 3
    add r, x, b
    ret r
endfunc
""")
        ensure_ssa(f)
        pinning_abi(f)
        res = variable_resources(f)
        names = {v.name: r for v, r in res.items()}
        assert names["b.1"] != names["x.1"]
        auto = next(i for i in f.instructions() if i.opcode == "autoadd")
        assert auto.uses[0].pin is not None

    def test_immediate_source_ignored(self):
        f = function_of("""
func f
entry:
    input a
    more x, a, 0xBEEF
    ret x
endfunc
""")
        ensure_ssa(f)
        pinning_abi(f)  # must not crash on the immediate
        more = next(i for i in f.instructions() if i.opcode == "more")
        assert more.uses[1].pin is None
