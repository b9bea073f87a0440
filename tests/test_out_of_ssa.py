"""The shared out-of-pinned-SSA reconstruction (Leung & George style):
edge copies, coalesced omissions, use-pin moves, kills and repairs."""

import pytest

from repro.interp import run_function, run_module
from repro.ir import format_function, validate_function
from repro.ir.types import PhysReg, Var
from repro.lai import parse_function, parse_module
from repro.metrics import count_moves
from repro.outofssa import out_of_pinned_ssa
from repro.ssa import PinningError

from helpers import assert_equivalent, function_of, module_of


def copies(f):
    return [i for i in f.instructions() if i.is_copy]


class TestBasicLowering:
    def test_simple_diamond(self):
        src = """
func f
entry:
    input a, b
    cbr a, l, r
l:
    add x1, b, 1
    br j
r:
    add x2, b, 2
    br j
j:
    x = phi(x1:l, x2:r)
    ret x
endfunc
"""
        f = function_of(src)
        before1 = run_function(f.copy(), [1, 5]).observable()
        before0 = run_function(f.copy(), [0, 5]).observable()
        stats = out_of_pinned_ssa(f)
        validate_function(f, allow_phis=False)
        assert stats.edge_copies == 2  # no pinning: one copy per edge
        assert run_function(f.copy(), [1, 5]).observable() == before1
        assert run_function(f.copy(), [0, 5]).observable() == before0

    def test_coalesced_args_skip_copies(self):
        src = """
func f
entry:
    input a, b
    cbr a, l, r
l:
    add x1^x, b, 1
    br j
r:
    add x2^x, b, 2
    br j
j:
    x^x = phi(x1:l, x2:r)
    ret x
endfunc
"""
        f = function_of(src)
        stats = out_of_pinned_ssa(f)
        assert stats.edge_copies == 0
        assert stats.coalesced_edges == 2
        assert count_moves(f) == 0

    def test_degenerate_single_pred_phi(self):
        src = """
func f
entry:
    input a
    br next
next:
    x = phi(a:entry)
    add r, x, 1
    ret r
endfunc
"""
        f = function_of(src)
        out_of_pinned_ssa(f)
        validate_function(f, allow_phis=False)
        assert run_function(f, [4]).results == (5,)

    def test_swap_loop_uses_temp(self):
        from helpers import SWAP_LOOP

        m = module_of(SWAP_LOOP)
        f = m.function("swaploop")
        # coalesce both phis with their initial values: forces the
        # edge parallel copy into a swap
        for instr in f.instructions():
            for op in instr.defs:
                if op.value.name in ("x", "x0"):
                    op.pin = Var("rx")
                if op.value.name in ("y", "y0"):
                    op.pin = Var("ry")
        before = [run_module(module_of(SWAP_LOOP), "swaploop",
                             [1, 2, n]).observable() for n in (1, 2, 3)]
        out_of_pinned_ssa(f)
        validate_function(f, allow_phis=False)
        for n, expected in zip((1, 2, 3), before):
            assert run_module(m, "swaploop", [1, 2, n]).observable() \
                == expected


class TestUsePins:
    def test_move_inserted_before_pinned_use(self):
        src = """
func f
entry:
    input a
    add x, a, 1
    ret x^R0
endfunc
"""
        f = function_of(src)
        stats = out_of_pinned_ssa(f)
        assert stats.usepin_copies == 1
        ret = f.entry_block.terminator
        assert ret.uses[0].value == PhysReg("R0")

    def test_no_move_when_already_there(self):
        src = """
func f
entry:
    input a^R0
    ret a^R0
endfunc
"""
        f = function_of(src)
        stats = out_of_pinned_ssa(f)
        assert stats.usepin_copies == 0
        assert count_moves(f) == 0

    def test_parallel_use_pin_moves(self):
        """Two use pins whose sources cross (x in R1's spot, y in R0's)
        must go through the parallel-copy machinery, like the paper's
        'R0 = x'1; R1 = R0 performed in parallel'."""
        src = """
func f
entry:
    input x^R0, y^R1
    call r = g(y^R0, x^R1)
    ret r
endfunc
func g
entry:
    input a, b
    shl t, a, 8
    or s, t, b
    ret s
endfunc
"""
        m = module_of(src)
        f = m.function("f")
        reference = run_module(module_of(src), "f", [3, 4]).observable()
        out_of_pinned_ssa(f)
        validate_function(f, allow_phis=False)
        assert run_module(m, "f", [3, 4]).observable() == reference


class TestKillsAndRepairs:
    def test_fig3_style_kill(self):
        """x pinned to R0, call result also R0 while x live past the
        call: x is killed and repaired; the use at the call itself needs
        no move (value already in R0)."""
        src = """
func f
entry:
    input x^R0
    call y^R0 = g(x^R0)
    add r, x, y
    ret r^R0
endfunc
func g
entry:
    input a
    add b, a, 10
    ret b
endfunc
"""
        m = module_of(src)
        f = m.function("f")
        reference = run_module(module_of(src), "f", [5]).observable()
        stats = out_of_pinned_ssa(f)
        assert Var("x") in stats.killed
        assert stats.repair_copies == 1
        # the repair reads R0 right after the input
        first_copy = next(i for i in f.instructions() if i.is_copy)
        assert first_copy.uses[0].value == PhysReg("R0")
        assert run_module(m, "f", [5]).observable() == reference

    def test_use_at_killing_instruction_not_repaired(self):
        """The call argument reads R0 *before* the call writes it: that
        use needs no repair."""
        src = """
func f
entry:
    input x^R0
    call y^R0 = g(x^R0)
    ret y^R0
endfunc
func g
entry:
    input a
    add b, a, 1
    ret b
endfunc
"""
        m = module_of(src)
        f = m.function("f")
        stats = out_of_pinned_ssa(f)
        assert stats.repair_copies == 0
        assert count_moves(f) == 0
        assert run_module(m, "f", [3]).results == (4,)

    def test_kill_through_join_paths(self):
        """A kill on one branch only: the use at the join must read the
        repair (availability is an all-paths property)."""
        src = """
func f
entry:
    input x^R0, c
    cbr c, kill, keep
kill:
    call y^R0 = g(c)
    store 4, y
    br join
keep:
    br join
join:
    ret x^R0
endfunc
func g
entry:
    input a
    add b, a, 7
    ret b
endfunc
"""
        m = module_of(src)
        f = m.function("f")
        ref1 = run_module(module_of(src), "f", [9, 1]).observable()
        ref0 = run_module(module_of(src), "f", [9, 0]).observable()
        stats = out_of_pinned_ssa(f)
        assert Var("x") in stats.killed
        assert run_module(m, "f", [9, 1]).observable() == ref1
        assert run_module(m, "f", [9, 0]).observable() == ref0

    def test_sequential_calls_argument_survives(self):
        src = """
func f
entry:
    input a, b
    call g1^R0 = g(a^R0, b^R1)
    call g2^R0 = g(a^R0, g1^R1)
    add r, g1, g2
    ret r^R0
endfunc
func g
entry:
    input p, q
    sub r, p, q
    ret r
endfunc
"""
        m = module_of(src)
        f = m.function("f")
        reference = run_module(module_of(src), "f", [10, 3]).observable()
        out_of_pinned_ssa(f)
        validate_function(f, allow_phis=False)
        assert run_module(m, "f", [10, 3]).observable() == reference


class TestLegalityGate:
    def test_illegal_pinning_rejected(self):
        src = """
func f
entry:
    input a, b
    cbr a, l, r
l:
    br j
r:
    br j
j:
    x^R5 = phi(a:l, b:r)
    y^R5 = phi(b:l, a:r)
    add s, x, y
    ret s
endfunc
"""
        f = function_of(src)
        with pytest.raises(PinningError):
            out_of_pinned_ssa(f)

    def test_check_can_be_disabled(self):
        src = """
func f
entry:
    input a
    br next
next:
    x = phi(a:entry)
    ret x
endfunc
"""
        f = function_of(src)
        out_of_pinned_ssa(f, check_pinning=False)
        validate_function(f, allow_phis=False)
