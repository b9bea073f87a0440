"""Lexer/parser/printer tests, including full round-trips."""

import pytest

from repro.benchgen.kernels import KERNELS
from repro.ir import format_function, format_module
from repro.ir.types import Imm, PhysReg, Var
from repro.lai import LaiSyntaxError, parse_function, parse_module, tokenize


class TestLexer:
    def test_token_kinds(self):
        toks = list(tokenize("add x, $R0, 0x1F ; comment"))
        kinds = [t.kind for t in toks]
        assert kinds == ["IDENT", "IDENT", "PUNCT", "REG", "PUNCT",
                         "NUM", "NEWLINE", "EOF"]

    def test_comments_both_styles(self):
        toks = [t.kind for t in tokenize("x // foo\ny ; bar")]
        assert toks.count("IDENT") == 2

    def test_negative_and_hex_numbers(self):
        toks = [t for t in tokenize("make x, -5\nmake y, 0xFF")]
        nums = [t.text for t in toks if t.kind == "NUM"]
        assert nums == ["-5", "0xFF"]

    def test_bad_character(self):
        with pytest.raises(LaiSyntaxError):
            list(tokenize("add x, y @ z"))

    def test_arrow_token(self):
        toks = [t.text for t in tokenize("pcopy a <- b")]
        assert "<-" in toks


class TestParser:
    def test_minimal_function(self):
        f = parse_function("func f\nentry:\n    ret 1\nendfunc")
        assert f.name == "f"
        assert f.entry == "entry"

    def test_implicit_entry_label(self):
        f = parse_function("func f\n    ret\nendfunc")
        assert f.entry == "entry"

    def test_pins_parsed(self):
        f = parse_function("""
func f
entry:
    input C^R0, p^P1
    autoadd q^q, p^q, 1
    ret C^R0
endfunc
""")
        inp = f.entry_block.body[0]
        assert inp.defs[0].pin == PhysReg("R0")
        assert inp.defs[1].pin.name == "P1"
        auto = f.entry_block.body[1]
        assert auto.defs[0].pin == Var("q")
        assert auto.uses[0].pin == Var("q")

    def test_virtual_pin_vs_register_pin(self):
        f = parse_function("""
func f
entry:
    input a
    copy x^zz, a
    ret x
endfunc
""")
        copy = f.entry_block.body[1]
        assert isinstance(copy.defs[0].pin, Var)

    def test_unknown_register(self):
        with pytest.raises(LaiSyntaxError):
            parse_function("func f\nentry:\n    copy x, $R99\n    ret\nendfunc")

    def test_phi_syntax(self):
        f = parse_function("""
func f
entry:
    input a
    cbr a, l, r
l:
    make x, 1
    br j
r:
    make y, 2
    br j
j:
    z = phi(x:l, y:r)
    ret z
endfunc
""")
        phi = f.blocks["j"].phis[0]
        assert phi.attrs["incoming"] == ["l", "r"]

    def test_call_forms(self):
        m = parse_module("""
func main
entry:
    input a
    call g(a)
    call x = g(a)
    call y, z = h(a, 2)
    ret x
endfunc
""")
        calls = [i for i in m.function("main").instructions()
                 if i.opcode == "call"]
        assert [len(c.defs) for c in calls] == [0, 1, 2]
        assert calls[2].attrs["callee"] == "h"

    def test_load_store_offset(self):
        f = parse_function("""
func f
entry:
    input p
    store p, 3, #4
    load x, p, #4
    ret x
endfunc
""")
        st, ld = f.entry_block.body[1:3]
        assert st.attrs["offset"] == 4
        assert ld.attrs["offset"] == 4

    def test_cbr_same_targets_becomes_br(self):
        f = parse_function("""
func f
entry:
    input a
    cbr a, out, out
out:
    ret a
endfunc
""")
        assert f.entry_block.terminator.opcode == "br"

    def test_multiple_functions(self):
        m = parse_module("func a\n    ret\nendfunc\nfunc b\n    ret\nendfunc")
        assert set(m.functions) == {"a", "b"}

    def test_duplicate_function_rejected(self):
        with pytest.raises(ValueError):
            parse_module("func a\n    ret\nendfunc\nfunc a\n    ret\nendfunc")

    @pytest.mark.parametrize("line,column,token", [
        ("    make x, 08", 13, "08"),
        ("    load y, p, #09", 17, "09"),
        ("    add z, p, -007", 15, "-007"),
    ])
    def test_leading_zero_decimal_is_a_syntax_error(self, line, column,
                                                    token):
        source = f"func f\n    input p\n{line}\n    ret\nendfunc"
        with pytest.raises(LaiSyntaxError) as info:
            parse_module(source)
        assert (info.value.line, info.value.column, info.value.token) == \
            (3, column, token)

    def test_pinned_immediate_is_a_syntax_error(self):
        with pytest.raises(LaiSyntaxError) as info:
            parse_module("func f\n    copy x, 5^R0\n    ret\nendfunc")
        assert (info.value.line, info.value.column, info.value.token) == \
            (2, 13, "5")

    def test_unterminated_function(self):
        with pytest.raises(LaiSyntaxError):
            parse_function("func f\nentry:\n    ret")

    def test_psi_syntax(self):
        f = parse_function("""
func f
entry:
    input g1, g2, a, b
    x = psi(g1 ? a, g2 ? b)
    ret x
endfunc
""")
        psi = f.entry_block.body[1]
        assert psi.opcode == "psi"
        assert len(psi.psi_pairs()) == 2

    def test_pcopy_syntax(self):
        f = parse_function("""
func f
entry:
    input a, b
    pcopy a <- b, b <- a
    ret a, b
endfunc
""")
        pc = f.entry_block.body[1]
        assert pc.opcode == "pcopy"
        assert len(pc.defs) == 2


class TestRoundTrip:
    @pytest.mark.parametrize("name,src,_runs", KERNELS,
                             ids=[k[0] for k in KERNELS])
    def test_kernel_roundtrip(self, name, src, _runs):
        module = parse_module(src, name=name)
        text = format_module(module)
        again = parse_module(text, name=name)
        assert format_module(again) == text

    def test_pin_roundtrip(self):
        src = """
func f
entry:
    input C^R0, p_a^P0
    autoadd Q^Q, p_a^Q, 1
    ret C^R0
endfunc
"""
        f = parse_function(src)
        text = format_function(f)
        assert format_function(parse_function(text)) == text
        assert "^R0" in text and "^Q" in text
