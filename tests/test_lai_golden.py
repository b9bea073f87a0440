"""The LAI front end, pinned structurally.

* **Structure**: every module the parser builds from the repository's
  LAI texts -- the five suites, the kernels, ``examples/``, the fuzz
  corpus regressions, the seven fuzz profiles x seeds {0, 1, 3} and
  every Tables 2-5 output -- has a canonical structural dump whose
  digest equals the committed one in ``lai_golden.json``.  The dump
  records opcodes, attrs, each operand's value type, name, register
  class, origin and pin, ``is_def``, which operands share one ``Var``
  object within a function, and the relative ``uid`` order of the
  instructions, so a parser change that alters any of them fails here
  even when the printed text round-trips.
* **Diagnostics**: each malformed input in :data:`MALFORMED` fails with
  the committed ``(line, column, token, message)``.

The expectations were captured before the line-oriented parser
replaced the recursive-descent one.  Regenerate them only for a
deliberate change of the grammar::

    PYTHONPATH=src python tests/test_lai_golden.py --update
"""

import glob
import hashlib
import json
import os
import sys

import pytest

from repro import pipeline
from repro.benchgen import all_suites
from repro.benchgen.kernels import KERNELS
from repro.benchgen.synthetic import (FUZZ_PROFILES,
                                      generate_module_source,
                                      profile_config)
from repro.ir.printer import format_module
from repro.ir.types import Imm, PhysReg, Var
from repro.lai import LaiSyntaxError, parse_module

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "lai_golden.json")
ROOT = os.path.dirname(HERE)
FUZZ_SEEDS = (0, 1, 3)

#: Accepted forms the printer never emits: comments, same-line labels,
#: tabs and CRLF endings, ``endfunc`` followed by the next header, the
#: mnemonic-first phi, explicit register operands and pins.
CORNERS = (
    "; leading comment\n"
    "func f // header comment\n"
    "entry: input a^R0, p_x^P0, ptr_y, b^$R1\n"
    "    L0: M0: add x, a, 0x1F ; two labels, then an instruction\n"
    "    make k, -0x10\r\n"
    "    make z, 00\n"
    "\tcopy c^$R2, $R3\n"
    "    autoadd q^q, p_x^q, 1\n"
    "    phi w, a, b\n"
    "    store p_x, 3, #-4\n"
    "    load t, ptr_y, #0x10\n"
    "    readsp $SP\n"
    "    call r0, r1 = g(a, b)\n"
    "    call g()\n"
    "    call $R0 = g($R0)\n"
    "    cbr a, out, out\n"
    "out:\tret\ta,x\r\n"
    "endfunc func g\n"
    "\n"
    "    input a, b\n"
    "    pcopy a^R4 <- b, b <- a^a\n"
    "    x = psi(a ? b, b ? $R5)\n"
    "    y^R0 = phi(a:entry, 7:out)\n"
    "    cbr a, l1, l2\n"
    "endfunc\n"
)

MALFORMED = {
    "unknown-character": "func f\nentry:\n    add x, y @ z\n    ret\nendfunc",
    "dollar-digit": "func f\n    copy x, $1\n    ret\nendfunc",
    "lone-minus": "func f\n    make x, -y\n    ret\nendfunc",
    "unknown-register": "func f\n    copy x, $R99\n    ret\nendfunc",
    "missing-endfunc": "func f\nentry:\n    ret\n\n",
    "bad-pin-target": "func f\n    input a^7\n    ret\nendfunc",
    "unknown-pin-register": "func f\n    input a^$Q9\n    ret\nendfunc",
    "unknown-opcode": "func f\n    frob x, y\n    ret\nendfunc",
    "trailing-tokens": "func f\n    br out extra\nout:\n    ret\nendfunc",
    "trailing-after-offset": "func f\n    input p\n    load x, p, #4, y\n"
                             "    ret x\nendfunc",
    "phi-missing-colon": "func f\nj:\n    z = phi(x l, y:r)\n    ret z\n"
                         "endfunc",
    "pcopy-missing-arrow": "func f\n    input a, b\n    pcopy a b\n"
                           "    ret a\nendfunc",
    "psi-missing-guard": "func f\n    input g, a\n    x = psi(g a)\n"
                         "    ret x\nendfunc",
    "missing-comma": "func f\n    input a\n    add x a, 1\n    ret x\n"
                     "endfunc",
    "dangling-comma": "func f\n    input a\n    add x, a,\n    ret x\n"
                      "endfunc",
    "assignment-not-phi": "func f\n    input a\n    x = add(a, a)\n"
                          "    ret x\nendfunc",
    "offset-not-number": "func f\n    input p\n    load x, p, #y\n"
                         "    ret x\nendfunc",
    "offset-outside-list": "func f\n    input a\n    ret a, #4\nendfunc",
    "call-no-callee": "func f\n    call , a\n    ret\nendfunc",
    "call-unclosed": "func f\n    input a\n    call g(a\n    ret\nendfunc",
    "cbr-label-not-ident": "func f\n    input a\n    cbr a, 3, out\n"
                           "out:\n    ret\nendfunc",
    "func-without-name": "func\n    ret\nendfunc",
    "func-trailing": "func f g\n    ret\nendfunc",
    "statement-outside-func": "\n; comment\nret\n",
    "endfunc-trailing": "func f\n    ret\nendfunc x\n",
    "register-as-mnemonic": "func f\n    $R0 = phi(a:l)\nendfunc",
    "lexical-after-syntax": "func f\n    frob x\n    ret\n  % junk\nendfunc",
    "comment-hides-junk": "func f ; @@\n    ret ; %%\n    frob\nendfunc",
}


def _value(value, ids: dict) -> tuple:
    if isinstance(value, Imm):
        return ("Imm", value.value)
    kind = type(value).__name__
    index = ids.setdefault(id(value), len(ids))
    if isinstance(value, PhysReg):
        return (kind, value.name, value.regclass.value, index)
    assert isinstance(value, Var), value
    origin = None if value.origin is None else value.origin.name
    return (kind, value.name, value.regclass.value, origin, index)


def structure(module) -> list:
    """Canonical structural dump of *module* (see the module docstring).

    Value and pin objects are numbered by first appearance within their
    function, so object sharing shows up as a repeated number; ``uid``
    is relative to the module's first instruction."""
    uids = [i.uid for f in module.iter_functions() for i in f.instructions()]
    base = min(uids, default=0)
    dump = [module.name]
    for function in module.iter_functions():
        ids: dict = {}
        scalars = sorted((k, v) for k, v in vars(function).items()
                         if isinstance(v, (int, str, type(None))))
        dump.append(("func", scalars, list(function.blocks)))
        for label, block in function.blocks.items():
            dump.append(("block", label, len(block.phis)))
            for instr in block.instructions():
                operands = [
                    (op.is_def, _value(op.value, ids),
                     None if op.pin is None else _value(op.pin, ids))
                    for op in instr.defs + instr.uses]
                dump.append((instr.uid - base, instr.opcode,
                             repr(sorted(instr.attrs.items())),
                             len(instr.defs), operands))
    return dump


def digest(module) -> str:
    text = json.dumps(structure(module), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_inputs() -> list:
    """``(id, module name, LAI text)`` of every pinned input."""
    inputs = []
    suites = all_suites()
    for suite in suites:
        inputs.append((f"suite/{suite.name}", suite.module.name,
                       format_module(suite.module)))
    inputs.append(("corners", "corners", CORNERS))
    for name, source, _ in KERNELS:
        inputs.append((f"kernel/{name}", name, source))
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.lai"))
                       + glob.glob(os.path.join(HERE, "corpus_regressions",
                                                "*.lai"))):
        key = os.path.relpath(path, ROOT)
        with open(path) as handle:
            inputs.append((key, key, handle.read()))
    for profile in FUZZ_PROFILES:
        for seed in FUZZ_SEEDS:
            name = f"fuzz_{profile.replace('-', '_')}_{seed}"
            inputs.append((f"fuzz/{profile}/{seed}", name,
                           generate_module_source(
                               seed, 3, profile_config(profile), name)))
    variants = [(v, o) for v, o in pipeline.table5_variants().items()
                if v != "base"]
    for suite in suites:
        runs = [(name, name, None) for name in pipeline.EXPERIMENTS]
        runs += [(f"Lphi,ABI+C[{v}]", "Lphi,ABI+C", o) for v, o in variants]
        for label, experiment, options in runs:
            result = pipeline.run_experiment(
                suite.module, experiment, options=options, jobs=1,
                cache=None)
            inputs.append((f"output/{suite.name}/{label}", suite.name,
                           format_module(result.module)))
    return inputs


def diagnostic(source: str) -> list:
    with pytest.raises(LaiSyntaxError) as info:
        parse_module(source)
    error = info.value
    return [error.line, error.column, error.token, str(error)]


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_parsed_structure_matches_golden(golden):
    inputs = golden_inputs()
    expected = golden["structure"]
    assert [key for key, _, _ in inputs] == list(expected)
    for key, name, text in inputs:
        assert digest(parse_module(text, name=name)) == expected[key], key


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_diagnostic(golden, case):
    assert diagnostic(MALFORMED[case]) == golden["malformed"][case]


def test_malformed_table_is_complete(golden):
    assert len(MALFORMED) >= 12
    assert set(golden["malformed"]) == set(MALFORMED)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    data = {
        "structure": {key: digest(parse_module(text, name=name))
                      for key, name, text in golden_inputs()},
        "malformed": {case: diagnostic(MALFORMED[case])
                      for case in sorted(MALFORMED)},
    }
    with open(GOLDEN, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=False)
        handle.write("\n")
    print(f"wrote {GOLDEN}: {len(data['structure'])} inputs, "
          f"{len(data['malformed'])} malformed cases")
