"""Golden-trace equality between the interpreter tiers.

The compiled tier (``src/repro/interp/compiled.py``) claims *exact*
reference semantics: identical observables (results, stores, calls),
identical step counts, equivalent error behaviour, under an epoch-keyed
code cache that must never serve stale code.  Four layers of evidence:

* **golden traces** -- every paper suite's verify runs, every minimized
  fuzz regression in ``tests/corpus_regressions/``, and a seeded
  multi-profile benchgen sweep replay identically on both tiers;
* **error parity** -- undefined reads, the step budget, the call-depth
  limit and unknown callees fail identically on both tiers;
* **cache discipline** -- the code cache hits on unchanged functions
  and recompiles on any epoch bump;
* **lockstep** -- ``tier="both"`` raises :class:`TierDivergence` when a
  tier misbehaves (simulated by swapping in a broken reference tier, or
  a compiled comparison that stores ``bool``);
* **opcode parity** -- every opcode with a scalar kernel, on boundary
  operands in every slot/immediate shape, agrees with ``evaluate`` on
  both tiers, including the ``wrap32`` fallback for out-of-range values
  loaded from memory;
* **folded successors** -- constant ``br``/``cbr`` successors compile to
  plain block indices without changing ``KeyError`` paths, ``on_block``
  notifications or step and block-entry counts.

The mass sweep at the bottom (``@pytest.mark.fuzz``, 300 seeds x every
profile) is the acceptance run; tier-1 keeps a small slice of it.
"""

import itertools
import os

import pytest

import repro.interp as interp_pkg
import repro.interp.compiled as compiled_mod
from repro.benchgen import all_suites
from repro.benchgen.synthetic import (FUZZ_PROFILES, generate_module,
                                      profile_config)
from repro.fuzz.corpus import iter_regressions, load_regression
from repro.fuzz.differential import run_fuzz
from repro.interp import (DEFAULT_MAX_STEPS, CompiledInterpreter,
                          Interpreter, InterpreterError, TierDivergence,
                          Trace, clear_code_cache, code_cache_size,
                          run_module)
from repro.interp.compiled import compile_function
from repro.ir.instructions import OPCODES
from repro.ir.types import Imm, wrap32
from repro.lai import parse_module
from repro.observability.tracer import Tracer
from repro.pipeline import run_experiment

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus_regressions")


def both_tiers(module, fn_name, args, max_steps=DEFAULT_MAX_STEPS):
    """(reference outcome, compiled outcome); an outcome is a Trace or
    the raised error."""
    outcomes = []
    for tier in (Interpreter, CompiledInterpreter):
        try:
            outcomes.append(tier(module, max_steps).run(
                fn_name, list(args)))
        except (InterpreterError, KeyError) as exc:
            outcomes.append(exc)
    return outcomes


def assert_identical(module, fn_name, args, context,
                     max_steps=DEFAULT_MAX_STEPS):
    reference, compiled = both_tiers(module, fn_name, args, max_steps)
    if isinstance(reference, Trace):
        assert isinstance(compiled, Trace), \
            f"{context}: compiled raised {compiled!r}, reference ran"
        assert compiled.observable() == reference.observable(), context
        assert compiled.steps == reference.steps, context
    else:
        # Which error fires may differ only when the step budget is in
        # play (block-granular accounting can trip it first); any other
        # failure must match message for message.
        assert not isinstance(compiled, Trace), \
            f"{context}: reference raised {reference!r}, compiled ran"
        budget = "step limit exceeded"
        if budget not in str(reference) and budget not in str(compiled):
            assert type(compiled) is type(reference), context
            assert str(compiled) == str(reference), context


# ----------------------------------------------------------------------
# Golden traces: paper suites, minimized regressions, benchgen sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("suite", all_suites(), ids=lambda s: s.name)
def test_paper_suites_identical_traces(suite):
    for fn_name, args in suite.verify:
        assert_identical(suite.module, fn_name, args,
                         f"{suite.name}:{fn_name}{tuple(args)}")


@pytest.mark.parametrize("path", sorted(iter_regressions(CORPUS_DIR)),
                         ids=os.path.basename)
def test_corpus_regressions_identical_traces(path):
    regression = load_regression(path)
    module = parse_module(regression.source)
    assert regression.verify, path
    for fn_name, args in regression.verify:
        assert_identical(module, fn_name, args,
                         f"{os.path.basename(path)}:{fn_name}")


@pytest.mark.parametrize("profile", tuple(FUZZ_PROFILES))
def test_benchgen_sweep_identical_traces(profile):
    for seed in range(5):
        module, verify = generate_module(
            seed, n_functions=3, config=profile_config(profile),
            name=f"sweep_{profile.replace('-', '_')}_{seed}")
        for fn_name, args in verify:
            assert_identical(module, fn_name, args,
                             f"{profile}/{seed}:{fn_name}{tuple(args)}")


# ----------------------------------------------------------------------
# Error-path parity
# ----------------------------------------------------------------------
UNDEFINED_READ = """
func main
entry:
    input n
    cbr n, yes, no
yes:
    make x, 1
    br join
no:
    br join
join:
    add y, x, 1
    ret y
endfunc
"""

INFINITE_LOOP = """
func main
entry:
    input n
    br spin
spin:
    add n, n, 1
    br spin
endfunc
"""

RECURSION = """
func main
entry:
    input n
    call t = main(n)
    ret t
endfunc
"""

UNKNOWN_CALLEE = """
func main
entry:
    input n
    call t = nowhere(n)
    ret t
endfunc
"""


def both_errors(source, args, max_steps=DEFAULT_MAX_STEPS):
    module = parse_module(source)
    reference, compiled = both_tiers(module, "main", args, max_steps)
    assert isinstance(reference, (InterpreterError, KeyError)), reference
    assert type(compiled) is type(reference)
    assert str(compiled) == str(reference)
    return reference


def test_undefined_read_parity():
    error = both_errors(UNDEFINED_READ, [0])
    assert "read of undefined x in block join" in str(error)
    # The defined path still runs, identically.
    assert_identical(parse_module(UNDEFINED_READ), "main", [1], "defined")


def test_step_limit_parity():
    error = both_errors(INFINITE_LOOP, [0], max_steps=500)
    assert str(error) == "step limit exceeded"


def test_call_depth_parity():
    error = both_errors(RECURSION, [0])
    assert str(error) == "call depth exceeded"


def test_unknown_callee_parity():
    error = both_errors(UNKNOWN_CALLEE, [0])
    assert str(error) == "call to unknown function 'nowhere'"


def test_argument_count_parity():
    error = both_errors(RECURSION.replace("main(n)", "main(n, n)"), [3])
    assert str(error) == "main: expected 1 arguments, got 2"


# ----------------------------------------------------------------------
# Code cache: epoch keying
# ----------------------------------------------------------------------
def test_code_cache_hits_until_epoch_bump():
    module = parse_module("func main\nentry:\n    input n\n"
                          "    make x, 1\n    add y, x, n\n"
                          "    ret y\nendfunc")
    clear_code_cache()
    interp = CompiledInterpreter(module)
    function = module.functions["main"]
    first = interp._code(function)
    assert code_cache_size() == 1
    assert interp._code(function) is first, "unchanged epoch must hit"

    function.bump_epoch()
    recompiled = interp._code(function)
    assert recompiled is not first, "epoch bump must recompile"
    assert code_cache_size() == 1, "stale entry replaced, not kept"

    function.bump_cfg_epoch()
    assert interp._code(function) is not recompiled


def test_code_cache_never_serves_stale_code():
    module = parse_module("func main\nentry:\n    make x, 1\n"
                          "    ret x\nendfunc")
    clear_code_cache()
    assert run_module(module, "main", tier="compiled").results == (1,)
    function = module.functions["main"]
    make = next(i for b in function.iter_blocks() for i in b.body
                if i.opcode == "make")
    make.uses[0].value = Imm(7)
    function.bump_epoch()
    assert run_module(module, "main", tier="compiled").results == (7,)


def test_compile_function_is_uncached():
    module = parse_module("func main\nentry:\n    make x, 1\n"
                          "    ret x\nendfunc")
    function = module.functions["main"]
    assert compile_function(function) is not compile_function(function)


# ----------------------------------------------------------------------
# Lockstep (tier="both") divergence detection
# ----------------------------------------------------------------------
def lockstep_module():
    return parse_module("func main\nentry:\n    input n\n"
                        "    add y, n, 1\n    ret y\nendfunc")


def test_both_tier_agrees_on_clean_run():
    trace = run_module(lockstep_module(), "main", [41], tier="both")
    assert trace.results == (42,)


class _WrongResult(Interpreter):
    def run(self, *args, **kwargs):
        trace = super().run(*args, **kwargs)
        trace.results = tuple(r + 1 for r in trace.results)
        return trace


class _WrongSteps(Interpreter):
    def run(self, *args, **kwargs):
        trace = super().run(*args, **kwargs)
        trace.steps += 1
        return trace


class _Crashes(Interpreter):
    def run(self, *args, **kwargs):
        raise InterpreterError("simulated reference failure")


@pytest.mark.parametrize("broken,fragment", [
    (_WrongResult, "compiled observed"),
    (_WrongSteps, "steps"),
    (_Crashes, "reference raised"),
], ids=["observables", "steps", "error"])
def test_both_tier_detects_divergence(monkeypatch, broken, fragment):
    monkeypatch.setattr(interp_pkg, "Interpreter", broken)
    with pytest.raises(TierDivergence, match=fragment):
        run_module(lockstep_module(), "main", [41], tier="both")


def _bool_storing_binary_op(kernel, predicate, reads, dst, fn_name,
                            label, _original=compiled_mod._binary_op):
    """A compiled comparison that leaks the kernel's ``bool``."""
    op = _original(kernel, predicate, reads, dst, fn_name, label)
    if not predicate:
        return op

    def leaky(rt, frame):
        op(rt, frame)
        frame[dst] = bool(frame[dst])

    return leaky


@pytest.mark.parametrize("use", [
    "ret c",
    "store 100, c\n    ret n",
    "call t = sink(c)\n    ret t",
], ids=["result", "store", "call"])
def test_both_tier_detects_bool_comparison(monkeypatch, use):
    source = ("func sink\nentry:\n    input x\n    ret 0\nendfunc\n"
              "func main\nentry:\n    input n\n    cmplt c, n, 5\n"
              f"    {use}\nendfunc")
    # ``True == 1``: the plain observable comparison cannot see it.
    monkeypatch.setattr(compiled_mod, "_binary_op", _bool_storing_binary_op)
    leaked = CompiledInterpreter(parse_module(source)).run("main", [3])
    assert leaked.observable() == \
        Interpreter(parse_module(source)).run("main", [3]).observable()
    with pytest.raises(TierDivergence, match="compiled observed bool True"):
        run_module(parse_module(source), "main", [3], tier="both")


def test_both_raising_propagates_compiled_error():
    with pytest.raises(InterpreterError,
                       match="call to unknown function 'nowhere'"):
        run_module(parse_module(UNKNOWN_CALLEE), "main", [0], tier="both")


# ----------------------------------------------------------------------
# Opcode parity: scalar kernels bound by the compiled tier vs evaluate
# ----------------------------------------------------------------------
INT32_MIN, INT32_MAX = -2 ** 31, 2 ** 31 - 1
BOUNDARY = (0, 1, -1, 31, 32, 33, 0xFFFF, 0x10000, INT32_MIN, INT32_MAX)
KERNEL_OPCODES = sorted(name for name, spec in OPCODES.items()
                        if spec.evaluate is not None)


def test_every_evaluate_opcode_has_a_kernel():
    assert KERNEL_OPCODES == sorted(
        name for name, spec in OPCODES.items() if spec.kernel is not None)
    assert "cmplt" in KERNEL_OPCODES and "mac" in KERNEL_OPCODES


@pytest.mark.parametrize("opcode", KERNEL_OPCODES)
def test_kernel_agrees_with_evaluate(opcode):
    spec = OPCODES[opcode]
    for args in itertools.product(BOUNDARY, repeat=spec.n_uses):
        raw = spec.kernel(*args)
        want = (1 if raw else 0) if spec.predicate else wrap32(raw)
        (got,) = spec.evaluate(*args)
        assert got == want and type(got) is int, (opcode, args)
        assert INT32_MIN <= got <= INT32_MAX


@pytest.mark.parametrize("opcode,args,want", [
    ("div", (7, 0), 0), ("rem", (7, 0), 0), ("div", (-7, 2), -3),
    ("rem", (-7, 2), -1), ("div", (INT32_MIN, -1), INT32_MIN),
    ("shl", (1, 32), 1), ("shl", (1, 33), 2), ("shr", (-1, 33), -1),
    ("shr", (INT32_MIN, 31), -1), ("add", (INT32_MAX, 1), INT32_MIN),
    ("mul", (0x10000, 0x10000), 0), ("neg", (INT32_MIN,), INT32_MIN),
    ("not", (0,), -1), ("min", (INT32_MIN, INT32_MAX), INT32_MIN),
    ("max", (-1, 0), 0), ("more", (1, 0x10000), 0x10000),
    ("more", (0xFFFF, -1), -1), ("mac", (INT32_MAX, 1, 1), INT32_MIN),
    ("select", (0, 5, 6), 6), ("select", (-1, 5, 6), 5),
    ("cmplt", (INT32_MIN, INT32_MAX), 1), ("cmpge", (0, 1), 0),
    ("cmpeq", (-1, -1), 1), ("cmpne", (0, 0), 0),
    ("copy", (INT32_MAX,), INT32_MAX), ("readsp", (), 0x7FF00000),
])
def test_opcode_semantics(opcode, args, want):
    assert OPCODES[opcode].evaluate(*args) == (want,)


def _shape_module(opcode, shape):
    """One function running *opcode* on every boundary-operand tuple
    with the operands in *shape* (``"s"`` slot, ``"i"`` immediate);
    slot operands read ``input`` parameters holding the same values."""
    params = [f"a{i}" for i in range(len(BOUNDARY))]
    lines = ["func main", "entry:", f"    input {', '.join(params)}"]
    cases = list(itertools.product(range(len(BOUNDARY)),
                                   repeat=len(shape)))
    for n, case in enumerate(cases):
        operands = [params[i] if kind == "s" else str(BOUNDARY[i])
                    for kind, i in zip(shape, case)]
        lines.append(f"    {opcode} r{n}, {', '.join(operands)}"
                     if operands else f"    {opcode} r{n}")
    lines += [f"    ret {', '.join(f'r{n}' for n in range(len(cases)))}",
              "endfunc"]
    evaluate = OPCODES[opcode].evaluate
    want = tuple(evaluate(*(BOUNDARY[i] for i in case))[0]
                 for case in cases)
    return parse_module("\n".join(lines)), want


@pytest.mark.parametrize("opcode", KERNEL_OPCODES)
def test_opcode_parity_every_operand_shape(opcode):
    for shape in itertools.product("si", repeat=OPCODES[opcode].n_uses):
        module, want = _shape_module(opcode, "".join(shape))
        trace = run_module(module, "main", list(BOUNDARY), tier="both")
        assert trace.results == want, (opcode, shape)
        assert all(type(v) is int for v in trace.results), (opcode, shape)


def test_out_of_range_memory_values_wrap():
    """``load`` passes memory through unwrapped; the first arithmetic
    op on the value must take the ``wrap32`` fallback on both tiers."""
    values = (2 ** 40 + 5, -(2 ** 35) - 3, 2 ** 31, INT32_MIN - 1,
              2 ** 32 - 1)
    memory = {100 + 4 * i: v for i, v in enumerate(values)}
    lines = ["func main", "entry:", "    input p"]
    rets = []
    want = []
    for i, v in enumerate(values):
        lines += [f"    load x{i}, p, #{4 * i}", f"    copy c{i}, x{i}",
                  f"    add s{i}, x{i}, 1", f"    add t{i}, 1, x{i}",
                  f"    sub u{i}, x{i}, x{i}", f"    neg n{i}, x{i}",
                  f"    select w{i}, 1, x{i}, 0",
                  f"    cmpgt g{i}, x{i}, 0"]
        rets += [f"c{i}", f"s{i}", f"t{i}", f"u{i}", f"n{i}", f"w{i}",
                 f"g{i}"]
        want += [wrap32(v), wrap32(v + 1), wrap32(v + 1), 0, wrap32(-v),
                 wrap32(v), int(v > 0)]
    lines += [f"    ret {', '.join(rets)}", "endfunc"]
    trace = run_module(parse_module("\n".join(lines)), "main", [100],
                       memory=memory, tier="both")
    assert trace.results == tuple(want)
    assert all(type(v) is int for v in trace.results)


# ----------------------------------------------------------------------
# Folded successors: constant branch targets are plain block indices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("branch", [
    "br nowhere", "cbr 1, nowhere, entry", "cbr 0, entry, nowhere",
], ids=["br", "cbr-taken", "cbr-fallthrough"])
def test_constant_branch_to_missing_label_raises_key_error(branch):
    source = f"func main\nentry:\n    input n\n    {branch}\nendfunc"
    error = both_errors(source, [1])
    assert isinstance(error, KeyError) and str(error) == "'nowhere'"
    with pytest.raises(KeyError, match="nowhere"):
        run_module(parse_module(source), "main", [1], tier="both")


LOOP = """
func main
entry:
    input n
    make i, 0
    br head
head:
    cmplt c, i, n
    cbr c, body, done
body:
    add i, i, 1
    cbr 1, head, done
done:
    cbr 0, entry, out
out:
    ret i
endfunc
"""


def test_constant_successors_compile_to_indices():
    code = compile_function(parse_module(LOOP).functions["main"])
    terms = {block.label: block.term for block in code.blocks}
    labels = code.labels
    assert labels[terms["entry"]] == "head"
    assert labels[terms["body"]] == "head"
    assert labels[terms["done"]] == "out"
    assert callable(terms["head"]) and callable(terms["out"])


def test_on_block_fires_once_per_block_entry():
    module = parse_module(LOOP)
    want = ["entry"] + ["head", "body"] * 3 + ["head", "done", "out"]
    for tier in ("reference", "compiled", "both"):
        seen = []
        tracer = Tracer()
        trace = run_module(module, "main", [3], tier=tier, tracer=tracer,
                           on_block=lambda fn, label: seen.append(label))
        assert trace.results == (3,), tier
        assert seen == want, tier
        assert tracer.counters["interp.block_entries"] == len(want), tier


#: ``(interp.steps, interp.block_entries)`` of every suite's verify runs
#: on the source module and on its ``Lphi,ABI+C`` output, as counted
#: before constant successors were folded.
SUITE_COUNTS = {
    "VALcc1": ((7090, 1607), (6617, 2142)),
    "VALcc2": ((7190, 1607), (6704, 2142)),
    "example1-8": ((672, 222), (601, 256)),
    "LAI_Large": ((90491, 32437), (89545, 32437)),
    "SPECint": ((60498, 21722), (58888, 21722)),
}


@pytest.mark.parametrize("suite", all_suites(), ids=lambda s: s.name)
def test_suite_step_and_block_entry_counts(suite):
    output = run_experiment(suite.module, "Lphi,ABI+C").module
    counts = []
    for module in (suite.module, output):
        tracer = Tracer()
        for fn_name, args in suite.verify:
            run_module(module, fn_name, list(args), tracer=tracer,
                       tier="compiled")
        counts.append((tracer.counters["interp.steps"],
                       tracer.counters["interp.block_entries"]))
    assert tuple(counts) == SUITE_COUNTS[suite.name]


# ----------------------------------------------------------------------
# Shared step budget (satellite: single DEFAULT_MAX_STEPS constant)
# ----------------------------------------------------------------------
def test_default_step_budget_is_shared():
    import inspect

    from repro.interp import interpreter as reference_mod

    assert DEFAULT_MAX_STEPS == 2_000_000
    for fn in (Interpreter.__init__, CompiledInterpreter.__init__,
               interp_pkg.run_module, interp_pkg.run_function,
               reference_mod.run_module, reference_mod.run_function):
        assert inspect.signature(fn).parameters["max_steps"].default \
            == DEFAULT_MAX_STEPS, fn


# ----------------------------------------------------------------------
# Mass sweep (acceptance: 300 seeds x every profile, zero divergences)
# ----------------------------------------------------------------------
SWEEP_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "300"))


@pytest.mark.fuzz
@pytest.mark.parametrize("profile", tuple(FUZZ_PROFILES))
def test_mass_lockstep_property(profile):
    """300 seeds per profile through the harness's ``interp`` check
    (tier="both" on every verify run): zero divergences."""
    report = run_fuzz(range(SWEEP_SEEDS), profiles=(profile,),
                      n_functions=2, checks=("interp",), jobs=1)
    assert report.ok, [d.describe() for f in report.failures
                       for d in f.divergences][:10]
    assert report.programs == SWEEP_SEEDS
