"""The compiled interpreter tier: closure chains over slot frames.

:class:`CompiledInterpreter` executes the same programs as the
reference tree-walker (:class:`~repro.interp.interpreter.Interpreter`)
with the same observable semantics -- identical :class:`Trace`
contents, step accounting, call-depth and ``max_steps`` limits, and
error behaviour -- but compiles every function once instead of
re-deciding everything on every step:

* Every :class:`~repro.ir.types.Var` / ``PhysReg`` is numbered to a
  dense integer slot in a flat list frame, replacing the
  ``dict[Value, int]`` environment.  Reads are ``frame[slot]``;
  a never-written slot still holds the :data:`UNDEF` sentinel, which
  every read checks by identity so undefined reads raise exactly like
  the reference tier.
* Each instruction is pre-bound into a closure at compile time: the
  opcode's scalar ``spec.kernel`` (a C-level ``operator`` function
  where one exists), operand slots, folded immediates, branch target
  indices and memory offsets are captured in cell variables, so the
  hot loop performs no opcode-string dispatch, no ``attrs`` dict
  probes and no ``isinstance(value, Imm)`` tests.  Arithmetic stores
  the kernel's result as is when an inline range test shows it fits
  in 32 bits and takes ``wrap32`` otherwise; comparisons store exactly
  ``1`` or ``0``.  ``spec.evaluate`` (the tuple-returning form the
  reference tier calls) is used only to fold all-immediate operations
  at compile time.
* A block whose successor is a compile-time constant -- ``br``, or
  ``cbr`` on an immediate, to a label that exists -- stores that
  successor as a plain block index, so the run loop makes no call for
  it.  Branches to a missing label keep a closure that raises the
  reference tier's ``KeyError``.
* Each block's phi bank is pre-resolved into one parallel-copy plan per
  incoming edge -- ``(src_slots, dst_slots)`` -- with immediate phi
  arguments materialized into a constant pool inside the frame, so
  taking an edge is a read-all-then-write-all slot shuffle.
* Step accounting is block-granular: a block's tick count (phis plus
  body instructions up to its terminator) is a compile-time constant,
  added to ``trace.steps`` once per block entry.  Successful runs
  report exactly the reference tier's step totals; a run that exceeds
  ``max_steps`` raises the same ``"step limit exceeded"`` error (the
  reference tier may execute a partial block first, but neither tier's
  partial trace is observable through an exception).

Compilation results are cached per :class:`~repro.ir.function.Function`
keyed on ``(fn.epoch, fn.cfg_epoch)`` in a module-level weak-key map,
so repeated verify runs of unchanged IR (fuzz sweeps, serve warm
requests, corpus gates) skip recompilation entirely; any IR mutation
bumps an epoch and invalidates the entry.  Cache traffic and compile
time are read through :meth:`CodeCache.stats` /
:meth:`CodeCache.stats_since` on :data:`CODE_CACHE` (the ``interp``
block of a stats document's ``env``).

Tier selection (``REPRO_INTERP=compiled|reference|both``) lives in
:mod:`repro.interp`; this module only knows how to compile and run.
"""

from __future__ import annotations

import time
import weakref
from typing import Callable, Optional, Sequence

from ..ir.function import Function, Module
from ..ir.instructions import Instruction
from ..ir.types import Imm, wrap32
from ..observability import resolve as _resolve_tracer
from .interpreter import DEFAULT_MAX_STEPS, InterpreterError, Trace

#: Sentinel stored in every value slot until its first write.  Checked
#: by identity (``is UNDEF``) on every read; equality comparisons with
#: integers are always ``False``, so ``UNDEF in vals`` is a safe (and
#: C-speed) batch probe during phi/pcopy plans.
UNDEF = object()

#: The reference tier raises once the call stack is deeper than this.
MAX_CALL_DEPTH = 64

#: Fixed frame slots: the run's argument list, whether ``input`` has
#: run, and the call depth.  Value and constant slots follow.
_ARGS_SLOT, _ENTERED_SLOT, _DEPTH_SLOT = 0, 1, 2
_FIRST_VALUE_SLOT = 3


def _undef(fn_name: str, value, label: str) -> None:
    raise InterpreterError(
        f"{fn_name}: read of undefined {value} in block {label}")


class CompiledBlock:
    """One basic block lowered to closures.

    ``ops`` is the executable body prefix (everything up to the first
    terminating instruction).  ``term`` is the successor's block index
    when it is a compile-time constant (``br``, ``cbr`` on an
    immediate), else a closure that consumes the terminator and
    returns the next block index, or ``None`` for a return.  ``ticks``
    is the block's constant contribution to ``trace.steps``;
    ``phi_plans`` maps incoming-edge block indices to parallel-copy
    plans (``None`` when the block has no phis).
    """

    __slots__ = ("label", "ticks", "phi_plans", "ops", "term")

    def __init__(self, label: str, ticks: int, phi_plans, ops, term):
        self.label = label
        self.ticks = ticks
        self.phi_plans = phi_plans
        self.ops = ops
        self.term = term


class CompiledFunction:
    """A function compiled to slot-frame closures (immutable)."""

    __slots__ = ("name", "blocks", "labels", "entry_index",
                 "frame_template")

    def __init__(self, name, blocks, labels, entry_index, frame_template):
        self.name = name
        self.blocks = blocks
        self.labels = labels
        self.entry_index = entry_index
        self.frame_template = frame_template


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class _Compiler:
    """Builds one :class:`CompiledFunction`; alive only during compile."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.index_of = {label: i
                         for i, label in enumerate(function.blocks)}
        # Values and constant-pool entries (phi/pcopy immediates) are
        # numbered on first sight, past the fixed slots;
        # frame_template carries the constants' values.
        self.slots: dict = {}
        self.const_slots: dict[int, int] = {}
        self.n_slots = _FIRST_VALUE_SLOT

    def _slot(self, value) -> int:
        slot = self.slots.get(value)
        if slot is None:
            slot = self.slots[value] = self.n_slots
            self.n_slots += 1
        return slot

    def _const_slot(self, raw: int) -> int:
        """Frame slot pre-loaded with ``wrap32(raw)``."""
        wrapped = wrap32(raw)
        slot = self.const_slots.get(wrapped)
        if slot is None:
            slot = self.const_slots[wrapped] = self.n_slots
            self.n_slots += 1
        return slot

    def _read_spec(self, operand) -> tuple:
        """``(slot, const, value)`` for one use operand: ``slot >= 0``
        reads the frame (``value`` names it in undefined-read errors),
        ``slot == -1`` yields the folded immediate ``const``."""
        value = operand.value
        if isinstance(value, Imm):
            return (-1, wrap32(value.value), None)
        return (self._slot(value), 0, value)

    # ------------------------------------------------------------------
    def compile(self) -> CompiledFunction:
        function = self.function
        blocks = []
        for label, block in function.blocks.items():
            blocks.append(self._compile_block(block))
        frame_template = [UNDEF] * self.n_slots
        frame_template[_ENTERED_SLOT] = False
        frame_template[_DEPTH_SLOT] = 0
        for value, slot in self.const_slots.items():
            frame_template[slot] = value
        entry_index = self.index_of[function.entry]
        return CompiledFunction(
            function.name, blocks, list(function.blocks),
            entry_index, frame_template)

    def _compile_block(self, block) -> CompiledBlock:
        fn_name = self.function.name
        label = block.label
        phi_plans = self._compile_phis(block) if block.phis else None
        ops: list = []
        term = None
        body_ticks = 0
        for instr in block.body:
            body_ticks += 1
            opcode = instr.opcode
            if opcode == "ret":
                term = self._compile_ret(instr, fn_name, label)
                break
            if opcode in ("br", "cbr"):
                term = self._compile_branch(instr, fn_name, label)
                break
            ops.append(self._compile_op(instr, fn_name, label))
        if term is None:
            def term(rt, frame, _fn=fn_name, _lb=label):
                raise InterpreterError(
                    f"{_fn}: block {_lb} fell through")
        ticks = len(block.phis) + body_ticks
        return CompiledBlock(label, ticks, phi_plans, tuple(ops), term)

    # ------------------------------------------------------------------
    def _compile_phis(self, block):
        """Edge index -> ``(src_slots, dst_slots, src_values)`` plan,
        executed read-all-then-write-all.  Immediate arguments read a
        constant-pool slot, so one uniform slot shuffle covers every
        case; an edge any phi does not carry maps to no plan (the
        runtime raises the reference tier's ``KeyError``)."""
        plans = {}
        edges = dict.fromkeys(lbl for phi in block.phis
                              for lbl in phi.attrs["incoming"])
        for pred_label in edges:
            pred_index = self.index_of.get(pred_label)
            if pred_index is None:
                continue  # never a runtime predecessor
            src_slots = []
            dst_slots = []
            src_values = []
            complete = True
            for phi in block.phis:
                try:
                    operand = phi.phi_arg_for(pred_label)
                except KeyError:
                    complete = False
                    break
                value = operand.value
                if isinstance(value, Imm):
                    src_slots.append(self._const_slot(value.value))
                    src_values.append(None)
                else:
                    src_slots.append(self._slot(value))
                    src_values.append(value)
                dst_slots.append(self._slot(phi.defs[0].value))
            if complete:
                plans[pred_index] = (tuple(src_slots), tuple(dst_slots),
                                     tuple(src_values))
        return plans

    # ------------------------------------------------------------------
    def _compile_branch(self, instr, fn_name, label):
        targets = instr.attrs["targets"]
        index_of = self.index_of
        if instr.opcode == "br":
            target = targets[0]
            ti = index_of.get(target)
            if ti is None:
                def term(rt, frame, _t=target):
                    raise KeyError(_t)
                return term
            return ti
        taken, fallthrough = targets[0], targets[1]
        ti = index_of.get(taken)
        fi = index_of.get(fallthrough)
        slot, const, value = self._read_spec(instr.uses[0])
        if slot < 0:
            label_taken, index_taken = (taken, ti) if const \
                else (fallthrough, fi)
            if index_taken is None:
                def term(rt, frame, _t=label_taken):
                    raise KeyError(_t)
                return term
            return index_taken

        def term(rt, frame, _s=slot, _t=ti, _f=fi, _tl=taken,
                 _fl=fallthrough, _v=value, _fn=fn_name, _lb=label):
            cond = frame[_s]
            if cond is UNDEF:
                _undef(_fn, _v, _lb)
            if cond:
                if _t is None:
                    raise KeyError(_tl)
                return _t
            if _f is None:
                raise KeyError(_fl)
            return _f

        return term

    def _compile_ret(self, instr, fn_name, label):
        reads = tuple(self._read_spec(op) for op in instr.uses)
        if not reads:
            def term(rt, frame):
                rt._ret = []
                return None
            return term
        if len(reads) == 1 and reads[0][0] >= 0:
            def term(rt, frame, _s=reads[0][0], _v=reads[0][2],
                     _fn=fn_name, _lb=label):
                value = frame[_s]
                if value is UNDEF:
                    _undef(_fn, _v, _lb)
                rt._ret = [value]
                return None
            return term

        def term(rt, frame, _reads=reads, _fn=fn_name, _lb=label):
            values = []
            for slot, const, val in _reads:
                if slot < 0:
                    values.append(const)
                else:
                    value = frame[slot]
                    if value is UNDEF:
                        _undef(_fn, val, _lb)
                    values.append(value)
            rt._ret = values
            return None

        return term

    # ------------------------------------------------------------------
    def _compile_op(self, instr, fn_name, label):
        opcode = instr.opcode
        if opcode == "input":
            return self._compile_input(instr, fn_name)
        if opcode == "call":
            return self._compile_call(instr, fn_name, label)
        if opcode == "pcopy":
            return self._compile_pcopy(instr, fn_name, label)
        if opcode == "psi":
            return self._compile_psi(instr, fn_name, label)
        if opcode == "load":
            return self._compile_load(instr, fn_name, label)
        if opcode == "store":
            return self._compile_store(instr, fn_name, label)
        return self._compile_simple(instr, fn_name, label)

    def _compile_simple(self, instr, fn_name, label):
        spec = instr.spec
        kernel = spec.kernel
        if kernel is None:
            def op(rt, frame, _op=opcode_err_msg(instr.opcode)):
                raise InterpreterError(_op)
            return op
        predicate = spec.predicate
        reads = tuple(self._read_spec(use) for use in instr.uses)
        dsts = tuple(self._slot(op.value) for op in instr.defs)
        if len(dsts) == 1:
            dst = dsts[0]
            if all(slot < 0 for slot, _, _ in reads):
                # Every operand is an immediate: fold at compile time
                # (kernels are pure; div/rem by zero yield 0).
                folded = spec.evaluate(*(const for _, const, _ in reads))[0]
                return lambda rt, frame, _d=dst, _c=folded: \
                    frame.__setitem__(_d, _c)
            if len(reads) == 1 and not predicate:
                slot, _, value = reads[0]

                def op(rt, frame, _k=kernel, _a=slot, _d=dst, _v=value,
                       _fn=fn_name, _lb=label):
                    x = frame[_a]
                    if x is UNDEF:
                        _undef(_fn, _v, _lb)
                    r = _k(x)
                    frame[_d] = r if -2147483648 <= r <= 2147483647 \
                        else wrap32(r)

                return op
            if len(reads) == 2:
                return _binary_op(kernel, predicate, reads, dst,
                                  fn_name, label)

        def op(rt, frame, _k=kernel, _p=predicate, _reads=reads,
               _d=dsts[:1], _fn=fn_name, _lb=label):
            args = []
            for slot, const, val in _reads:
                if slot < 0:
                    args.append(const)
                else:
                    x = frame[slot]
                    if x is UNDEF:
                        _undef(_fn, val, _lb)
                    args.append(x)
            r = _k(*args)
            if _p:
                r = 1 if r else 0
            elif not -2147483648 <= r <= 2147483647:
                r = wrap32(r)
            for d in _d:
                frame[d] = r

        return op

    def _compile_input(self, instr, fn_name):
        dsts = tuple(self._slot(op.value) for op in instr.defs)

        def op(rt, frame, _d=dsts, _n=len(dsts), _fl=_ENTERED_SLOT,
               _as=_ARGS_SLOT, _fn=fn_name):
            if frame[_fl]:
                raise InterpreterError(f"{_fn}: second input instruction")
            args = frame[_as]
            if _n != len(args):
                raise InterpreterError(
                    f"{_fn}: expected {_n} arguments, got {len(args)}")
            for d, value in zip(_d, args):
                frame[d] = wrap32(value)
            frame[_fl] = True

        return op

    def _compile_call(self, instr, fn_name, label):
        callee = instr.attrs["callee"]
        reads = tuple(self._read_spec(use) for use in instr.uses)
        dsts = tuple(self._slot(op.value) for op in instr.defs)

        def op(rt, frame, _callee=callee, _reads=reads, _d=dsts,
               _nd=len(dsts), _ds=_DEPTH_SLOT, _fn=fn_name,
               _lb=label):
            args = []
            for slot, const, val in _reads:
                if slot < 0:
                    args.append(const)
                else:
                    x = frame[slot]
                    if x is UNDEF:
                        _undef(_fn, val, _lb)
                    args.append(x)
            rt.trace.calls.append((_callee, tuple(args)))
            results = rt._dispatch(_callee, args, frame[_ds] + 1)
            if len(results) < _nd:
                raise InterpreterError(
                    f"{_callee} returned {len(results)} values, "
                    f"{_nd} expected")
            for d, r in zip(_d, results):
                frame[d] = r

        return op

    def _compile_pcopy(self, instr, fn_name, label):
        src_slots = []
        src_values = []
        for use in instr.uses:
            value = use.value
            if isinstance(value, Imm):
                src_slots.append(self._const_slot(value.value))
                src_values.append(None)
            else:
                src_slots.append(self._slot(value))
                src_values.append(value)
        dst_slots = tuple(self._slot(op.value) for op in instr.defs)

        def op(rt, frame, _s=tuple(src_slots), _d=dst_slots,
               _v=tuple(src_values), _fn=fn_name, _lb=label):
            values = [frame[s] for s in _s]
            if UNDEF in values:
                _undef(_fn, _v[values.index(UNDEF)], _lb)
            for d, value in zip(_d, values):
                frame[d] = value

        return op

    def _compile_psi(self, instr, fn_name, label):
        pairs = tuple(self._read_spec(guard) + self._read_spec(value)
                      for guard, value in instr.psi_pairs())
        dst = self._slot(instr.defs[0].value)
        message = f"psi with no satisfied guard: {instr}"

        def op(rt, frame, _pairs=pairs, _d=dst, _msg=message,
               _fn=fn_name, _lb=label):
            result = None
            for gs, gc, gv, vs, vc, vv in _pairs:
                if gs < 0:
                    guard = gc
                else:
                    guard = frame[gs]
                    if guard is UNDEF:
                        _undef(_fn, gv, _lb)
                if guard:
                    if vs < 0:
                        result = vc
                    else:
                        result = frame[vs]
                        if result is UNDEF:
                            _undef(_fn, vv, _lb)
            if result is None:
                raise InterpreterError(_msg)
            frame[_d] = result

        return op

    def _compile_load(self, instr, fn_name, label):
        slot, const, value = self._read_spec(instr.uses[0])
        offset = instr.attrs.get("offset", 0)
        dst = self._slot(instr.defs[0].value)

        def op(rt, frame, _s=slot, _c=const + offset, _off=offset,
               _d=dst, _v=value, _fn=fn_name, _lb=label):
            if _s < 0:
                addr = _c
            else:
                addr = frame[_s]
                if addr is UNDEF:
                    _undef(_fn, _v, _lb)
                addr += _off
            memory = rt.memory
            if addr not in memory:
                raise InterpreterError(
                    f"{_fn}: load from uninitialized address {addr}")
            frame[_d] = memory[addr]

        return op

    def _compile_store(self, instr, fn_name, label):
        a_slot, a_const, a_value = self._read_spec(instr.uses[0])
        v_slot, v_const, v_value = self._read_spec(instr.uses[1])
        offset = instr.attrs.get("offset", 0)

        def op(rt, frame, _as=a_slot, _ac=a_const + offset, _off=offset,
               _vs=v_slot, _vc=v_const, _av=a_value, _vv=v_value,
               _fn=fn_name, _lb=label):
            if _as < 0:
                addr = _ac
            else:
                addr = frame[_as]
                if addr is UNDEF:
                    _undef(_fn, _av, _lb)
                addr += _off
            if _vs < 0:
                value = _vc
            else:
                value = frame[_vs]
                if value is UNDEF:
                    _undef(_fn, _vv, _lb)
            rt.memory[addr] = value
            rt.trace.stores.append((addr, value))

        return op


def _binary_op(kernel, predicate, reads, dst, fn_name, label):
    """The closure for a two-operand kernel op with at least one slot
    operand: one variant per operand shape, so the hot path tests no
    shape and no ``predicate`` flag at run time."""
    (sa, ca, va), (sb, cb, vb) = reads
    if predicate:
        if sb < 0:
            def op(rt, frame, _k=kernel, _a=sa, _b=cb, _d=dst, _v=va,
                   _fn=fn_name, _lb=label):
                x = frame[_a]
                if x is UNDEF:
                    _undef(_fn, _v, _lb)
                frame[_d] = 1 if _k(x, _b) else 0
        elif sa < 0:
            def op(rt, frame, _k=kernel, _a=ca, _b=sb, _d=dst, _v=vb,
                   _fn=fn_name, _lb=label):
                y = frame[_b]
                if y is UNDEF:
                    _undef(_fn, _v, _lb)
                frame[_d] = 1 if _k(_a, y) else 0
        else:
            def op(rt, frame, _k=kernel, _a=sa, _b=sb, _d=dst, _va=va,
                   _vb=vb, _fn=fn_name, _lb=label):
                x = frame[_a]
                if x is UNDEF:
                    _undef(_fn, _va, _lb)
                y = frame[_b]
                if y is UNDEF:
                    _undef(_fn, _vb, _lb)
                frame[_d] = 1 if _k(x, y) else 0
        return op
    if sb < 0:
        def op(rt, frame, _k=kernel, _a=sa, _b=cb, _d=dst, _v=va,
               _fn=fn_name, _lb=label):
            x = frame[_a]
            if x is UNDEF:
                _undef(_fn, _v, _lb)
            r = _k(x, _b)
            frame[_d] = r if -2147483648 <= r <= 2147483647 else wrap32(r)
    elif sa < 0:
        def op(rt, frame, _k=kernel, _a=ca, _b=sb, _d=dst, _v=vb,
               _fn=fn_name, _lb=label):
            y = frame[_b]
            if y is UNDEF:
                _undef(_fn, _v, _lb)
            r = _k(_a, y)
            frame[_d] = r if -2147483648 <= r <= 2147483647 else wrap32(r)
    else:
        def op(rt, frame, _k=kernel, _a=sa, _b=sb, _d=dst, _va=va,
               _vb=vb, _fn=fn_name, _lb=label):
            x = frame[_a]
            if x is UNDEF:
                _undef(_fn, _va, _lb)
            y = frame[_b]
            if y is UNDEF:
                _undef(_fn, _vb, _lb)
            r = _k(x, y)
            frame[_d] = r if -2147483648 <= r <= 2147483647 else wrap32(r)
    return op


def opcode_err_msg(opcode: str) -> str:
    return f"cannot evaluate opcode {opcode}"


def compile_function(function: Function) -> CompiledFunction:
    """Compile *function* to closures (no caching -- see
    :data:`CODE_CACHE`)."""
    return _Compiler(function).compile()


# ----------------------------------------------------------------------
# The epoch-keyed code cache
# ----------------------------------------------------------------------
class CodeCache:
    """``Function -> (epoch, cfg_epoch, CompiledFunction)`` plus its
    traffic counters.

    Weak keys: compiled code dies with its function, so fuzz sweeps over
    millions of throwaway modules cannot grow the cache.  An epoch
    mismatch is a miss and the entry is replaced (the stale code is
    unreachable).  The cache is process-global, so what one run sees
    depends on what ran before it: a run reports
    :meth:`stats_since` a :meth:`stats` mark taken when it started.
    """

    def __init__(self) -> None:
        self._entries: "weakref.WeakKeyDictionary[Function, tuple]" = \
            weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0
        self.compile_ns = 0

    def lookup(self, function: Function) -> CompiledFunction:
        """*function*'s compiled code, compiling it on a miss."""
        entry = self._entries.get(function)
        if entry is not None and entry[0] == function.epoch \
                and entry[1] == function.cfg_epoch:
            self.hits += 1
            return entry[2]
        start = time.perf_counter_ns()
        code = compile_function(function)
        self.compile_ns += time.perf_counter_ns() - start
        self.misses += 1
        self._entries[function] = (function.epoch, function.cfg_epoch,
                                   code)
        return code

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "compile_ns": self.compile_ns}

    def stats_since(self, mark: dict[str, int]) -> dict[str, int]:
        """The counter deltas since a :meth:`stats` snapshot."""
        return {name: value - mark[name]
                for name, value in self.stats().items()}

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide code cache every :class:`CompiledInterpreter` uses.
CODE_CACHE = CodeCache()


def clear_code_cache() -> None:
    """Drop every cached compilation (tests and benchmarks); the
    traffic counters keep counting."""
    CODE_CACHE.clear()


def code_cache_size() -> int:
    """Number of functions with live cached code."""
    return len(CODE_CACHE)


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
class CompiledInterpreter:
    """Drop-in replacement for the reference
    :class:`~repro.interp.interpreter.Interpreter` running compiled
    code.  Same constructor, same :meth:`run` contract, same tracer
    counters (``interp.runs`` / ``interp.steps`` /
    ``interp.block_entries``) plus the code-cache counters documented
    in the module docstring.
    """

    def __init__(self, module: Module,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 on_block: Optional[Callable[[str, str], None]] = None,
                 tracer=None) -> None:
        self.module = module
        self.max_steps = max_steps
        self.memory: dict[int, int] = {}
        self.trace = Trace()
        self._ret: list = []
        self._targets: dict = {}
        self.tracer = tracer = _resolve_tracer(tracer)
        if tracer.enabled:
            count_entry = tracer.counter("interp.block_entries").add

            def notify(fn_name: str, label: str,
                       _count=count_entry, _inner=on_block) -> None:
                _count()
                if _inner is not None:
                    _inner(fn_name, label)

            self._on_block: Optional[Callable] = notify
        else:
            self._on_block = on_block

    # ------------------------------------------------------------------
    def run(self, function_name: str, args: Sequence[int] = (),
            memory: Optional[dict[int, int]] = None) -> Trace:
        """Run *function_name* on integer *args*; return the trace."""
        self.memory = dict(memory or {})
        self.trace = Trace()
        # Callees re-resolve per run: the module's function table and
        # externals may change between runs, exactly as the reference
        # tier observes them.
        self._targets = {}
        tracer = self.tracer
        with tracer.span(f"interp:{function_name}",
                         function=function_name):
            code = self._code(self.module.function(function_name))
            results = self._run_fn(code, list(args), 0)
        self.trace.results = tuple(results)
        if tracer.enabled:
            tracer.count("interp.runs")
            tracer.count("interp.steps", self.trace.steps)
        return self.trace

    # ------------------------------------------------------------------
    def _code(self, function: Function) -> CompiledFunction:
        return CODE_CACHE.lookup(function)

    def _dispatch(self, callee: str, args: list, depth: int) -> list:
        """Resolve *callee* (memoized per run) and invoke it."""
        entry = self._targets.get(callee)
        if entry is None:
            functions = self.module.functions
            if callee in functions:
                entry = (True, self._code(functions[callee]))
            elif callee in self.module.externals:
                entry = (False, self.module.externals[callee])
            else:
                raise InterpreterError(
                    f"call to unknown function {callee!r}")
            self._targets[callee] = entry
        internal, target = entry
        if internal:
            return self._run_fn(target, args, depth)
        raw = target(*args)
        if raw is None:
            return []
        if isinstance(raw, tuple):
            return [wrap32(v) for v in raw]
        return [wrap32(raw)]

    # ------------------------------------------------------------------
    def _run_fn(self, code: CompiledFunction, args: list,
                depth: int) -> list:
        if depth > MAX_CALL_DEPTH:
            raise InterpreterError("call depth exceeded")
        frame = list(code.frame_template)
        frame[_ARGS_SLOT] = args
        frame[_DEPTH_SLOT] = depth
        blocks = code.blocks
        labels = code.labels
        notify = self._on_block
        trace = self.trace
        max_steps = self.max_steps
        fn_name = code.name
        index = code.entry_index
        prev = -1
        while True:
            block = blocks[index]
            if notify is not None:
                notify(fn_name, block.label)
            plans = block.phi_plans
            if plans is not None:
                if prev < 0:
                    raise InterpreterError(
                        f"{fn_name}: phis in entry block {block.label}")
                plan = plans.get(prev)
                if plan is None:
                    raise KeyError(
                        f"phi has no incoming edge from {labels[prev]}")
                src_slots, dst_slots, src_values = plan
                values = [frame[s] for s in src_slots]
                if UNDEF in values:
                    _undef(fn_name, src_values[values.index(UNDEF)],
                           block.label)
                for d, value in zip(dst_slots, values):
                    frame[d] = value
            steps = trace.steps + block.ticks
            trace.steps = steps
            if steps > max_steps:
                raise InterpreterError("step limit exceeded")
            for op in block.ops:
                op(self, frame)
            nxt = block.term
            if nxt.__class__ is not int:
                nxt = nxt(self, frame)
                if nxt is None:
                    return self._ret
            prev = index
            index = nxt
