"""The interpreter subsystem: two tiers behind one entry point.

:mod:`.interpreter`
    The reference tree-walker, the semantic ground truth (string
    opcode dispatch over a ``dict[Value, int]`` environment).

:mod:`.compiled`
    The compiled tier: per-function closure chains over slot-indexed
    frames with an epoch-keyed code cache -- the same observable
    semantics, several times faster on verify-heavy workloads.

:func:`run_module` / :func:`run_function` dispatch between them.  The
tier comes from the ``tier=`` argument when given, else from the
``REPRO_INTERP`` environment variable (also settable via the CLI's
``--interp`` flag, and inherited by forked pool workers):

``compiled`` (the default)
    Run the compiled tier.
``reference``
    Run the tree-walker.
``both``
    Run the compiled tier (which reports the trace and feeds the
    tracer/`on_block` hooks, so counters are counted exactly once),
    then silently replay on the reference tier and assert identical
    observables, value types *and* step counts -- raising
    :class:`TierDivergence` on any mismatch.  Types matter because
    ``True == 1``: a tier that produced a ``bool`` where the other
    produced an ``int`` would otherwise pass.  The lockstep
    cross-check behind the fuzz harness's ``interp`` check and the CI
    ``REPRO_INTERP=both`` legs.
"""

import os
from itertools import chain
from typing import Callable, Optional, Sequence

from .compiled import (CODE_CACHE, CompiledInterpreter, clear_code_cache,
                       code_cache_size, compile_function)
from .interpreter import (DEFAULT_MAX_STEPS, Interpreter,
                          InterpreterError, Trace)
from ..ir.function import Function, Module

#: Environment variable selecting the default interpreter tier.
INTERP_ENV = "REPRO_INTERP"

#: Recognized tier names, in documentation order.
TIERS = ("compiled", "reference", "both")


class TierDivergence(InterpreterError):
    """The compiled and reference tiers disagreed on one run.

    A subclass of :class:`InterpreterError` so every existing handler
    treats a divergence as the hard failure it is."""


def resolve_tier(tier: Optional[str] = None) -> str:
    """*tier* if given, else ``$REPRO_INTERP``, else ``"compiled"``."""
    tier = tier or os.environ.get(INTERP_ENV) or "compiled"
    if tier not in TIERS:
        raise ValueError(
            f"unknown interpreter tier {tier!r} (expected one of "
            f"{', '.join(TIERS)})")
    return tier


def _observed_values(trace: Trace):
    """Every result, store address and value, and call argument."""
    return chain(trace.results, chain.from_iterable(trace.stores),
                 chain.from_iterable(args for _, args in trace.calls))


def _run_both(module: Module, function_name: str, args, memory,
              max_steps: int, on_block, tracer) -> Trace:
    compiled_error: Optional[BaseException] = None
    reference_error: Optional[BaseException] = None
    compiled_trace = reference_trace = None
    try:
        compiled_trace = CompiledInterpreter(
            module, max_steps, on_block=on_block,
            tracer=tracer).run(function_name, args, memory)
    except (InterpreterError, KeyError) as exc:
        compiled_error = exc
    # The replay runs silently (no tracer, no on_block): counters and
    # profiles must be counted exactly once per run, so a ``both``
    # run's stats digest matches a plain ``compiled`` (or
    # ``reference``) run of the same program.
    try:
        reference_trace = Interpreter(module, max_steps).run(
            function_name, args, memory)
    except (InterpreterError, KeyError) as exc:
        reference_error = exc
    where = f"{function_name}{tuple(args)}"
    if compiled_error is not None and reference_error is not None:
        # Error identities may legitimately differ (block-granular step
        # accounting can hit the budget before an undefined read the
        # reference tier trips first); failing is the shared contract.
        raise compiled_error
    if compiled_error is not None:
        raise TierDivergence(
            f"interpreter tiers diverged on {where}: compiled raised "
            f"{type(compiled_error).__name__}: {compiled_error}, "
            f"reference succeeded") from compiled_error
    if reference_error is not None:
        raise TierDivergence(
            f"interpreter tiers diverged on {where}: reference raised "
            f"{type(reference_error).__name__}: {reference_error}, "
            f"compiled succeeded") from reference_error
    if compiled_trace.observable() != reference_trace.observable():
        raise TierDivergence(
            f"interpreter tiers diverged on {where}: compiled observed "
            f"{compiled_trace.observable()!r}, reference "
            f"{reference_trace.observable()!r}")
    for got, want in zip(_observed_values(compiled_trace),
                         _observed_values(reference_trace)):
        if type(got) is not type(want):
            raise TierDivergence(
                f"interpreter tiers diverged on {where}: compiled "
                f"observed {type(got).__name__} {got!r}, reference "
                f"{type(want).__name__} {want!r}")
    if compiled_trace.steps != reference_trace.steps:
        raise TierDivergence(
            f"interpreter tiers diverged on {where}: compiled counted "
            f"{compiled_trace.steps} steps, reference "
            f"{reference_trace.steps}")
    return compiled_trace


def run_module(module: Module, function_name: str,
               args: Sequence[int] = (),
               memory: Optional[dict[int, int]] = None,
               max_steps: int = DEFAULT_MAX_STEPS,
               on_block: Optional[Callable[[str, str], None]] = None,
               tracer=None, tier: Optional[str] = None) -> Trace:
    """Run one function of *module* on the selected interpreter tier."""
    tier = resolve_tier(tier)
    if tier == "reference":
        interp = Interpreter(module, max_steps, on_block=on_block,
                             tracer=tracer)
    elif tier == "compiled":
        interp = CompiledInterpreter(module, max_steps,
                                     on_block=on_block, tracer=tracer)
    else:
        return _run_both(module, function_name, args, memory, max_steps,
                         on_block, tracer)
    return interp.run(function_name, args, memory)


def run_function(function: Function, args: Sequence[int] = (),
                 memory: Optional[dict[int, int]] = None,
                 externals: Optional[dict[str, object]] = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 on_block: Optional[Callable[[str, str], None]] = None,
                 tracer=None, tier: Optional[str] = None) -> Trace:
    """Run a standalone function (wrapped in a throwaway module)."""
    module = Module("__anon__")
    module.functions[function.name] = function
    for name, fn in (externals or {}).items():
        module.add_external(name, fn)
    return run_module(module, function.name, args, memory=memory,
                      max_steps=max_steps, on_block=on_block,
                      tracer=tracer, tier=tier)


__all__ = ["CODE_CACHE", "CompiledInterpreter", "DEFAULT_MAX_STEPS", "INTERP_ENV",
           "Interpreter", "InterpreterError", "TIERS", "TierDivergence",
           "Trace", "clear_code_cache", "code_cache_size",
           "compile_function", "resolve_tier", "run_function",
           "run_module"]
