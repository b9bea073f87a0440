"""Move-instruction metrics: the quantities the paper's tables report.

* :func:`count_moves` -- plain count of register-to-register ``copy``
  instructions (Tables 2, 3, 4);
* :func:`weighted_moves` -- each move weighted by ``5**d``, *d* the loop
  nesting depth of its block: "5^d is an arbitrary weight that
  corresponds to a static approximation where each loop would contain 5
  iterations" (Table 5);
* :func:`count_instructions` -- total instruction count, used by the
  compile-time-oriented reports.

φ-instruction convention
------------------------
All metrics iterate the *same* instruction stream,
``block.instructions()`` (φs first, then the body), through one shared
:func:`functions_of` helper:

* :func:`count_instructions` **includes** φ-instructions -- a φ is an
  instruction the later phases must still lower;
* :func:`count_moves` / :func:`weighted_moves` **never count** φs -- a
  φ is not a ``copy`` (``instr.is_copy`` is false for it); only the
  materialized register-to-register moves the tables charge appear.

Every metric accepts a :class:`~repro.ir.function.Function`, a
:class:`~repro.ir.function.Module`, or any object exposing
``iter_functions()`` (duck-typed, no isinstance checks).
"""

from __future__ import annotations

from .analysis.loops import LoopForest
from .ir.function import Function, Module


def functions_of(item: Function | Module) -> tuple:
    """The functions of *item*: a Module-like (anything exposing
    ``iter_functions``) yields its functions, anything else is treated
    as a single function.  The shared entry point of every metric."""
    iter_functions = getattr(item, "iter_functions", None)
    if iter_functions is None:
        return (item,)
    return tuple(iter_functions())


def count_moves(item: Function | Module) -> int:
    """Number of register-to-register copies (immediates excluded).

    φ-instructions are iterated but never counted: ``is_copy`` holds
    only for materialized ``copy`` instructions.
    """
    return sum(sum(1 for instr in f.instructions() if instr.is_copy)
               for f in functions_of(item))


def weighted_moves(item: Function | Module, base: int = 5,
                   analyses=None) -> int:
    """Sum of ``base**depth`` over all move instructions (φs excluded,
    same convention as :func:`count_moves`).

    ``analyses`` optionally supplies an
    :class:`~repro.analysis.manager.AnalysisManager` whose cached loop
    forest (CFG-epoch keyed, so it survives the body rewrites of the
    late phases) is used instead of building a private one per function.
    """
    total = 0
    for function in functions_of(item):
        loops = analyses.loops(function) if analyses is not None \
            else LoopForest(function)
        for block in function.iter_blocks():
            weight = base ** loops.depth(block.label)
            for instr in block.instructions():
                if instr.is_copy:
                    total += weight
    return total


def count_instructions(item: Function | Module) -> int:
    """Total instruction count, φ-instructions **included** (every
    ``block.instructions()`` element counts exactly once)."""
    return sum(sum(1 for _ in f.instructions())
               for f in functions_of(item))


def count_phis(item: Function | Module) -> int:
    """Number of φ-instructions (the part of :func:`count_instructions`
    that :func:`count_moves` will never see)."""
    return sum(sum(len(block.phis) for block in f.iter_blocks())
               for f in functions_of(item))
