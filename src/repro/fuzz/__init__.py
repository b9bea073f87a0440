"""Mass-scale differential fuzzing of the out-of-SSA pipelines.

Three layers, each usable on its own:

:mod:`~repro.fuzz.differential`
    The failure predicates.  :func:`check_module` runs one LAI program
    through every Table 2-5 composition (plus the Table 5 coalescer
    variants) and returns the list of :class:`Divergence` records --
    behaviour changes, crashes, invariant violations, oracle
    disagreements, parallel/cache byte differences.  :func:`check_seed`
    generates the program first; :func:`run_fuzz` sweeps seed ranges
    across generator profiles.

:mod:`~repro.fuzz.minimize`
    Delta debugging.  :func:`minimize` shrinks a failing program while
    a predicate keeps reproducing: drop functions, simplify calls,
    collapse branches, drop unreachable blocks, drop instructions.

:mod:`~repro.fuzz.corpus`
    Self-contained repro files (header comments carry provenance and
    the verify runs) and the ``tests/corpus_regressions/`` replay
    convention.

See docs/fuzzing.md for the workflow.
"""

from .corpus import (Regression, iter_regressions, load_regression,
                     replay_regression, write_regression)
from .differential import (AGGREGATE_INVARIANTS, ALL_CHECKS,
                           DEFAULT_INVARIANTS,
                           REDUCIBLE_ONLY_AGGREGATES, Divergence,
                           FuzzReport, SeedResult, check_module,
                           check_seed, oracle_cross_check, run_fuzz)
from .minimize import MinimizeResult, divergence_predicate, minimize

__all__ = [
    "AGGREGATE_INVARIANTS", "ALL_CHECKS", "DEFAULT_INVARIANTS",
    "REDUCIBLE_ONLY_AGGREGATES",
    "Divergence", "FuzzReport",
    "MinimizeResult", "Regression", "SeedResult",
    "check_module", "check_seed", "divergence_predicate",
    "iter_regressions", "load_regression", "minimize",
    "oracle_cross_check", "replay_regression", "run_fuzz",
    "write_regression",
]
