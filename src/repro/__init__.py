"""Reproduction of *Optimizing Translation Out of SSA Using Renaming
Constraints* (F. Rastello, F. de Ferriere, C. Guillon -- CGO 2004).

A machine-level SSA compiler middle-end in pure Python:

* :mod:`repro.ir` -- pseudo-assembly IR with phis, parallel copies and
  operand pinning;
* :mod:`repro.lai` -- the LAI-like textual front end;
* :mod:`repro.machine` -- ST120-like target, ABI, constraint collection;
* :mod:`repro.analysis` -- dominance, loops, liveness, interference;
* :mod:`repro.ssa` -- pruned SSA construction, pinning legality,
  copy propagation;
* :mod:`repro.outofssa` -- the paper's pinning-based coalescer and every
  baseline it is compared against;
* :mod:`repro.interp` -- the reference interpreter (correctness oracle);
* :mod:`repro.pipeline` -- the experiment matrix of the paper's Table 1;
* :mod:`repro.benchgen` -- the simulated benchmark suites.

Quick start::

    from repro import compile_module
    from repro.lai import parse_module

    module = parse_module(open("program.lai").read())
    result = compile_module(module)          # the paper's full pipeline
    print(result.moves, "move instructions")
"""

from .metrics import count_instructions, count_moves, weighted_moves
from .pipeline import (EXPERIMENTS, ExperimentResult, PhaseOptions,
                       run_experiment, run_phases, run_table, run_table5)

__version__ = "1.0.0"


def compile_module(module, verify=None, options=None, cache=None):
    """Run the paper's recommended pipeline (``Lφ,ABI+C``) on *module*.

    SSA construction, SP/ABI constraint collection, pinning-based phi
    coalescing, out-of-pinned-SSA reconstruction, and a final aggressive
    coalescing pass.  Returns an
    :class:`~repro.pipeline.ExperimentResult` whose ``module`` attribute
    holds the transformed (phi-free, constraint-respecting) program.
    ``cache`` optionally names a persistent compilation-cache directory
    (see :mod:`repro.cache`); identical recompiles then become cache
    hits with identical output.
    """
    return run_experiment(module, "Lphi,ABI+C", options=options,
                          verify=verify, cache=cache)


__all__ = ["compile_module", "count_instructions", "count_moves",
           "weighted_moves", "EXPERIMENTS", "ExperimentResult",
           "PhaseOptions", "run_experiment", "run_phases", "run_table",
           "run_table5", "__version__"]
