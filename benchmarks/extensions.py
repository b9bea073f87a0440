"""The extensions beyond the paper's tables, each computed in one place.

Each function below returns the body of one
``benchmarks/results/<table>.json``, ``{row: {column: value}}``, from the
suites ``{name: Suite}``.  The ``bench_<table>.py`` harness times it and
saves it; ``tests/test_extension_outputs.py`` recomputes it and compares
it with the committed file.  A table's compiles run as one
:func:`repro.pipeline.run_jobs` batch, so the runs on one suite share
their phase prefixes.

* :func:`ablations` -- ``Lphi,ABI+C`` under the four ``PhaseOptions``
  knobs DESIGN.md calls out;
* :func:`weights` -- static 5^depth weighting against interpreter-counted
  move executions;
* :func:`regalloc` -- moves and spill instructions after graph-coloring
  allocation ([LIM4]);
* :func:`optimality` -- greedy against exact per-block pruning (§3.4).
"""

from repro.machine.constraints import pinning_abi, pinning_sp
from repro.metrics import count_moves
from repro.outofssa import affinity
from repro.outofssa.pinning_coalescer import _Coalescer
from repro.parallel import Job
from repro.pipeline import EXPERIMENTS, PhaseOptions, ensure_ssa, run_jobs
from repro.profile import dynamic_weighted_moves
from repro.regalloc import allocate_function
from repro.ssa import optimize_ssa

ABLATIONS = {
    "default": PhaseOptions(),
    "unordered-pruning": PhaseOptions(weight_ordered=False),
    "outer-to-inner": PhaseOptions(traversal="outer-to-inner"),
    "layout-order": PhaseOptions(traversal="layout"),
    "literal-weights": PhaseOptions(literal_weight_update=True),
    "no-phys-merge": PhaseOptions(phys_affinity=False),
}
ABLATION_SUITES = ("VALcc1", "LAI_Large", "SPECint")
#: The loop-related pair whose weighted moves are recorded on the
#: deepest suite (traversal order should matter most under 5^depth).
WEIGHTED_ABLATIONS = ("default", "outer-to-inner")

WITH_ABI = ("Lphi,ABI+C", "Sphi+LABI+C", "LABI+C", "naiveABI+C")
WEIGHT_SUITES = ("VALcc1", "LAI_Large")
REGALLOC_SUITES = ("VALcc1", "example1-8", "LAI_Large")
OPTIMALITY_SUITES = ("VALcc1", "VALcc2", "example1-8", "LAI_Large",
                     "SPECint")


def _compile(suites, runs):
    """Results of ``(suite, experiment, options)`` *runs*, in order, as
    one batch; raises the first run's exception."""
    results = run_jobs([Job(suites[suite].module, name, EXPERIMENTS[name],
                            options) for suite, name, options in runs])
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def ablations(suites) -> dict:
    cells = [(suite, label) for suite in ABLATION_SUITES
             for label in ABLATIONS]
    results = _compile(suites, [(suite, "Lphi,ABI+C", ABLATIONS[label])
                                for suite, label in cells])
    table: dict = {}
    for (suite, label), result in zip(cells, results):
        table.setdefault(suite, {})[label] = result.moves
        if suite == "LAI_Large" and label in WEIGHTED_ABLATIONS:
            table.setdefault("LAI_Large-weighted", {})[label] = \
                result.weighted
    return table


def weights(suites) -> dict:
    cells = [(suite, name) for suite in WEIGHT_SUITES for name in WITH_ABI]
    results = _compile(suites, [(suite, name, None) for suite, name in cells])
    table: dict = {}
    for (suite, name), result in zip(cells, results):
        table.setdefault(f"{suite}-static", {})[name] = result.weighted
        table.setdefault(f"{suite}-dynamic", {})[name] = \
            dynamic_weighted_moves(result.module, suites[suite].verify)
    return table


def regalloc(suites) -> dict:
    """Each output allocated over the 8-register GPR pool."""
    cells = [(suite, name) for suite in REGALLOC_SUITES
             for name in WITH_ABI]
    results = _compile(suites, [(suite, name, None) for suite, name in cells])
    table: dict = {}
    for (suite, name), result in zip(cells, results):
        spills = sum(allocate_function(function).spill_instructions
                     for function in result.module.iter_functions())
        table.setdefault(suite, {})[name] = count_moves(result.module)
        table.setdefault(f"{suite}-spills", {})[name] = spills
    return table


def block_instances(module):
    """Yield ``(edges, interfere)`` per phi block of *module* (mutated
    up to ``pinningPhi``), on the pre-coalescing pool state: each block
    judged as the first local decision."""
    for function in module.iter_functions():
        ensure_ssa(function)
        optimize_ssa(function)
        pinning_sp(function)
        pinning_abi(function)
        coalescer = _Coalescer(function, "base", False, False,
                               "inner-to-outer", True)
        interfere = coalescer._interference_predicate()
        for label in coalescer._block_order():
            if not function.blocks[label].phis:
                continue
            _, edges = coalescer._affinity_graph(label, None)
            if edges:
                yield edges, interfere


def optimality(suites) -> dict:
    """Blocks over the 14-edge cutoff count their greedy result as the
    optimum (a lower bound) under ``too-big``."""
    table = {}
    for suite in OPTIMALITY_SUITES:
        row = dict.fromkeys(("blocks", "greedy-kept", "optimal-kept",
                             "suboptimal-blocks", "too-big"), 0)
        for edges, interfere in block_instances(suites[suite].fresh()):
            best = affinity.optimal_prune(dict(edges), interfere,
                                          max_edges=14)
            greedy = dict(edges)
            affinity.greedy_prune(greedy, interfere)
            greedy_kept = affinity.kept_multiplicity(greedy)
            best_kept = greedy_kept if best is None \
                else affinity.kept_multiplicity(best)
            row["blocks"] += 1
            row["greedy-kept"] += greedy_kept
            row["optimal-kept"] += best_kept
            row["suboptimal-blocks"] += best_kept > greedy_kept
            row["too-big"] += best is None
        table[suite] = row
    return table
