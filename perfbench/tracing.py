"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` wraps each layer's public functions where the caller
looks them up at call time -- module attributes such as
``repro.pipeline.coalesce_phis`` (``run_phases`` calls its passes
through module globals) and methods such as
``AnalysisManager.liveness`` -- and returns an undo list for
:func:`uninstall`.  Nothing inside ``repro`` changes.

A span is ``[layer, start, end, parent, op, label]``, kept in memory:
*parent* is the index of the enclosing span, *op* the benchmark
operation it belongs to, *label* the experiment it ran under (set on
``run_experiment`` spans, inherited by descendants).  A layer's self
time is its spans' durations minus their direct children.
Root spans opened by the benchmark itself (layer ``bench.residual``)
make the self times of one op add up to the op's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (module, attribute, layer) -- module-level functions looked up at
#: call time by their callers.
MODULE_WRAPS = (
    ("repro.lai", "parse_module", "lai.parse"),
    ("repro.fuzz.differential", "parse_module", "lai.parse"),
    ("repro.pipeline", "ensure_ssa", "ssa.construct"),
    ("repro.pipeline", "optimize_ssa", "ssa.copyprop"),
    ("repro.pipeline", "pinning_sp", "machine.pinning"),
    ("repro.pipeline", "pinning_abi", "machine.pinning"),
    ("repro.pipeline", "coalesce_phis", "outofssa.pinningPhi"),
    ("repro.pipeline", "sreedhar_to_cssa", "outofssa.sreedhar"),
    ("repro.pipeline", "out_of_pinned_ssa", "outofssa.reconstruct"),
    ("repro.pipeline", "naive_abi", "outofssa.naiveABI"),
    ("repro.pipeline", "aggressive_coalesce", "outofssa.coalescing"),
    ("repro.pipeline", "validate_function", "ir.validate"),
    ("repro.ir.printer", "format_module", "ir.print"),
    ("repro.fuzz.differential", "format_module", "ir.print"),
    ("repro.pipeline", "run_module", "interp.verify"),
    ("repro.fuzz.differential", "run_module", "interp.verify"),
    ("repro.pipeline", "count_moves", "metrics.count"),
    ("repro.pipeline", "weighted_moves", "metrics.count"),
    ("repro.pipeline", "count_instructions", "metrics.count"),
    ("repro.pipeline", "run_phases", "pipeline.self"),
    ("repro.pipeline", "run_experiment", "pipeline.self"),
    ("repro.fuzz.differential", "run_experiment", "pipeline.self"),
    ("repro.parallel", "run_phases_parallel", "parallel.self"),
    ("repro.fuzz.differential", "check_module", "fuzz.harness"),
    ("repro.fuzz.differential", "oracle_cross_check", "fuzz.oracle_check"),
    ("repro.fuzz.differential", "generate_module_source",
     "benchgen.generate"),
    ("repro.fuzz.differential", "verify_runs", "benchgen.generate"),
    ("repro.benchgen.synthetic", "generate_module_source",
     "benchgen.generate"),
    ("repro.benchgen.synthetic", "verify_runs", "benchgen.generate"),
)

#: (module, class, methods, layer) -- methods wrapped on the class.
METHOD_WRAPS = (
    ("repro.analysis.manager", "AnalysisManager",
     ("varindex", "domtree", "loops", "defuse", "liveness", "ssa",
      "kill_rules", "dominterf", "interference_graph"), "analysis.build"),
    ("repro.cache.store", "CompilationCache", ("key", "probe"),
     "cache.probe"),
    ("repro.cache.store", "CompilationCache", ("store",), "cache.store"),
)

#: Every span layer, in report order (``bench.residual`` is the
#: benchmark's own time inside an op).
LAYERS = ("lai.parse", "ssa.construct", "ssa.copyprop", "machine.pinning",
          "outofssa.pinningPhi", "outofssa.sreedhar",
          "outofssa.reconstruct", "outofssa.naiveABI",
          "outofssa.coalescing", "analysis.build", "ir.validate",
          "ir.print", "interp.verify", "metrics.count", "pipeline.self",
          "cache.probe", "cache.store", "parallel.self", "fuzz.harness", "fuzz.oracle_check", "fuzz.lockstep",
          "benchgen.generate", "bench.residual")


def experiment_label(name: str, options) -> str:
    """``Lphi,ABI+C`` or, for a Table 5 variant, ``Lphi,ABI+C[opt]``."""
    from repro.pipeline import table5_variants

    for variant, variant_options in table5_variants().items():
        if options == variant_options and variant != "base":
            return f"{name}[{variant}]"
    return name


class Recorder:
    """In-memory span store plus the counts taken at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        #: op -> (HostClock, block) that timed it.
        self.blocks: dict = {}
        self.counts: dict[str, float] = defaultdict(float)
        #: (op, ExperimentResult) of every wrapped ``run_experiment``.
        self.results: list = []
        self._stack: list[int] = []

    def open(self, layer: str, label=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([layer, time.perf_counter(), None, parent,
                           self.op, label])
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def factor(self, op) -> float:
        """``K_S / calib_s`` of the block that timed *op*."""
        clock, block = self.blocks[op]
        return clock.factor(block)

    def self_times(self) -> tuple[dict, dict]:
        """Reference-second self time per layer and per (experiment
        label, layer)."""
        child = [0.0] * len(self.spans)
        labels = [None] * len(self.spans)
        for i, (_, start, end, parent, _, label) in enumerate(self.spans):
            if parent is not None:
                child[parent] += end - start
                label = label or labels[parent]
            labels[i] = label
        per_layer: dict = defaultdict(float)
        per_label: dict = defaultdict(float)
        for i, (layer, start, end, _, op, _) in enumerate(self.spans):
            own = (end - start - child[i]) * self.factor(op)
            per_layer[layer] += own
            if labels[i] is not None:
                per_label[(labels[i], layer)] += own
        return dict(per_layer), dict(per_label)


def _wrap(recorder: Recorder, original, layer: str, owner: str):
    if layer == "interp.verify" and owner == "repro.fuzz.differential":
        def traced(*args, **kwargs):
            # The harness's tier="both" runs are its lockstep check.
            span = recorder.open("fuzz.lockstep"
                                 if kwargs.get("tier") == "both"
                                 else layer)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(span)
    elif layer == "interp.verify":
        def traced(*args, **kwargs):
            span = recorder.open(layer)
            try:
                trace = original(*args, **kwargs)
            finally:
                recorder.close(span)
            recorder.counts["interp.steps"] += trace.steps
            return trace
    elif layer == "lai.parse":
        def traced(source, *args, **kwargs):
            span = recorder.open(layer)
            try:
                return original(source, *args, **kwargs)
            finally:
                recorder.close(span)
                recorder.counts["lai.chars"] += len(source)
    elif original.__name__ == "run_experiment":
        def traced(module, name, *args, **kwargs):
            options = args[0] if args else kwargs.get("options")
            span = recorder.open(layer, experiment_label(name, options))
            try:
                result = original(module, name, *args, **kwargs)
            finally:
                recorder.close(span)
            recorder.results.append((recorder.op, result))
            return result
    else:
        def traced(*args, **kwargs):
            span = recorder.open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(span)
    return functools.update_wrapper(traced, original)


def install(recorder: Recorder) -> list:
    """Wrap every layer boundary; returns the undo list."""
    undo = []
    for module_name, attr, layer in MODULE_WRAPS:
        owner = importlib.import_module(module_name)
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(recorder, original, layer, module_name))
    for module_name, class_name, methods, layer in METHOD_WRAPS:
        owner = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method,
                    _wrap(recorder, original, layer, module_name))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
