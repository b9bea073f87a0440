"""What every workload reports, and the process measurements they share."""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """One measured pass of a workload plus the results of its checks.

    ``total_s`` and every latency are reference seconds (see
    :mod:`calib`); ``raw_total_s`` is the same span in raw seconds.
    """

    total_s: float = 0.0
    raw_total_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)  #: (op id, detail)
    moves: int = 0
    weighted_moves: int = 0
    generated_steps: int = 0
    #: Outputs the unmodified ``repro.lai.parse_module`` refuses.
    output_rejects: int = 0
    peak_rss_mb: float = 0.0
    #: request class -> client latencies (serve-mix).
    latencies: dict = field(default_factory=dict)
    #: op id -> digest of its output, for the determinism test.
    digests: dict = field(default_factory=dict)
    #: Per-layer figures a workload reads from results or server stats.
    layers: dict = field(default_factory=dict)
    #: Workload-private per-op records, consumed by its ``check``.
    records: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Failed ops (an op with several failures counts once)."""
        return len({op_id for op_id, _ in self.failures})

    def fail(self, op_id: str, detail: str) -> None:
        self.failures.append((op_id, detail))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets (``VmHWM``) of *pid* and its live
    children, in MiB (Linux ``/proc``)."""
    pids = [pid]
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            pids += [int(child) for child in handle.read().split()]
    except OSError:
        pass
    total_kb = 0
    for each in pids:
        try:
            with open(f"/proc/{each}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def bench_path(name: str) -> str:
    """Path of *name* in ``.perfbench/`` (the checkout's scratch
    directory, created by ``run.py``)."""
    return os.path.join(".perfbench", name)
