"""Host-speed calibration: raw seconds -> reference seconds.

The benchmark shares a small machine with other tenants, whose load
changes how fast pure Python runs from one minute to the next.  Every
timed block is therefore bracketed by a fixed calibration kernel, and
its time is reported as ``raw_s * K_S / calib_s``, where ``calib_s`` is
the mean kernel time around the block (see :class:`HostClock`).  A host
running at the speed where the kernel takes ``K_S`` seconds reports
reference seconds equal to raw seconds.

The kernel must measure the host, not the program, so it

* imports nothing from ``repro`` (this module imports only the
  standard library),
* runs with the cyclic garbage collector paused and allocates no
  GC-tracked object (a dict of ints stays untracked), so collector
  state left behind by the program cannot leak into its time,
* is run by callers only while no request or compile is in flight.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

#: Reference kernel time: the ``calib_s`` of a host that reports
#: reference seconds equal to raw seconds.
K_S = 0.010

#: Loop trips of one kernel run: 9-15 ms of CPython 3.11 on the 2-vCPU
#: host the bounds were set on, depending on its load.
KERNEL_ITERS = 48_000


def kernel(iterations: int = KERNEL_ITERS) -> int:
    """A pure-Python int/dict loop: hashing, dict probes and int
    arithmetic, the operations the compiler itself spends its time on."""
    table = {}
    acc = 0
    for i in range(iterations):
        key = (i * 40503) & 1023
        acc = (acc + table.get(key, i)) & 0xFFFFFFF
        table[key] = acc ^ i
    return acc


def kernel_seconds() -> float:
    """Raw seconds of one kernel run, with the cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calib_seconds() -> float:
    """Mean raw seconds of one kernel run on each CPU this process may
    use.

    The CPUs of a shared host run at unequal, independently drifting
    speeds, and the timed work moves between them (the scheduler
    migrates it; servers and pool workers use them all at once), so a
    kernel run on the current CPU alone tracks it worse: replaying
    recorded runs, the run-to-run CV of ``total_s`` fell from 6.0% to
    4.2% (``fuzz-sweep``) and from 3.1% to 2.1% (``paper-tables``).
    """
    cpus = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


class HostClock:
    """Converts timed blocks to reference seconds.

    Each block is bracketed by kernel runs; the run that closes one
    block also opens the next.  A single 15 ms kernel run is itself
    noisy (consecutive runs differ by about 7% on the host the bounds
    were set on), so a block's ``calib_s`` is the mean of the runs just
    before and just after it plus :data:`WINDOW` more on each side --
    about a second of context for the sub-second blocks callers time.
    Factors are therefore read with :meth:`factor` once the timed pass
    is over.
    """

    #: Extra kernel runs on each side of a block in its ``calib_s``.
    WINDOW = 2

    def __init__(self) -> None:
        self.samples: list[float] = [calib_seconds()]
        #: (raw seconds, index of the kernel run opening the block)
        self.blocks: list[tuple[float, int]] = []

    def reopen(self) -> None:
        """Take a fresh opening calibration (after untimed work, such
        as output checks, ran since the last block closed)."""
        self.samples.append(calib_seconds())

    def close(self, raw_s: float) -> int:
        """Close the block of *raw_s* seconds that just ended; returns
        the block's index for :meth:`factor`."""
        self.samples.append(calib_seconds())
        self.blocks.append((raw_s, len(self.samples) - 2))
        return len(self.blocks) - 1

    def factor(self, block: int) -> float:
        """``K_S / calib_s`` of *block*."""
        opening = self.blocks[block][1]
        window = self.samples[max(0, opening - self.WINDOW):
                              opening + 2 + self.WINDOW]
        return K_S / statistics.fmean(window)

    @property
    def raw_s(self) -> float:
        return sum(raw for raw, _ in self.blocks)

    @property
    def ref_s(self) -> float:
        return sum(raw * self.factor(i)
                   for i, (raw, _) in enumerate(self.blocks))

    @property
    def calib_s(self) -> float:
        """Median raw kernel time over the clock's life."""
        return statistics.median(self.samples)
