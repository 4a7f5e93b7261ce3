"""Host speed reference for the benchmark's timings.

On a shared host the speed of a vCPU changes by up to ~1.5x, in episodes of
tens of seconds to minutes, presumably as other tenants load the cores.  A
run that lands in a slow episode reads slower for reasons the program does
not control, and a median over a run cannot remove episodes that last as
long as the run.  So the benchmark measures the host's speed while the
program runs and scales each timing to a fixed reference speed:

    scaled = measured * NOMINAL_S / kernel_s

where kernel_s is the mean time of a fixed pure-Python kernel sampled
during the measured interval, and NOMINAL_S is that kernel's time on the
reference host.  The kernel uses no codecensus code, so a change to the
program does not move it; it mixes interpreter-bound small-int work (the
block-lattice loops) with big-int multiplication and shift/xor (gf2poly and
the convolutions), because a slow episode slows the two by different
amounts.

Inside a worker, Sampler runs the kernel from a SIGALRM handler every
INTERVAL_S of wall time, and keeps the kernel's times and the total time
spent in the handler, which its clock() and cpu() leave out.
"""

from __future__ import annotations

import resource
import signal
import time

# About the typical kernel time on a 2-vCPU Intel Xeon VM with Python
# 3.11.7.  Only ratios to it matter; it makes scaled timings read as
# seconds on that host.
NOMINAL_S = 0.001
INTERVAL_S = 0.05

_MASK = (1 << 4096) - 1
_SEED = pow(3, 2500)


def kernel() -> int:
    """A fixed amount of work, ~1 ms on the reference host."""
    acc = 0
    table = [0] * 64
    for i in range(2500):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 63] += i
    x = _SEED
    for _ in range(40):
        x = (x * x) & _MASK
        x ^= x >> 7
    return acc + table[5] + (x & 1)


def measure(repeats: int = 20) -> float:
    """Mean kernel time over a short burst, for timings taken outside a
    worker (the set-up probes)."""
    start = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - start) / repeats


class Sampler:
    """Samples the kernel every INTERVAL_S of wall time inside a `with`
    block, and once on entry and on exit.  clock() and cpu() leave out the
    time of the timer-driven samples."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0  # time spent in timer-driven samples

    def _sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self.handler_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def clock(self) -> float:
        """Wall time, less the time spent in samples."""
        return time.perf_counter() - self.handler_s

    def cpu(self) -> float:
        """User + sys CPU time of this process, less the time spent in samples."""
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime - self.handler_s

    def kernel_s(self) -> float:
        return sum(self.samples) / len(self.samples)
