"""Machine-speed probe for a shared host.

Other tenants of a shared host (2 vCPUs of an Intel Xeon at 2.1 GHz)
switched it between a fast and a slow state that lasted for minutes: the same ``cli_verify`` iteration took 0.8 s in one
and 1.2 s in the other.  No statistic over a run's iterations removes
that, so every timing is also divided by the speed of a fixed kernel
measured at the same moments, and reported in nominal seconds: the time
the work would take if the kernel ran in ``NOMINAL_S``.  Over ten seeds
this cut the spread between runs (interquartile range over median) of
the wall time from 13% to 9% on ``sweep_r3``, 23% to 9% on ``promotion``
and 21% to 3% on ``cli_verify``.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median kernel time in the fast state on a 2-vCPU Intel Xeon at 2.1 GHz
# with Python 3.11.7; it defines the nominal second.
NOMINAL_S = 0.0006
INTERVAL_S = 0.05
_EDGE_SAMPLES = 3


def kernel() -> int:
    """Fixed pure-Python work: tuple keys, dict lookups, integer arithmetic."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(3000):
        key = (i & 255, i % 7)
        total += table.get(key, 0)
        table[key] = total & 0xFFFF
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """How much slower than nominal the machine ran while the samples were taken."""
    return statistics.median(samples) / NOMINAL_S


class Sampler:
    """Times the kernel every INTERVAL_S from a SIGALRM handler while the
    block runs, and a few times on entry, so even a short block has
    samples.  The handler runs between bytecodes of the main thread; its
    cost, about 1.2% of the block, stays in the block's time."""

    def __enter__(self) -> "Sampler":
        self.samples = [time_kernel() for _ in range(_EDGE_SAMPLES)]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_kernel())
