"""Host-speed probe: times on a shared host, scaled to a reference speed.

The benchmark runs on a VM that shares its physical cores.  How fast the
same pure-Python code runs there drifts with the load of the other guests:
a fixed loop was measured at anywhere from 0.13 s to 0.24 s per call within
90 s, and the drift is not steal time (the process's CPU time grows with it).
A median over a whole run inherits that drift.

So while a repetition runs, a SIGALRM interval timer interrupts it every
PERIOD_S seconds and runs one *slice*: a fixed piece of pure-Python work
(integer arithmetic, bit counts, dict and list updates, like the package's
own GF(2) code).  Each slice's CPU time on the main thread is recorded, so
threads waiting for the GIL do not count.  An operation that took T seconds
of wall time, less the slices run inside it, is then reported as

    T * REF_SLICE_S / (mean slice time in and around the operation)

that is, in seconds at the speed at which a slice takes REF_SLICE_S.  A
change to the program moves these times as it moves wall time; a change of
the host's speed mostly cancels out (perfbench/README.md gives how far).
The slices are the benchmark's own code and never call into the package.
Set-up time is not scaled: it reacts to the host's load much less than a
slice does, so scaling it would add more drift than it removes.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02  # one slice every 20 ms of wall time
WINDOW_S = 0.1  # slices this close to an operation also describe its speed
REF_SLICE_S = 5e-4  # the speed the times are scaled to: a slice in 0.5 ms

_TABLE = list(range(1024))


def run_slice() -> float:
    """Run one slice; return the CPU time it took on this thread."""
    c0 = time.thread_time()
    acc, seen, table = 0x9E3779B9, {}, _TABLE
    for i in range(1300):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        k = acc >> 22
        seen[k] = seen.get(k, 0) + (acc & 0xFFFF).bit_count()
        table[k] ^= i
    return time.thread_time() - c0


class Probe:
    """Runs a slice every PERIOD_S seconds between start() and stop()."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, cpu s)
        self._old = None

    def _tick(self, _signum, _frame):
        t = time.perf_counter()
        self.samples.append((t, run_slice()))

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1], less its slices, at the reference speed."""
        inside = [c for t, c in self.samples if t0 <= t < t1]
        near = [c for t, c in self.samples if t0 - WINDOW_S <= t < t1 + WINDOW_S]
        if not near:
            raise RuntimeError("no host-speed sample near an operation")
        return (t1 - t0 - sum(inside)) * REF_SLICE_S / statistics.fmean(near)

    def slice_s(self) -> float:
        """Median slice time over the whole repetition."""
        return statistics.median(c for _, c in self.samples)
