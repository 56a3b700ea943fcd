"""Host speed, sampled with a fixed pure-Python loop while the work runs.

On a shared VM the same iteration runs up to 20 % faster or slower as the
host's load changes, in phases of seconds; the CPU time of a process moves
with its wall time, so neither removes the drift.  A loop timed only
between operations tracks it poorly: one supplement report runs for two
seconds, and a single short timing is itself noisy.  So a worker runs the
loop from a SIGALRM handler every PERIOD_S of wall time while its
operations run (Sampler), in the same thread, between bytecodes.  Each
operation's seconds, less the handler's own time inside it, are
multiplied by REFERENCE_S / (mean loop time of the samples taken within
WINDOW_S of the operation).  Times are thus given in seconds on a host
where the loop takes REFERENCE_S.  The loop is the benchmark's own code,
so no change to spectop moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

# About the loop's time in the handler on the reference host (a 2.1 GHz
# Xeon vCPU, Python 3.11); any fixed value works, since both sides of a
# comparison are scaled by it.
REFERENCE_S = 0.0005
PERIOD_S = 0.02  # the handler costs about 2 % of the worker's time
WINDOW_S = 0.25  # even a 1 ms operation has a dozen samples around it

clock = time.perf_counter


def _loop() -> int:
    """Dict, tuple, frozenset, sort and big-int work, like spectop's own."""
    table, acc = {}, 0
    for i in range(300):
        key = (i % 23, i * 7919 % 29)
        table[key] = table.get(key, 0) + i
        acc ^= hash(frozenset((i % 13, i % 17, i % 19)))
    for key, value in sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0])):
        acc = (acc * 1_000_003 + value * key[0]) % (2**61 - 1)
    return acc


def loop_seconds() -> float:
    """Median of fifteen timings of the loop."""
    times = []
    for _ in range(15):
        t0 = clock()
        _loop()
        times.append(clock() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Multiplier that turns seconds measured between two loop timings into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)


class Sampler:
    """Times the loop every PERIOD_S while active (a context manager).

    ``samples`` holds (handler start, loop seconds, handler end), one more
    taken on entry and on exit, so no operation is without a neighbour.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = clock()
        _loop()
        loop_s = clock() - start
        self.samples.append((start, loop_s, clock()))

    def __enter__(self) -> Sampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reference(self, t0: float, t1: float) -> tuple[float, float]:
        """(own seconds, reference seconds) of an operation that ran from t0 to t1.

        A handler runs between bytecodes, so each sample lies wholly inside
        the operation or wholly outside it.
        """
        own = (t1 - t0) - sum(end - start for start, _, end in self.samples if t0 <= start < t1)
        near = [s for start, s, _ in self.samples if t0 - WINDOW_S <= start <= t1 + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (t0 + t1) / 2))[1]]
        return own, own * REFERENCE_S / statistics.fmean(near)
