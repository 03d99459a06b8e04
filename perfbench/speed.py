"""Machine-speed normalization for timings taken on a shared, noisy machine.

On the 2-core Xeon VM this benchmark was written on, the speed of a single
thread switches between levels up to 1.7x apart every few seconds (other
tenants), which moved the median of a 30 s run by 20-50% from run to run.
So while a run measures, a SIGALRM handler times a short fixed
pure-Python loop every ``INTERVAL_S``: a sample of the machine's current
speed, taken during the operations themselves.

An operation's reported time is the work it did, in seconds at the speed
where the loop takes ``NOMINAL_S``: its wall time minus the handler's own
time, times the mean of ``NOMINAL_S / loop time`` over the samples taken
while it ran (or the nearest ones, for operations shorter than the
interval).  Raw medians are reported alongside in the run's detail line.
Times of numpy-bound operations (the int64 oracle kernel) track the loop
less closely than interpreter-bound ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Typical duration of calibration_loop() on the machine above; fixes the
# unit of normalized times, so it never changes once baselines exist.
NOMINAL_S = 0.0003
INTERVAL_S = 0.02


def calibration_loop() -> None:
    """Fixed interpreter work: integer arithmetic, dict and list traffic."""
    acc, table, items = 0, {}, []
    for i in range(600):
        acc = (acc * 31 + i) % 1000003
        table[acc % 251] = table.get(acc % 251, 0) + 1
        items.append(acc)
    items.sort()


class SpeedSampler:
    """Context manager: speed samples every ``INTERVAL_S`` while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        # untimed first pass: the interrupted operation (a numpy sweep over
        # megabytes, say) leaves caches cold, which is not a speed change
        calibration_loop()
        t0 = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - t0)
        self.spent.append(end - start)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rate(self, start: float, end: float) -> tuple[float, float]:
        """(mean NOMINAL_S / loop time, handler seconds) for the
        ``perf_counter`` interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        near = self.durations[lo:hi] if hi - lo >= 2 else self.durations[max(lo - 1, 0) : hi + 1]
        if not near:
            self._sample()
            near = self.durations[-1:]
        return statistics.fmean(NOMINAL_S / d for d in near), sum(self.spent[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """Normalized seconds of the work done in [start, end]."""
        rate, handler_s = self.rate(start, end)
        return (end - start - handler_s) * rate
