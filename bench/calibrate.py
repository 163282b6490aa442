"""Machine-speed calibration for timings taken on a shared, noisy host.

On the 2-core VM this benchmark was written on, the same op ran 1.6x
slower for stretches of about a second whenever neighbours were busy, so
raw percentiles moved by 25-50% between runs of the same code. A short
fixed loop of the same kind of work as the library's inner loops (dict
updates keyed by small tuples, complex arithmetic) slows down in step:
over one minute an op's raw time ranged 12.7-22.0 ms while its ratio to
this loop stayed within 10.8-11.3.

The benchmark therefore samples this loop between ops, never inside a
timed region, and reports each time scaled to a machine on which the
loop takes NOMINAL_S (about its quiet-state duration on that VM). The
loop shares no code with fockjoin, so a change to the library cannot
move it; raw times are kept in the run's info record.
"""
from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

NOMINAL_S = 0.5e-3
# Take a sample before an op once this long has passed since the last one.
INTERVAL_S = 0.02
# Samples on each side of an op used to scale it.
NEIGHBOURS = 2


def _loop() -> int:
    table: dict = {}
    for i in range(1500):
        key = (i % 7, i % 5, i % 3, i % 11)
        table[key] = table.get(key, 0j) + 0.5j * i
    return len(table)


def sample() -> tuple[float, float]:
    """(midpoint, duration) of one calibration loop, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop()
        end = perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (start + end) / 2, end - start


def scale(durations) -> float:
    """Factor taking a time measured at the speed these samples show to NOMINAL_S speed."""
    return NOMINAL_S / statistics.median(durations)


class Calibration:
    """Samples taken between ops; scales each op by the samples nearest to it."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def maybe_sample(self):
        if self.times and perf_counter() - self.times[-1] < INTERVAL_S:
            return
        mid, duration = sample()
        self.times.append(mid)
        self.durations.append(duration)

    def scale_at(self, start: float, end: float) -> float:
        i = bisect.bisect_left(self.times, (start + end) / 2)
        near = self.durations[max(0, i - NEIGHBOURS) : i + NEIGHBOURS]
        return scale(near)
