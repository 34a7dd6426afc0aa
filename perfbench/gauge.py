"""Host-speed gauge: a fixed piece of pure-Python work, timed now and then
between the benchmark's engine calls, so that the engine times can be
scaled to one host speed.

A virtual machine that shares its host with other tenants runs slower
while they are busy, by up to half for tens of seconds at a time, and every
engine call slows with it.  The gauge's work is fixed and belongs to the
benchmark, not to the program, so a change to the program leaves it alone
while a change in host speed moves it with the engine calls around it.  It
is made to resemble the program's own work: Duval's Lyndon factorization
of a fixed word (string slicing and comparison), counting in a dict, and
building and sorting 20000 small tuples, a working set of a few MB, about
15 ms in all on a calm host.  On a 2-vCPU VM where the mean engine time of
10-second windows swung by +-22%, engine time divided by gauge time stayed
within +-5%; a bare arithmetic loop tracked only half as well.
"""

from __future__ import annotations

import gc
import random
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# Reported times are scaled to a host on which one gauge reading takes
# this long (about the calm speed of a 2-vCPU Xeon VM at 2.1 GHz).
REFERENCE_S = 0.015
INTERVAL_S = 0.5
# A call is scaled by the readings taken within this many seconds of its
# start.  Host speed changes within seconds, so a wider window tracks it
# worse; single readings scatter, so a narrower one is noisier.
WINDOW_S = 1.0
WARM_UP_READINGS = 2


def _lyndon_factors(word: str) -> list[str]:
    factors, i, n = [], 0, len(word)
    while i < n:
        j, k = i + 1, i
        while j < n and word[k] <= word[j]:
            k = i if word[k] < word[j] else k + 1
            j += 1
        while i <= k:
            factors.append(word[i:i + j - k])
            i += j - k
    return factors


class Gauge:
    """Readings of the gauge work, taken at most every INTERVAL_S when
    `tick` is called, or at once by `read`.  The collector is off while the
    work runs, so that no collection of the program's heap, whose size is
    the program's affair, falls inside a reading."""

    def __init__(self) -> None:
        self.word = "".join(random.Random(0).choice("abc") for _ in range(3000))
        self.readings: list[tuple[float, float]] = []   # (end time, seconds)
        self._due = 0.0
        for _ in range(WARM_UP_READINGS):
            self._work()
        self.read()

    def _work(self) -> None:
        counts: dict[str, int] = {}
        for shift in range(3):
            for factor in _lyndon_factors(self.word[shift:] + self.word[:shift]):
                counts[factor] = counts.get(factor, 0) + 1
        rows = [(i, str(i), [i]) for i in range(20000)]
        rows.sort(key=lambda row: row[1])

    def read(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._work()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.readings.append((end, end - start))
        self._due = end + INTERVAL_S

    def tick(self) -> None:
        if perf_counter() >= self._due:
            self.read()

    def scales(self, times) -> list[float]:
        """For each time, the factor that scales a call started then to the
        reference host speed: REFERENCE_S over the median of the readings
        within WINDOW_S of it (of all readings, where none is that near)."""
        ends = [t for t, _ in self.readings]
        factors: dict[tuple[int, int], float] = {}
        out = []
        for time in times:
            near = (bisect_left(ends, time - WINDOW_S), bisect_right(ends, time + WINDOW_S))
            if near not in factors:
                readings = [s for _, s in self.readings[near[0]:near[1]]]
                factors[near] = REFERENCE_S / statistics.median(
                    readings or [s for _, s in self.readings])
            out.append(factors[near])
        return out

    def summary(self) -> dict:
        times = [s for _, s in self.readings]
        return {"reference_s": REFERENCE_S, "readings": len(times),
                "median_s": statistics.median(times), "min_s": min(times),
                "max_s": max(times)}
