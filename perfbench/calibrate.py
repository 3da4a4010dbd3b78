"""Machine-speed calibration for timings taken on a shared host.

On a few cores of a shared host the speed of this process changes by
itself: phases of several seconds in which the same code runs 1.5 to
1.8 times slower come and go, with no CPU steal showing.  Two runs of the
same code then differ more in raw wall-clock medians than a regression
bound allows, depending on how much of each run fell into slow phases.

So while a timed phase runs, a SIGALRM handler on the main thread times
a fixed block of work every INTERVAL_S.  The block is benchmark code
only, never agelex code, so no change to the library moves it.  It mixes
NumPy calls on a mid-sized array, tokenizing and counting a text, and a
float loop: of the blocks tried, that mix tracked the drift of all three
workloads best.  Each moment of the phase
gets the factor

    REFERENCE_MS / (median block time over the ticks within SMOOTH_S)

and an operation's time is scaled by the mean factor over its interval,
which gives its time on a machine where the block takes REFERENCE_MS.
Scaling moment by moment, not by one factor per run, is what makes it
work: a run that is a third slow and two thirds fast has a block median
from the fast phase but a latency median from between the two.

work_ns() is a clock that stops while the handler runs, so that the
ticks are left out of the operations and spans they interrupt.  The raw
wall-clock figures are printed next to the scaled ones in the report.
"""
from __future__ import annotations

import bisect
import math
import random
import re
import signal
import statistics
import time

import numpy as np

REFERENCE_MS = 2.0
INTERVAL_S = 0.2
BLOCKS_PER_TICK = 3
SMOOTH_S = 0.5

_VECTOR = np.random.default_rng(0).random(5000)
_WORD = re.compile(r"\w+|[^\w\s]")
_TEXT = " ".join(
    random.Random(0).choice(["Мама", "мыла", "раму,", "кот", "пошёл", "домой.", "Вдруг",
                             "солнце", "светило!", "и", "он", "сказал:"])
    + str(random.Random(i).randrange(3000)) for i in range(1000))


def block() -> float:
    """One fixed unit of calibration work, in three parts of about the
    same length: NumPy calls on a 5000-element array (no BLAS), then
    tokenizing and counting a 1000-word text, then a float loop."""
    total = float(np.argsort(_VECTOR)[0])
    total += len(np.unique((_VECTOR * 50).astype(np.int64)))
    total += float(np.cumsum(_VECTOR)[-1]) + float(_VECTOR[_VECTOR > 0.5].sum())
    counts: dict[str, int] = {}
    for token in _WORD.findall(_TEXT):
        token = token.lower()
        counts[token] = counts.get(token, 0) + 1
    total += len(sorted(counts.items(), key=lambda kv: -kv[1]))
    for i in range(1, 1000):
        total += math.log(i) * math.sqrt(i) / (i + 1.5)
    return total


_busy_ns = 0  # time spent in Sampler ticks so far


def work_ns() -> int:
    """perf_counter_ns with the time spent in calibration ticks left out."""
    return time.perf_counter_ns() - _busy_ns


def time_block() -> float:
    """Wall seconds of one block."""
    start = time.perf_counter()
    block()
    return time.perf_counter() - start


def probe(n: int = 30, warmup: int = 5) -> float:
    """Median block time in ms, measured in a row."""
    for _ in range(warmup):
        block()
    return statistics.median(time_block() for _ in range(n)) * 1000.0


class Sampler:
    """Times BLOCKS_PER_TICK blocks every INTERVAL_S from a SIGALRM
    handler, until stopped, and keeps each tick's median."""

    def __init__(self):
        self.times: list[float] = []
        self.block_ms: list[float] = []
        self._factors: list[float] | None = None
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        global _busy_ns
        start = time.perf_counter_ns()
        blocks = sorted(time_block() for _ in range(BLOCKS_PER_TICK))
        self.times.append(start / 1e9)
        self.block_ms.append(blocks[BLOCKS_PER_TICK // 2] * 1000.0)
        _busy_ns += time.perf_counter_ns() - start

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:  # a phase shorter than INTERVAL_S
            self.times.append(time.perf_counter())
            self.block_ms.append(probe(n=5, warmup=1))

    def factors(self) -> list[float]:
        """Smoothed scale factor at each tick."""
        if self._factors is None:
            self._factors = []
            for t in self.times:
                lo = bisect.bisect_left(self.times, t - SMOOTH_S)
                hi = bisect.bisect_right(self.times, t + SMOOTH_S)
                self._factors.append(REFERENCE_MS / statistics.median(self.block_ms[lo:hi]))
        return self._factors

    def scale(self, start: float, end: float) -> float:
        """Mean scale factor over [start, end]; each tick's factor holds
        from that tick to the next."""
        factors = self.factors()
        i = max(0, bisect.bisect_right(self.times, start) - 1)
        if end <= start or i + 1 >= len(self.times) or self.times[i + 1] >= end:
            return factors[i]
        total, at = 0.0, start
        while i + 1 < len(self.times) and self.times[i + 1] < end:
            total += factors[i] * (self.times[i + 1] - at)
            at = self.times[i + 1]
            i += 1
        total += factors[i] * (end - at)
        return total / (end - start)
