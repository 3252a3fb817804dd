"""Host-speed reference: rescales measured times to one nominal machine speed.

The benchmark runs on a shared virtual machine whose speed swings between
about 1x and 2x from one tenth of a second to the next (neighbours on the
host compete for its cores, caches and memory bandwidth), so raw times of
the same code spread more from run to run than any useful bound.  A fixed
computation that does not depend on qtheta -- one product of two
100 000-bit Python integers; big-integer products tracked the drift of
every workload better than interpreter loops did -- is timed in a burst
every `EVERY_S` seconds of wall time, from a SIGALRM interval timer in the
process that runs the jobs, so the samples are spread evenly over time
and also fall inside long jobs.

A burst of duration d gives the factor f = REFERENCE_S / d; between two
bursts f is taken as the mean of their factors.  A stretch of time t then
counts as t * f: the time it would have taken on a host where one burst
takes REFERENCE_S.  The bursts' own time is left out of every interval
before it is rescaled.  A change to qtheta that makes it faster makes the
rescaled times smaller in proportion; the reference is outside qtheta and
cannot be made faster by it.
"""

from __future__ import annotations

import random
import signal
import time

from spans import now

REFERENCE_S = 0.004  # nominal duration of one burst
EVERY_S = 0.05  # wall time between bursts (a burst takes about a tenth of it)
_A = random.Random(1).getrandbits(100_000) | 1
_B = random.Random(2).getrandbits(100_000) | 1


class SpeedLog:
    """The bursts one process ran, as [start, end, cpu seconds]."""

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.bursts: list[list[float]] = []
        self.paused = 0.0  # wall time spent in bursts, ever
        _A * _B  # noqa: B018  (warm-up: the first product of a process is slower)

    def burst(self) -> None:
        c0 = time.process_time()
        t0 = now()
        _A * _B  # noqa: B018  (timed for its cost only)
        t1 = now()
        self.paused += t1 - t0
        self.bursts.append([t0, t1, time.process_time() - c0])

    def clock(self) -> float:
        """A clock that stands still while a burst runs (for span timing)."""
        return now() - self.paused

    def start(self) -> None:
        """Run a burst every `every` seconds from now on, until `stop`."""
        busy = [False]

        def on_alarm(signum, frame):
            if not busy[0]:  # a burst the timer overtook is not nested
                busy[0] = True
                try:
                    self.burst()
                finally:
                    busy[0] = False

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def segments(bursts) -> list[tuple[float, float, float]]:
    """(start, end, factor) of the stretches between consecutive bursts.

    The stretches before the first and after the last burst take the
    factor of that burst.
    """
    bursts = sorted(bursts)
    if not bursts:
        raise ValueError("no speed reference bursts")
    factor = [REFERENCE_S / (end - start) for start, end, _ in bursts]
    inf = float("inf")
    out = [(-inf, bursts[0][0], factor[0])]
    for i in range(len(bursts) - 1):
        out.append((bursts[i][1], bursts[i + 1][0], (factor[i] + factor[i + 1]) / 2))
    out.append((bursts[-1][1], inf, factor[-1]))
    return out


def scaled(segs, start: float, end: float) -> float:
    """The interval [start, end] rescaled to the nominal speed; burst time
    inside it is left out."""
    total = 0.0
    for s0, s1, f in segs:
        lo, hi = max(s0, start), min(s1, end)
        if hi > lo:
            total += (hi - lo) * f
    return total


def burst_time(bursts, start: float, end: float) -> float:
    """Wall time of the bursts that falls inside [start, end]."""
    return sum(max(0.0, min(b1, end) - max(b0, start)) for b0, b1, _ in bursts)
