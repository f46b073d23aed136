"""Host-speed probe that samples inside a timed region on a timer signal.

On a shared virtual machine the benchmark's processor switches, about
once a second, between running at full speed and running up to 1.7x
slower, and the share of slow time drifts over minutes.  Steal time stays
0 and CPU time equals wall time, so no clock tells the slowdown apart
from the program's own time.  A probe therefore runs inside the timed
region: every PERIOD_S of wall time a SIGALRM handler runs a fixed piece
of interpreted work twice, the first time to warm the caches and the
second time timed.  The timed runs sample the speed the measured code had
at the same moments.

``SpeedProbe.scaled(wall_s)`` takes the handler's own time out of the wall
time and rescales it to a host on which the timed work takes PROBE_S:
``(wall_s - time in the handler) * PROBE_S / harmonic mean of the timed
runs``.  The harmonic mean, because the code's progress per second is
proportional to 1 / probe time.  A slower program raises the scaled time
as it raises the wall time; a slow phase of the host slows the program
and the probe alike and cancels.

The probe imports nothing beyond ``signal`` and ``time`` and touches no
library or numpy code, so it can time an import as well as a job.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# About the time of a timed probe run inside a job on a 2-vCPU Intel Xeon
# virtual machine (Python 3.11.7) at full speed, so that scaled times are
# close to the wall times of that machine when nothing slows it.
PROBE_S = 3e-5
_OPERANDS = tuple(range(64))


def _work() -> int:
    acc = 0
    slots = {}
    for r in range(6):
        for i in _OPERANDS:
            acc += (i * r) % 7
            slots[i & 15] = acc
    return acc


class SpeedProbe:
    """Samples the host's speed every PERIOD_S between start() and stop()."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        _work()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent_s += t2 - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling; call it after reading the clock that ends the region."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # A region shorter than PERIOD_S gets one sample, taken just
            # after it and so not part of its wall time.
            self._sample(signal.SIGALRM, None)
            self.spent_s = 0.0

    def probe_s(self) -> float:
        """Harmonic mean of the timed probe runs."""
        return len(self.samples) / sum(1.0 / s for s in self.samples)

    def scaled(self, wall_s: float) -> float:
        """wall_s without the probe's own time, at the reference speed."""
        return (wall_s - self.spent_s) * PROBE_S / self.probe_s()
