"""Scale CPU times to a reference speed, so a host whose speed shifts reads steady.

On shared 2-core hosts the CPU time of one fixed computation was seen to
switch between two levels about 2x apart every few seconds, in step for
every pure-Python workload.  So while ops run, a profiling interval timer
interrupts the process every ``EVERY_S`` seconds of its CPU time, inside an
op or between two, to run a fixed reference computation that does not
touch multspec.  Each sample gives a factor ``REF_S / r``, ``r`` being the
CPU time the reference took.  An op's CPU time, less the time spent on
samples (``net_clock``), is multiplied by the mean factor of the samples
from the last one before the op to the first one after it.  The result
reads as CPU seconds on a machine that runs the reference in ``REF_S``
seconds.  A change to the program moves it in full; a change of host speed
that slows the program and the reference alike cancels out.
"""

from __future__ import annotations

import signal
import time

CLOCK = time.process_time  # CPU time of this process: the one client runs on one thread
REF_S = 0.05  # reference speed: the reference computation takes this many CPU seconds
EVERY_S = 0.4  # CPU seconds between two reference samples
_P = 2**31 - 1
REFERENCE_VALUE = 603454910  # what reference_work returns

_spent = 0.0  # CPU seconds spent on reference samples in this process


def reference_work() -> int:
    """Fixed pure-Python work shaped like multspec's: sparse dict polynomials over GF(p) and big integers."""
    a = {(i, j): (i * 7919 + j * 104729) ** 3 for i in range(16) for j in range(16)}
    out = {}
    for (i, j), c in a.items():
        for (k, l), e in a.items():
            key = (i + k, j + l)
            out[key] = (out.get(key, 0) + c * e) % _P
    return sum(out.values()) % _P


def sample() -> float:
    """CPU seconds of one run of the reference computation."""
    start = CLOCK()
    value = reference_work()
    took = CLOCK() - start
    if value != REFERENCE_VALUE:
        raise RuntimeError("reference computation gave a different value")
    return took


def net_clock() -> float:
    """CPU seconds of this process, less those spent on reference samples."""
    return CLOCK() - _spent


class Gauge:
    """Reference samples every ``EVERY_S`` CPU seconds while the gauge is entered.

    Take ``mark()`` at the start and at the end of an op; after the gauge
    has exited, ``scale(start, end)`` is the op's factor.
    """

    def __init__(self):
        self.factors = []  # REF_S / r of each sample, in order
        self._previous = None

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._take()  # the first sample after the last op
        return False

    def _on_timer(self, _signum, _frame):
        self._take()

    def _take(self):
        global _spent
        start = CLOCK()
        self.factors.append(REF_S / sample())
        _spent += CLOCK() - start

    def mark(self) -> int:
        return len(self.factors)

    def scale(self, start: int, end: int) -> float:
        """Mean factor from the last sample before mark ``start`` to the first one at or after mark ``end``."""
        window = self.factors[start - 1 : end + 1]
        return sum(window) / len(window)
