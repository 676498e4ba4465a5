"""CPU speed probe that puts the benchmark's timings on a common scale.

On a shared virtual machine the vCPU's speed drifts by up to 1.8x over
seconds to minutes as other tenants load the host, which swamps most
changes to lpwp. The probe times a fixed pure-Python loop. Its samples give
the speed the machine ran at, relative to an uncontended vCPU (2.1 GHz Xeon,
CPython 3.11), and a time multiplied by that speed is the time the same
work would take on the uncontended machine. The loop is fixed code, so no
change to lpwp can move it.
"""

import signal
import statistics
import time

INTERVAL_S = 0.01
# Duration of one sample on an uncontended vCPU, taken inside running code
# whose data fill the caches.
NOMINAL_S = 45e-6


def _work():
    table = {}
    for i in range(400):
        key = i % 61
        table[key] = table.get(key, 0) + i * 3


def _sample():
    began = time.perf_counter()
    _work()
    return time.perf_counter() - began


class SpeedProbe:
    """Samples the speed every 10 ms of wall time on a timer signal.

    Used as a context manager around a timed region. The handler runs
    between bytecodes of whatever lpwp is doing, so the samples spread
    evenly over the region's wall time.
    """

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        self.samples.append(_sample())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self) -> float:
        """Mean speed over the region, relative to nominal."""
        if not self.samples:
            return 1.0
        return statistics.fmean(NOMINAL_S / s for s in self.samples)

    def nominal_seconds(self, elapsed) -> float:
        """``elapsed`` wall seconds, less the probe's own time, at nominal speed."""
        return (elapsed - sum(self.samples)) * self.speed()
