"""Host-speed sampling, so that wall times taken on a shared host compare.

The benchmark's reference machine is a 2-core VM on a shared host.  There
the same single-threaded work runs at speeds up to 1.7x apart from one
second to the next, as the host's other tenants come and go, and the
share of slow seconds drifts over minutes: identical rank_p7 passes took
24-32 s.  No pass is long enough to average that out, so every timed
interval is measured together with the host's speed during it.

A SIGALRM interval timer runs a small fixed probe every PERIOD_S seconds
in the worker's own thread, between two bytecodes of whatever the
workload is doing, so on the CPU the workload is running on at that
moment.  The probe is the inner loop of sparse elimination (dict get,
set and pop on small ints mod p), written here and not taken from modlie,
so that a change to modlie cannot change it.  Samples are evenly spaced
in time, so the mean of REF_PROBE_S / probe time over the samples inside
an interval is the host's mean speed during it, relative to the speed at
which the probe takes REF_PROBE_S.  An interval in reference seconds is
its wall time, less the time the probes took, times that mean speed.
On rank_p7 this took the spread of ten passes (quartile distance over
median) from 0.19 of raw wall time to 0.045.
"""

import bisect
import signal
import time
from array import array

PERIOD_S = 0.05
# Typical probe time on the reference machine (2-core Intel Xeon VM at
# 2.1 GHz, Python 3.11); only a unit, the same for every commit compared.
REF_PROBE_S = 250e-6
# An interval shorter than a few periods takes its speed from the samples
# up to PAD_S before and after it as well.
PAD_S = 0.25

_TAIL = {k: k % 6 + 1 for k in range(0, 2400, 2)}


def _probe():
    row = {}
    for k, v in _TAIL.items():
        y = (row.get(k, 0) - 3 * v) % 7
        if y:
            row[k] = y
        else:
            row.pop(k, None)
    return min(row)


class Sampler:
    """Probe samples (start, duration) of one worker, taken while
    started; intervals are marked with mark() and converted to reference
    seconds once the samples after them exist."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return time.perf_counter(), len(self.at)

    def interval(self, start, end):
        """(wall seconds, host speed, reference seconds) of the interval
        between two marks; wall seconds exclude the probes in it."""
        (t0, i0), (t1, i1) = start, end
        wall = t1 - t0 - sum(self.took[i0:i1])
        lo = bisect.bisect_left(self.at, t0 - PAD_S)
        hi = bisect.bisect_right(self.at, t1 + PAD_S)
        took = self.took[lo:hi]
        if not took:
            raise RuntimeError("no host-speed sample within %.2f s of an "
                               "interval" % PAD_S)
        speed = sum(REF_PROBE_S / d for d in took) / len(took)
        return wall, speed, wall * speed
