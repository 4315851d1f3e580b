"""Host-speed scaling of measured times.

A shared host changes speed from second to second: on a 2-vCPU KVM VM a
fixed Python loop flips between about 1.9 and 2.7 ms in spells of one
to ten seconds, with no steal time, so the same cell can take 1.6x as
long in one pass as in the next.  Taking each cell's best repeat does
not remove that: when a run spends most of its time slow, most cells
never see a fast spell.

:class:`Speedometer` measures the host's speed while the workload runs.
A ``SIGALRM`` timer interrupts the program every ``PROBE_INTERVAL_S``
and times ``PROBE_RUNS`` runs of a fixed probe (:func:`probe`).
:meth:`Speedometer.scaled` turns the time between two
:meth:`Speedometer.clock` readings into reference seconds: it removes
the probes' own time, then multiplies by ``REFERENCE_PROBE_S`` over the
median probe time around the interval.
A change to the simulator moves the measured interval and not the
probe, so it shows in full; a host spell slows both and cancels.

Reference seconds are host seconds on a host as fast as one whose
probe takes ``REFERENCE_PROBE_S`` inside a run, which is about what it
takes on the 2-vCPU Xeon VM the benchmark was tuned on.  The probe is
not part of the simulator, so a change to the simulator does not move
it, except through the caches the program leaves it: a change that
made the program's working set much smaller or larger would move the
probe a little the same way and so show slightly less than in full.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
import statistics
import time

import numpy as np

#: Seconds between two probes.
PROBE_INTERVAL_S = 0.02
#: Runs of :func:`probe` timed together by one probe.
PROBE_RUNS = 3
#: Probes within this many seconds of an interval set its speed.
WINDOW_S = 0.25
#: The fewest probes an interval's speed is taken from.
MIN_PROBES = 5
#: Probe time that defines reference speed.
REFERENCE_PROBE_S = 600e-6

_DOCUMENT = {
    "ids": list(range(40)),
    "report": {"rate": 1.5, "name": "probe" * 5, "series": [1.0, 2.0, 3.0]},
}
_BLOB = bytes(range(256)) * 16
_ARRAY = np.arange(256, dtype=float)


def probe() -> int:
    """Fixed work of the kinds a cell does: a JSON round trip, hashing,
    a small numpy expression, and an interpreter loop of arithmetic and
    dict stores.  It frees every container it makes, so it seldom sets
    off the garbage collector; the median over many probes drops those
    that do."""
    for _ in range(3):
        json.loads(json.dumps(_DOCUMENT, sort_keys=True))
        hashlib.sha256(_BLOB).digest()
        float((_ARRAY * 1.5 + 2.0).sum())
    total = 0
    table = {}
    for step in range(300):
        total += step * step
        table[step & 63] = total
    return total


class Speedometer:
    """Periodic host-speed probes while it is started."""

    def __init__(self) -> None:
        self.starts = []  # probe start instants, ascending
        self.durations = []  # probe durations, seconds
        self.probe_s = 0.0  # all probe time so far
        self.busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self.busy:  # a stalled probe outlived the interval
            return
        self.busy = True
        # The first run starts with caches the program has filled, so it
        # feels a co-tenant's pressure on the memory system; the others
        # run warm.  Warm runs alone missed a spell in which the program
        # slowed by 12 %; a cold run alone, or one of two, made too much
        # of such spells on the packet workloads, whose cells fill more
        # of the cache.
        start = time.perf_counter()
        for _ in range(PROBE_RUNS):
            probe()
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.probe_s += duration
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> tuple:
        """A reading to pass to :meth:`scaled`."""
        return time.perf_counter(), self.probe_s

    def probe_median_s(self, begin: float, end: float) -> float:
        """Median probe time within ``WINDOW_S`` of ``[begin, end]``."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, begin - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        while hi - lo < min(MIN_PROBES, n):
            if lo > 0:
                lo -= 1
            if hi < n:
                hi += 1
        return statistics.median(self.durations[lo:hi])

    def scaled(self, begin: tuple, end: tuple) -> float:
        """Reference seconds between two :meth:`clock` readings."""
        host_s = (end[0] - begin[0]) - (end[1] - begin[1])
        if not self.durations:
            return host_s
        return host_s * REFERENCE_PROBE_S / self.probe_median_s(begin[0], end[0])

    def summary(self) -> dict:
        if not self.durations:
            return {"probes": 0}
        probes = sorted(self.durations)
        return {
            "probes": len(probes),
            "probe_us_p10": probes[len(probes) // 10] * 1e6,
            "probe_us_p50": statistics.median(probes) * 1e6,
            "probe_us_p90": probes[len(probes) * 9 // 10] * 1e6,
        }


class Stopwatch:
    """Plain host seconds, for the traced passes: the interface of
    :class:`Speedometer` without probes, so spans hold only the program."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def clock(self) -> tuple:
        return time.perf_counter(), 0.0

    def scaled(self, begin: tuple, end: tuple) -> float:
        return end[0] - begin[0]

    def summary(self) -> dict:
        return {"probes": 0}
