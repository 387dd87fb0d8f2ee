"""A clock that runs at the speed of a fixed reference host.

On a shared machine the same interpreted code runs up to twice as fast
in one minute as in the next: other tenants contend for the cores this
process runs on, and the guest sees no steal time, so wall time and CPU
time swing alike.  ``HostClock`` measures that speed as it goes.  Every
``INTERVAL`` seconds, at the next ``now()`` call, it runs a probe: a
fixed piece of pure-Python work, independent of the program under
test.  The probe's own time is cut out of the timeline, and
``scaled()`` maps probe-free times to reference seconds, in which a
probe always takes ``REFERENCE_PROBE_S``.  A stretch of time that ran
at half speed counts half.

A timing taken this way measures the program's own work, and stays
comparable between two runs however busy the host was in each.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: seconds of probe-free time between probes
INTERVAL = 0.05
#: what the probe takes on the reference host
REFERENCE_PROBE_S = 0.001
#: the probe's work: dict, string, list and integer operations over a
#: small fixed data set, the kind of work interpreted crawler code does
_KEYS = [f"/page-{i}.html?id={i * 7919 % 1000}" for i in range(720)]


def _probe_work() -> int:
    table: dict[str, int] = {}
    parts: list[str] = []
    total = 0
    for key in _KEYS:
        head, _, tail = key.partition("?")
        table[head] = table.get(head, 0) + len(tail)
        parts.append(head[1:5])
        total += hash(tail) & 0xFF
    for key in _KEYS:
        total += table[key.partition("?")[0]]
    return total + len("".join(parts))


class HostClock:
    """Probe-free time, and its mapping to reference seconds."""

    def __init__(self) -> None:
        #: wall seconds spent in probes, cut out of the timeline
        self.paused = 0.0
        #: probe-free time of each probe, and how long it took
        self.probed_at = array("d")
        self.probe_s = array("d")
        self._due = 0.0
        self.probe()

    def probe(self) -> None:
        """Run the probe now and cut its time out of the timeline."""
        started = time.perf_counter()
        _probe_work()
        ended = time.perf_counter()
        self.probed_at.append(started - self.paused)
        self.probe_s.append(ended - started)
        self.paused += ended - started
        self._due = ended + INTERVAL

    def tick(self) -> None:
        """Run a probe if one is due."""
        if time.perf_counter() >= self._due:
            self.probe()

    def now(self) -> float:
        """Probe-free seconds; runs a probe first when one is due."""
        self.tick()
        return time.perf_counter() - self.paused

    def raw(self) -> float:
        """Probe-free seconds, never probing."""
        return time.perf_counter() - self.paused

    def speed(self) -> float:
        """Median host speed so far, as a share of the reference host's."""
        return REFERENCE_PROBE_S / float(np.median(self.probe_s))

    def scaled(self, times) -> np.ndarray:
        """Reference seconds at each of the probe-free ``times``.

        Each stretch between two probes is scaled by how much slower
        than the reference host the probes around it ran (the median
        of three neighbours, so one probe hit by an interrupt does not
        count).  Call ``probe()`` after the last of ``times`` so that a
        probe closes the timeline.
        """
        at = np.frombuffer(self.probed_at, dtype=np.float64)
        took = np.frombuffer(self.probe_s, dtype=np.float64)
        padded = np.concatenate([took[:1], took, took[-1:]])
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, 3), axis=1)
        speed = REFERENCE_PROBE_S / smooth
        reference = np.concatenate(
            [[0.0], np.cumsum(np.diff(at) * (speed[:-1] + speed[1:]) / 2)]
        )
        return np.interp(np.asarray(times, dtype=np.float64), at, reference)
