"""Host-speed probe: corrects host seconds for contention on a shared host.

On a shared VM the same campaign can take anywhere from 0.6 s to 1.3 s,
because other tenants slow the CPU down in bursts that last from
milliseconds to minutes.  :class:`SpeedProbe` runs a background thread that
wakes every few milliseconds and times a fixed, benchmark-owned spin loop.
The spin's mean duration over an interval measures how slowly the host ran
then, so :meth:`SpeedProbe.seconds` converts an interval's host seconds to
seconds at the reference speed, at which the spin takes
:data:`SPIN_REFERENCE_S`.

The spin holds the interpreter lock for ~0.15 ms every ~10 ms, a constant
few-percent load on the measured work.  It runs the benchmark's own code
only, so no change to the package moves it.
"""

from __future__ import annotations

import bisect
import statistics
import threading
from time import perf_counter
from typing import List

SPIN_STEPS = 1500
#: The spin's median duration on the host the bounds were tuned on (a
#: shared 2-vCPU x86_64 VM, CPython 3.11): corrected seconds read as host
#: seconds there.
SPIN_REFERENCE_S = 146e-6
PERIOD_S = 0.005


def spin() -> int:
    total = 0
    for step in range(SPIN_STEPS):
        total += step * step
    return total


class SpeedProbe:
    """Samples the host's speed in a daemon thread while running."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="perfbench-speed-probe", daemon=True
        )

    def _sample_once(self) -> None:
        start = perf_counter()
        spin()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)  # after its duration: see factor()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample_once()

    def __enter__(self) -> "SpeedProbe":
        self._sample_once()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host's mean speed in ``[start, end]``.

        An interval too short to hold two samples also uses the samples on
        either side of it.
        """
        count = len(self.starts)  # the thread may append meanwhile
        first = bisect.bisect_left(self.starts, start, 0, count)
        last = bisect.bisect_right(self.starts, end, 0, count)
        if last - first < 2:
            first, last = max(0, first - 1), min(count, last + 1)
        return SPIN_REFERENCE_S / statistics.fmean(self.durations[first:last])

    def seconds(self, start: float, end: float) -> float:
        """The interval's host seconds at the reference speed."""
        return (end - start) * self.factor(start, end)
