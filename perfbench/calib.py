"""Host-speed calibration interleaved with the timed work.

Wall-clock time on a small shared host drifts by tens of percent within
seconds: a fixed pure-Python workload alternates between a fast and a
slow state as neighbours load the machine.  A calibration measured once,
before or after the timed work, cannot follow that drift.

:class:`Calibrator` runs a fixed reference workload (the *unit*) on a
helper thread every few milliseconds while the main thread works.  The
benchmark pins the process to one CPU, so both threads share one core
and the GIL hands it back and forth every few milliseconds: each unit
runs in the same machine state as the main-thread work around it.  At
every sample the helper records the main thread's CPU clock and the CPU
seconds the unit took.  The main thread's work between two clock
readings is then converted to units at the local unit speed, and the
sum over an interval is reported as ``units * REFERENCE_UNIT_S`` seconds:
the time the work would take on a host where one unit takes
``REFERENCE_UNIT_S``.  The unit is plain Python (heap, list and integer
work, like the simulator's event loop) and calls nothing in ``repro``,
so a faster program shows up as fewer units.

The correction is good for the simulator workloads (run-to-run spread
about 3% where raw wall time spreads 30%).  The numerical runtime slows
less than the unit in the slow state, and its step time also varies
about 5% between processes in a steady machine state, so numpy-train
stays noisier (about 10%); a NumPy-based unit did no better.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import threading
import time
from typing import List

# Fixed forever: changing it rescales every host-time metric.  It is
# roughly the unit's CPU seconds when it runs alone on a 2.1 GHz Xeon
# (2 vCPU) host.
REFERENCE_UNIT_S = 1.5e-3

# Helper-thread sleep between units, and the number of neighbouring unit
# samples whose median smooths out the per-unit jitter.
_INTERVAL_S = 0.005
_WINDOW = 15


def reference_unit(heap: list, table: list) -> int:
    """The fixed calibration workload: heap churn, list and int work.

    It allocates no container objects (only ints, which the cyclic
    garbage collector does not track), so sampling it does not shift
    when the collector runs in the main thread.
    """
    acc = 0
    for i in range(3000):
        key = (i * 2654435761) & 0xFFFF
        heapq.heappush(heap, key)
        table[key & 255] += 1
        acc += key >> 3
    while heap:
        acc ^= heapq.heappop(heap)
    return acc


class Calibrator:
    """Samples :func:`reference_unit` beside the thread that created it.

    Use as a context manager around the work to calibrate; read the
    main thread's CPU clock with :meth:`clock` before and after each
    piece of work and convert the interval with :meth:`seconds`.
    Several ``with`` sessions may share one calibrator.
    """

    def __init__(self) -> None:
        self._clock_id = time.pthread_getcpuclockid(threading.get_ident())
        self._marks: List[float] = []
        self._units: List[float] = []
        self._smoothed: List[float] = []
        self._stop = threading.Event()
        self._thread = None

    def clock(self) -> float:
        """CPU seconds the calibrated (creating) thread has used so far."""
        return time.clock_gettime(self._clock_id)

    def __enter__(self) -> "Calibrator":
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample, name="calibrator", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._thread = None

    def _sample(self) -> None:
        heap: list = []
        table = [0] * 256
        while not self._stop.is_set():
            start = time.thread_time()
            reference_unit(heap, table)
            unit = time.thread_time() - start
            self._marks.append(self.clock())
            self._units.append(unit)
            self._stop.wait(_INTERVAL_S)

    def unit_seconds(self) -> float:
        """Median CPU seconds of one unit over every sample so far."""
        return statistics.median(self._units)

    def samples(self) -> int:
        return len(self._units)

    def _speeds(self) -> List[float]:
        if len(self._smoothed) != len(self._units):
            units = list(self._units)
            half = _WINDOW // 2
            self._smoothed = [
                statistics.median(units[max(0, i - half):i + half + 1])
                for i in range(len(units))
            ]
        return self._smoothed

    def units(self, start: float, end: float) -> float:
        """Main-thread CPU interval ``[start, end]`` in reference units.

        The unit time measured at sample ``i`` applies to the main-thread
        clock interval ending at that sample's clock reading; work after
        the last sample uses the last unit time.
        """
        if not self._units:
            raise RuntimeError("no calibration samples were taken")
        marks = self._marks[:len(self._units)]
        speeds = self._speeds()
        total = 0.0
        low = start
        index = bisect.bisect_right(marks, start)
        while low < end:
            high = min(marks[index], end) if index < len(marks) else end
            total += (high - low) / speeds[min(index, len(speeds) - 1)]
            low = high
            index += 1
        return total

    def seconds(self, start: float, end: float) -> float:
        """Calibrated host seconds of the main-thread CPU interval."""
        return self.units(start, end) * REFERENCE_UNIT_S
