"""The shared bench driver: the :class:`Suite` record plus everything
every suite shares — the timing loop, the capture envelope, calibration,
the rescaled wall gate and ``--write`` with history preserved (see the
package docstring and DESIGN.md §8).
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# src/repro/bench/harness.py -> repo root / benchmarks
SNAPSHOT_DIR = Path(__file__).resolve().parents[3] / "benchmarks"

# Calibration scaling is clamped so a wildly mis-measured calibration can
# not silently absorb a real regression (or invent one).
CALIBRATION_SCALE_BOUNDS = (0.2, 5.0)

# The host keys that name the fluid solver backend (see solver_backend).
_BACKEND = ("waterfill", "coalesce")

# A gate sees the fresh capture and the committed snapshot and returns
# its violations (empty = pass).
Gate = Callable[[Dict, Dict], List[str]]

# A table column: its header and the cell text for one run entry (given
# every run, so a column can compare against a baseline run).
Column = Tuple[str, Callable[[Dict, Dict], str]]


@dataclasses.dataclass(frozen=True)
class Suite:
    """One registered benchmark suite.

    ``measure(spec, runs, **options)`` times one config and returns its
    ``runs`` entry; ``config(configs, runs, **options)`` builds the
    capture's ``config`` block; ``columns`` render one table row per run.
    ``runs`` holds the default sample counts ``(full, quick)``.
    ``options`` names the ``repro bench`` arguments forwarded to
    ``measure``/``config`` (the runtime suite's ``dtype``).

    ``wall`` selects the suite-level wall-time record: ``""`` records
    none; ``"wall_s"`` times the whole sweep; ``"parallel"`` fans the
    independent configs out over worker processes and records the
    multi-config scaling.  Suites that record wall time also record the
    host's cpu count.  ``warmup`` runs once, untimed, before the sweep.
    """

    name: str
    summary: str
    schema: str
    path: Path
    full: Tuple
    quick: Tuple
    runs: Tuple[int, int]
    measure: Callable[..., Dict]
    config: Callable[..., Dict]
    columns: Tuple[Column, ...]
    gates: Tuple[Gate, ...] = ()
    options: Tuple[str, ...] = ()
    wall: str = ""
    warmup: Optional[Callable[[], None]] = None

    def capture(
        self,
        quick: bool = False,
        configs: Optional[Sequence] = None,
        runs: Optional[int] = None,
        jobs: Optional[int] = None,
        calibration: Optional[float] = None,
        **options,
    ) -> Dict:
        """Time every config and assemble the capture envelope.

        ``configs`` overrides the full/quick selection; ``runs`` overrides
        the default sample count; ``jobs`` (``"parallel"`` suites only,
        default: every available cpu) caps the worker processes.  Each
        config's entry carries its own ``calibration_s``, sampled beside
        its timed runs (see :func:`sample`); the capture-level one, taken
        after the sweep, only serves snapshots that predate it.
        """
        if configs is None:
            configs = self.quick if quick else self.full
        if runs is None:
            runs = self.runs[1 if quick else 0]
        jobs = (
            max(1, min(jobs or cpu_count(), len(configs)))
            if self.wall == "parallel"
            else 1
        )
        if self.warmup is not None:
            self.warmup()
        start = time.perf_counter()
        entries = fan_out(
            functools.partial(_measure, self.name, runs, options),
            configs, jobs,
        )
        wall_s = time.perf_counter() - start
        host = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            **solver_backend(),
        }
        if self.wall:
            host["cpus"] = cpu_count()
        current = {
            "schema": self.schema,
            "config": self.config(configs, runs, **options),
            "calibration_s": (
                calibrate() if calibration is None else calibration
            ),
            "host": host,
            "runs": {spec.key: entry for spec, entry in zip(configs, entries)},
        }
        if self.wall == "wall_s":
            current["wall_s"] = wall_s
        elif self.wall == "parallel":
            serial_s = sum(sum(entry["samples"]) for entry in entries)
            current["parallel"] = {
                "jobs": jobs,
                "sum_of_samples_s": serial_s,
                "wall_s": wall_s,
                "speedup": serial_s / wall_s if wall_s > 0 else 0.0,
            }
        return current

    def check(self, current: Dict, snapshot: Dict,
              tolerance: float = 0.25) -> List[str]:
        """The suite's structural gates, then the rescaled wall gate."""
        problems = [
            problem for gate in self.gates
            for problem in gate(current, snapshot)
        ]
        return problems + check_snapshot(current, snapshot, tolerance)

    def describe(self, current: Dict) -> str:
        """One table row per run, then the shared envelope footer."""
        runs = current.get("runs", {})
        rows = [["config"] + [header for header, _ in self.columns]]
        rows += [
            [key] + [cell(entry, runs) for _, cell in self.columns]
            for key, entry in runs.items()
        ]
        widths = [max(len(text) for text in column) for column in zip(*rows)]
        lines = [
            " ".join(
                text.rjust(width) if index else text.ljust(width)
                for index, (text, width) in enumerate(zip(row, widths))
            )
            for row in rows
        ]
        lines.insert(1, "-" * len(lines[0]))
        parallel = current.get("parallel")
        if parallel:
            lines.append(
                f"parallel: {parallel['jobs']} worker(s), "
                f"{parallel['sum_of_samples_s']:.2f} s of runs in "
                f"{parallel['wall_s']:.2f} s wall "
                f"({parallel['speedup']:.2f}x scaling)"
            )
        footer = f"calibration: {current.get('calibration_s', 0.0) * 1e3:.1f} ms"
        cpus = current.get("host", {}).get("cpus")
        if cpus:
            footer += f" (host {cpus} cpu(s))"
        if "wall_s" in current:
            footer += f"; suite wall {current['wall_s']:.1f} s"
        dtype = current.get("config", {}).get("dtype")
        if dtype:
            footer = f"dtype: {dtype}  {footer}"
        lines.append(footer)
        return "\n".join(lines)


def _measure(name: str, runs: int, options: Dict, spec) -> Dict:
    # Module-level (and looked up by name) so a process pool can pickle it.
    from . import SUITES

    return SUITES[name].measure(spec, runs, **options)


def fan_out(fn: Callable, items: Sequence, jobs: int = 1) -> List:
    """``[fn(item) for item in items]``, spread over ``jobs`` worker
    processes when ``jobs > 1``; results keep the input order."""
    items = list(items)
    jobs = max(1, min(int(jobs), len(items)))
    if jobs == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def sample(runs: int, body: Callable, setup: Callable = lambda: None,
           per: int = 1):
    """Time ``runs`` calls of ``body(setup())``; only ``body`` is timed.

    Returns ``(timing, last result)`` where ``timing`` holds the median,
    best and raw samples, each divided by ``per`` (work units per call),
    and ``calibration_s``: the median of one :func:`calibrate` before the
    first call and one after each, i.e. the host's speed while these
    calls ran.  A shared host's speed swings within seconds, so a
    calibration taken once for the whole sweep cannot rescale every
    config fairly.
    """
    samples: List[float] = []
    speeds = [calibrate()]
    result = None
    for _ in range(runs):
        state = setup()
        start = time.perf_counter()
        result = body(state)
        samples.append((time.perf_counter() - start) / per)
        speeds.append(calibrate())
    timing = {
        "median_s": statistics.median(samples),
        "best_s": min(samples),
        "samples": [round(value, 6) for value in samples],
        "calibration_s": statistics.median(speeds),
    }
    return timing, result


def beats(runs: Dict, fast: str, slow: str, metric: str) -> List[str]:
    """Structural ordering: run ``fast`` must be strictly lower than run
    ``slow`` on ``metric`` (a simulated-time fact, so host-independent)."""
    mine, theirs = runs[fast][metric], runs[slow][metric]
    if mine < theirs:
        return []
    return [f"{fast}: {metric} {mine:.6g} does not beat {slow} ({theirs:.6g})"]


def column(header: str, field: str, spec: str, scale: float = 1) -> Column:
    """A column showing ``entry[field] * scale`` in format ``spec``."""
    return header, lambda entry, runs: format(entry[field] * scale, spec)


def ratio(entry: Dict, base: Dict, field: str) -> str:
    """``entry[field]`` over the baseline run's, as ``1.23x``."""
    if not base or not base[field]:
        return "-"
    return f"{entry[field] / base[field]:.2f}x"


def rate(count: float, timing: Dict) -> float:
    """``count`` per median second (0 when the median is zero)."""
    median = timing["median_s"]
    return count / median if median > 0 else 0.0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _calibration_workload() -> float:
    """Fixed kernel-shaped work: heap churn plus small numpy passes."""
    heap: list = []
    for i in range(20000):
        heapq.heappush(heap, ((i * 2654435761) & 0xFFFF, i))
    while heap:
        heapq.heappop(heap)
    acc = 0.0
    values = np.arange(2048, dtype=float)
    for _ in range(200):
        values = values * 1.0000001
        acc += float(values[:512].sum())
    return acc


def calibrate(repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time of the calibration workload.

    Wall-clock numbers are machine-dependent, so every capture stores
    this measurement; rescaling committed medians by the calibration
    ratio keeps the gate meaningful on runners faster or slower than the
    machine that wrote the snapshot.
    """
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        _calibration_workload()
        best = min(best, time.perf_counter() - start)
    return best


def solver_backend() -> Dict:
    """The fluid solver a capture ran on: the compiled kernels or the
    numpy fallback (``waterfill``), and the ledger's default row
    coalescing (``coalesce``).  The two backends are bit-identical in
    simulated time but far apart in host time."""
    from ..netsim import FluidNetwork, _waterfill

    default = inspect.signature(FluidNetwork).parameters["coalesce"].default
    return {
        "waterfill": "python" if _waterfill.kernel() is None else "compiled",
        "coalesce": default,
    }


def _backend_mismatch(current: Dict, snapshot: Dict) -> List[str]:
    """One problem line when the captures ran different solver backends
    (empty when they agree or either predates the record)."""
    mine = {key: current.get("host", {}).get(key) for key in _BACKEND}
    theirs = {key: snapshot.get("host", {}).get(key) for key in _BACKEND}
    if None in mine.values() or None in theirs.values() or mine == theirs:
        return []

    def text(backend):
        return ", ".join(f"{key}={backend[key]}" for key in _BACKEND)

    return [
        f"solver backend {text(mine)} differs from the snapshot's "
        f"({text(theirs)}): wall medians not compared"
    ]


def calibration_scale(current: Dict, snapshot: Dict) -> float:
    """Current host speed over snapshot host speed, clamped (1.0 when
    either side lacks a calibration).  Works on two captures or on two
    config entries (each entry carries its own ``calibration_s``)."""
    snap_cal = snapshot.get("calibration_s")
    cur_cal = current.get("calibration_s")
    if not (snap_cal and cur_cal):
        return 1.0
    low, high = CALIBRATION_SCALE_BOUNDS
    return min(max(cur_cal / snap_cal, low), high)


def config_scale(current: Dict, snapshot: Dict, key: str) -> float:
    """Calibration scale for config ``key``: the ratio of the two
    calibrations sampled beside its runs, or the capture-level one when
    either capture predates per-config calibration."""
    entry = current["runs"][key]
    committed = snapshot.get("runs", {}).get(key, {})
    if entry.get("calibration_s") and committed.get("calibration_s"):
        return calibration_scale(entry, committed)
    return calibration_scale(current, snapshot)


def check_snapshot(
    current: Dict, snapshot: Dict, tolerance: float = 0.25
) -> List[str]:
    """Wall gate: fresh medians vs the committed snapshot.

    Each committed median is rescaled by its config's
    :func:`config_scale` so the gate compares simulator efficiency rather
    than raw machine speed.  Configs the current capture did not run
    (``--quick``) are skipped; configs the snapshot lacks are reported.
    Captures on different solver backends are not compared at all.
    """
    mismatch = _backend_mismatch(current, snapshot)
    if mismatch:
        return mismatch
    problems = []
    snap_runs = snapshot.get("runs", {})
    band = 1.0 + tolerance
    for key, entry in sorted(current.get("runs", {}).items()):
        if key not in snap_runs:
            problems.append(f"{key}: not in committed snapshot (run --write)")
            continue
        committed = snap_runs[key]["median_s"]
        scale = config_scale(current, snapshot, key)
        if entry["median_s"] > committed * scale * band:
            problems.append(
                f"{key}: median {entry['median_s'] * 1e3:.1f} ms vs allowed "
                f"{committed * scale * band * 1e3:.1f} ms "
                f"(snapshot {committed * 1e3:.1f} ms "
                f"x calibration {scale:.2f} x band {band:.2f})"
            )
    return problems


def write_snapshot(path: Path, current: Dict) -> Dict:
    """Write ``current`` to ``path``, preserving any existing history.

    The ``history`` list is the wall-clock perf trajectory: each entry is
    a labelled prior capture.  It is never rewritten by ``--write`` —
    append entries deliberately when a perf milestone lands.
    """
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text()).get("history", [])
        except (ValueError, OSError):
            history = []
    payload = dict(current)
    payload["history"] = history
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload
