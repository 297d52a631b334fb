"""Wall-clock benchmark suites for the simulator and the numerical runtime.

Everything else in the repo measures *simulated* time; this package is the
one place that measures *host* time — how long the simulator itself takes
to run — so hot-path optimizations have a number to move and regressions
have a number to trip on.

Each benchmark is one :class:`Suite` record in the ``SUITES`` registry:
its configs, the function that times one config, its structural gates
(simulated-time facts that hold on any host) and its table.  The shared
driver in :mod:`repro.bench.harness` does the rest for every suite —
timing, the capture envelope, the calibration-rescaled wall gate and
``--write`` with history preserved.  Each suite's committed snapshot
lives in ``benchmarks/BENCH_<suite>.json`` and carries a ``history``
list: the wall-clock perf trajectory of the project.

Entry points: ``repro bench --suite NAME`` (CLI) and ``make bench`` /
``make bench-check`` / ``make bench-write`` with ``SUITE=NAME``.
"""

from . import control, runtime_speed, scale, schedules, serving, speed
from .harness import (
    Suite,
    calibrate,
    calibration_scale,
    check_snapshot,
    fan_out,
    write_snapshot,
)

# Registry order is the ``--suite all`` order.
SUITES = {
    suite.name: suite
    for suite in (
        speed.SUITE,
        runtime_speed.SUITE,
        schedules.SUITE,
        control.SUITE,
        serving.SUITE,
        scale.SUITE,
    )
}

__all__ = [
    "SUITES",
    "Suite",
    "calibrate",
    "calibration_scale",
    "check_snapshot",
    "fan_out",
    "write_snapshot",
]
