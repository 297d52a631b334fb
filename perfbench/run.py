"""Repository benchmark: five workloads through ``repro``'s public API.

Run from the root of a checkout (the directory holding ``src/repro``)::

    python3 perfbench/run.py --workload fig14-dc --seed 0 --seconds 15 --trace 0

``--trace 0`` times the workload and prints its end-to-end metrics;
``--trace 1`` profiles it and prints per-layer metrics instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it starts with ``record`` and carries the run's host record, simulated
digest, raw wall times and calibration (see ``compare.py``).

Host times are calibrated (see ``calib.py``): main-thread CPU seconds
converted at the speed of a reference workload sampled beside them.
The process pins itself to one CPU before NumPy loads, so the
calibration shares the core with the work and BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_START = time.perf_counter()
HERE = Path(__file__).resolve().parent

# Fresh processes whose set-up is timed, besides the run's own.
SETUP_CHILDREN = 2

# A call running past this point of the run is abandoned as stalled, so
# the process always ends inside its 180-second budget.
_RUN_BUDGET_S = 165.0

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Stalled(Exception):
    """A timed call outlived the run's budget."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin() -> int:
    """Pin this thread (and every thread started later) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for name in _BLAS_THREADS:
        os.environ.setdefault(name, "1")
    return cpu


def _host_record(cpu: int) -> dict:
    import numpy as np
    from repro.netsim import _waterfill

    backend = "compiled" if _waterfill.kernel() is not None else "python"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "pinned_cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "waterfill": backend,
    }


def _setup_only(args, calibrator) -> int:
    """Child mode: build the workload, print the calibrated set-up time."""
    import suite

    with calibrator:
        workload = suite.WORKLOADS[args.workload](args.seed)
        workload.build()
        ready = calibrator.clock()
    print(json.dumps({
        "setup_s": calibrator.seconds(0.0, ready),
        "wall_s": time.perf_counter() - _START,
    }))
    return 0


def _child_setups(args) -> list:
    samples = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return samples


def _on_alarm(signum, frame):
    raise Stalled(f"call still running {_RUN_BUDGET_S:.0f} s into the run")


def _timed_calls(workload, seconds, before, after, multiple=1):
    """Closed loop: call, check, repeat until ``seconds`` have passed.

    ``before``/``after`` wrap each call (calibration clock or profiler);
    their return values are stored with the call.  The loop makes at
    least ``workload.min_calls`` calls and a multiple of ``multiple``.
    Returns the call records, the failure descriptions, the number of
    calls that raised (0 or 1: the loop stops at the first), and the peak
    resident memory in MB through set-up and the first call.  Later calls
    are left out: numpy-train's resident set keeps creeping up with the
    step count, by amounts that depend on heap fragmentation (seeds and
    code paths move it between 360 and 620 MB after eight steps).
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = time.perf_counter() + seconds
    calls, problems = [], []
    peak_mb = None
    while (
        len(calls) < workload.min_calls
        or time.perf_counter() < deadline
        or len(calls) % multiple
    ):
        remaining = _RUN_BUDGET_S - (time.perf_counter() - _START)
        signal.setitimer(signal.ITIMER_REAL, max(remaining, 1.0))
        token = before(len(calls))
        wall = time.perf_counter()
        try:
            result = workload.call()
        except Exception as exc:  # a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            problems.append(f"call {len(calls)} raised {exc!r}")
            return calls, problems, 1, peak_mb
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - wall
            end = after(len(calls))
        report = workload.check(result)
        problems += report.problems
        calls.append({"wall": wall, "span": (token, end), "report": report})
        if len(calls) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return calls, problems, 0, peak_mb


def _outputs_problems(workload, calls) -> list:
    """Calls of a deterministic workload must repeat their outputs."""
    if not workload.repeats or not calls:
        return []
    first = calls[0]["report"].outputs
    return [
        f"call {index}: simulated outputs differ from call 0"
        for index, call in enumerate(calls[1:], start=1)
        if call["report"].outputs != first
    ]


def _untraced(args, workload, calibrator):
    from calib import REFERENCE_UNIT_S

    with calibrator:
        workload.build()
        ready = calibrator.clock()
    setup_wall = time.perf_counter() - _START
    setups = [calibrator.seconds(0.0, ready)]
    children = _child_setups(args)
    setups += [child["setup_s"] for child in children]
    with calibrator:
        calls, problems, raised, peak_mb = _timed_calls(
            workload, args.seconds,
            before=lambda _: calibrator.clock(),
            after=lambda _: calibrator.clock(),
        )
    if not calls:
        raise SystemExit("error: no timed call completed: " + "; ".join(problems))
    ops = sum(call["report"].ops for call in calls) + raised
    failed = sum(call["report"].failed for call in calls) + raised
    per_op_ms = [
        calibrator.seconds(*call["span"]) * 1e3 / call["report"].ops
        for call in calls
    ]
    raw_ms = [call["wall"] * 1e3 / call["report"].ops for call in calls]
    problems += _outputs_problems(workload, calls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "host_ms_per_op": (statistics.median(per_op_ms), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    record = {
        "host_ms_per_op": {
            "samples": len(per_op_ms),
            "q1_q3": _quartiles(per_op_ms),
            "raw_median_ms": statistics.median(raw_ms),
            "raw_q1_q3_ms": _quartiles(raw_ms),
        },
        "setup_s": {
            "samples": setups,
            "raw_wall_s": [setup_wall] + [c["wall_s"] for c in children],
        },
        "calibration": {
            "unit_median_s": calibrator.unit_seconds(),
            "reference_unit_s": REFERENCE_UNIT_S,
            "unit_samples": calibrator.samples(),
        },
    }
    return calls, ops, failed, problems, metrics, record


def _quartiles(values):
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _traced(args, workload):
    """Profiled run: untraced and traced calls alternate.

    One profiler covers the build, another the traced calls; per-layer
    self times are the calls' profile per operation, and the build's
    split goes to the record.  The untraced calls give the overhead.
    """
    import cProfile
    import pstats

    import layers

    spans = layers.Spans()
    spans.install()
    build_profile, profiler = cProfile.Profile(), cProfile.Profile()
    build_wall = time.perf_counter()
    build_profile.enable()
    try:
        workload.build()
    finally:
        build_profile.disable()
    build_wall = time.perf_counter() - build_wall

    def before(index):
        if index % 2:
            profiler.enable()
        return index % 2

    def after(index):
        if index % 2:
            profiler.disable()

    try:
        calls, problems, raised, _ = _timed_calls(
            workload, args.seconds, before=before, after=after, multiple=2
        )
    finally:
        spans.uninstall()
    problems += _outputs_problems(workload, calls)
    traced = [c for c in calls if c["span"][0]]
    plain = [c for c in calls if not c["span"][0]]
    if not traced:
        raise SystemExit("error: no traced call completed: " + "; ".join(problems))
    ops = sum(call["report"].ops for call in calls) + raised
    traced_ops = sum(call["report"].ops for call in traced) or 1
    failed = sum(call["report"].failed for call in calls) + raised
    self_s = layers.attribute(pstats.Stats(profiler).stats)
    traced_wall = sum(call["wall"] for call in traced)

    counts = {}
    for call in calls:
        for key, value in call["report"].counts.items():
            counts[key] = counts.get(key, 0.0) + value * call["report"].ops / ops
    events = sum(
        call["report"].counts.get("simkit.events", 0.0) * call["report"].ops
        for call in traced
    )
    metrics = {}
    for name, unit, _ in PER_LAYER:
        layer, _, kind = name.partition(".")
        value = self_s[layer] / traced_ops if kind == "self_s" else counts.get(name, 0.0)
        metrics[name] = (value, unit)
    metrics["simkit.host_us_per_event"] = (
        self_s["simkit"] / events * 1e6 if events else 0.0, "us"
    )
    for name in ("netsim.transfers", "core.fetches", "core.pulls"):
        metrics[name] = (spans.calls[name] / ops, "count")
    metrics["core.tasks"] = (float(workload.task_count()), "count")
    metrics["core.build_s"] = (build_wall, "s")
    metrics["trace.total_s"] = (traced_wall, "s")
    metrics["trace.coverage"] = (sum(self_s.values()) / traced_wall, "ratio")
    metrics["trace.overhead"] = (
        _median_per_op(traced) / _median_per_op(plain), "ratio"
    )
    record = {
        "layer_self_s": self_s,
        "build_layer_s": layers.attribute(pstats.Stats(build_profile).stats),
        "spans": {
            "calls": spans.calls, "seconds": spans.seconds,
            "missing": spans.missing,
        },
        "calls": {"traced": len(traced), "untraced": len(plain)},
    }
    return calls, ops, failed, problems, metrics, record


def _median_per_op(calls) -> float:
    return statistics.median(c["wall"] / c["report"].ops for c in calls)


# name, unit, better — the traced run's per-layer metrics.  ``self_s`` is
# profiled self seconds of the traced calls per operation; counts are per
# operation; ``core.build_s`` and ``trace.total_s`` are profiled wall
# seconds of the build and of the traced calls.
PER_LAYER = (
    ("simkit.self_s", "s", "lower"),
    ("simkit.events", "count", "lower"),
    ("simkit.host_us_per_event", "us", "lower"),
    ("netsim.self_s", "s", "lower"),
    ("netsim.transfers", "count", "lower"),
    ("netsim.nic_gib_per_machine", "GiB", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.tasks", "count", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.a2a_share", "ratio", "lower"),
    ("core.overlap_efficiency", "ratio", "higher"),
    ("core.credit_min", "count", "higher"),
    ("core.fetches", "count", "lower"),
    ("core.pulls", "count", "lower"),
    ("comm.self_s", "s", "lower"),
    ("control.self_s", "s", "lower"),
    ("control.switches", "count", "lower"),
    ("control.replications", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("serving.self_s", "s", "lower"),
    ("serving.pinned_share", "ratio", "higher"),
    ("serving.nic_gb", "GB", "lower"),
    ("tensorlib.self_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.total_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("sim.ms_per_iter", "sim_ms", "lower"),
    ("sim.ttft_p50_ms", "sim_ms", "lower"),
    ("sim.ttft_p99_ms", "sim_ms", "lower"),
    ("sim.tpot_p50_ms", "sim_ms", "lower"),
    ("sim.tpot_p99_ms", "sim_ms", "lower"),
)


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src}/repro not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    cpu = _pin()
    from calib import Calibrator

    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    calibrator = Calibrator()
    if args.setup_only:
        return _setup_only(args, calibrator)
    workload = suite.WORKLOADS[args.workload](args.seed)
    if args.trace:
        calls, ops, failed, problems, metrics, record = _traced(args, workload)
    else:
        calls, ops, failed, problems, metrics, record = _untraced(
            args, workload, calibrator
        )
    if problems and not failed:
        failed = max(1, ops)
    attempted = max(ops, failed, 1)
    outputs = [call["report"].outputs for call in calls[:workload.min_calls]]
    record.update({
        "workload": args.workload,
        "seed": args.seed if workload.seeded else None,
        "trace": args.trace,
        "host": _host_record(cpu),
        "digest": suite.digest(outputs) if outputs else None,
        "error_rate": failed / attempted,
        "calls": len(calls),
        "problems": problems[:20],
    })
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    if "calibration" in record:
        host, cal = record["host_ms_per_op"], record["calibration"]
        print(f"  host_ms_per_op: {host['samples']} samples, raw wall median "
              f"{host['raw_median_ms']:.6g} ms; calibration unit median "
              f"{cal['unit_median_s'] * 1e6:.1f} us vs reference "
              f"{cal['reference_unit_s'] * 1e6:.1f} us")
    print(f"error_rate {failed}/{attempted}  digest {record['digest']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
