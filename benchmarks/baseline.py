"""Perf-regression baseline: golden metrics for the Fig. 14 configs.

Runs the Table 1 / Fig. 14 comparison points (32 experts on 4 machines)
under each paradigm with a :class:`~repro.metrics.MetricsRegistry`
attached and captures the numbers that must not silently drift: makespan,
overlap efficiency, All-to-All share, bytes moved and scheduler counter
totals.  The committed snapshot lives in ``benchmarks/BENCH_metrics.json``.

Usage::

    python benchmarks/baseline.py --write              # regenerate baseline
    python benchmarks/baseline.py --check              # compare vs committed
    python benchmarks/baseline.py --check --tolerance 0.02

``--check`` exits non-zero when any metric leaves the tolerance band —
the CI perf-regression gate.  The simulation is deterministic, so on an
unchanged tree the comparison is exact; the band only absorbs intentional
low-risk drift (e.g. float reassociation from a refactor).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from engine_cache import FEATURE_SETS  # noqa: E402

from repro.bench import fan_out, write_snapshot  # noqa: E402
from repro.cluster import Cluster  # noqa: E402
from repro.config import TABLE1_MODELS  # noqa: E402
from repro.core import build_workload, engine_for  # noqa: E402
from repro.metrics import MetricsRegistry, overlap_efficiency  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_metrics.json"
SCHEMA = "janus-repro/bench-baseline/v1"

MODES = ("expert-centric", "data-centric", "pipelined-ec", "unified")
EXPERTS = 32
MACHINES = 4

# Counter totals worth pinning per run (0.0 when a paradigm never touches
# the subsystem — e.g. expert-centric issues no pulls).
COUNTERS = (
    "pull.issued",
    "fetch.issued",
    "cache.requests",
    "cache.hits",
    "cache.misses",
    "link.bytes",
)


def _capture_one(model: str, mode: str) -> dict:
    config = TABLE1_MODELS[model](EXPERTS)
    cluster = Cluster(MACHINES)
    registry = MetricsRegistry()
    engine = engine_for(
        mode, config, cluster,
        workload=build_workload(config, cluster),
        features=FEATURE_SETS["full"],
        metrics=registry,
    )
    result = engine.run_iteration()
    metrics = {
        "makespan_seconds": result.seconds,
        "overlap_efficiency": overlap_efficiency(
            result.trace, iteration=result.iteration
        ),
        "all_to_all_share": result.all_to_all_share,
        "egress_bytes_total": float(result.nic_egress_bytes.sum()),
    }
    for name in COUNTERS:
        metrics[name] = registry.total(name)
    return metrics


def _capture_job(key: str) -> dict:
    return _capture_one(*key.split("/", 1))


def capture(jobs: int = 1) -> dict:
    keys = [
        f"{model}/{mode}"
        for model in sorted(TABLE1_MODELS)
        for mode in MODES
    ]
    return {
        "schema": SCHEMA,
        "config": {"experts": EXPERTS, "machines": MACHINES,
                   "features": "full"},
        "runs": dict(zip(keys, fan_out(_capture_job, keys, jobs))),
    }


def compare(current: dict, baseline: dict, tolerance: float) -> list:
    """Relative drift per metric; returns the list of violations."""
    problems = []
    base_runs = baseline.get("runs", {})
    cur_runs = current["runs"]
    for key in sorted(set(base_runs) | set(cur_runs)):
        if key not in cur_runs:
            problems.append(f"{key}: missing from current capture")
            continue
        if key not in base_runs:
            problems.append(f"{key}: not in committed baseline (re-run --write)")
            continue
        for metric in sorted(set(base_runs[key]) | set(cur_runs[key])):
            expected = base_runs[key].get(metric)
            actual = cur_runs[key].get(metric)
            if expected is None or actual is None:
                problems.append(f"{key}.{metric}: metric set changed")
                continue
            scale = max(abs(expected), abs(actual))
            drift = abs(actual - expected) / scale if scale > 0 else 0.0
            if drift > tolerance:
                problems.append(
                    f"{key}.{metric}: {expected!r} -> {actual!r} "
                    f"({drift:.1%} > {tolerance:.1%})"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true",
                        help="regenerate the committed baseline")
    action.add_argument("--check", action="store_true",
                        help="compare a fresh capture against the baseline")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="relative tolerance band for --check")
    parser.add_argument("--path", type=Path, default=BASELINE_PATH,
                        help="baseline file location")
    parser.add_argument("--jobs", type=int, default=1,
                        help="capture configs in parallel worker processes")
    args = parser.parse_args(argv)

    current = capture(jobs=args.jobs)
    if args.write:
        write_snapshot(args.path, current)
        print(f"baseline written to {args.path} "
              f"({len(current['runs'])} runs)")
        return 0

    if not args.path.exists():
        print(f"no baseline at {args.path}; run --write first",
              file=sys.stderr)
        return 2
    baseline = json.loads(args.path.read_text())
    problems = compare(current, baseline, args.tolerance)
    if problems:
        print(f"perf baseline drifted ({len(problems)} metric(s)):",
              file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"baseline OK: {len(current['runs'])} runs within "
          f"{args.tolerance:.1%} of {args.path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
