"""Fig. 12: ablation of the Janus optimizations.

For each model (32 experts, 4 machines) the paper reports speedup over the
expert-centric baseline as the strategies stack:

    Data-Centric (fine-grained only):  1.26x / 1.58x / 1.79x
    + Topology-aware:                  incremental gain
    + Prefetch (all optimizations):    1.31x / 1.63x / 1.81x

The reproduced *shape*: data-centric alone contributes the bulk of the
speedup; topology awareness and prefetch each add an incremental gain on
top; every model lands in the 1.2x-2.1x band.
"""

from engine_cache import run_model, write_report
from repro.analysis import format_table
from repro.config import TABLE1_MODELS

VARIANTS = [
    ("Data-Centric", "base"),
    ("+ Topology-aware", "topo"),
    ("+ Prefetch (all)", "full"),
]


def run_ablation():
    results = {}
    for model in TABLE1_MODELS:
        baseline = run_model(model, "expert-centric")
        results[model] = {"baseline": baseline}
        for label, features in VARIANTS:
            results[model][label] = run_model(
                model, "data-centric", features=features
            )
    return results


def test_fig12_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for model, runs in results.items():
        baseline = runs["baseline"].seconds
        row = [model, f"{baseline * 1e3:.1f}"]
        for label, _ in VARIANTS:
            speedup = baseline / runs[label].seconds
            row.append(f"{speedup:.2f}x")
        rows.append(row)
    write_report(
        "fig12_ablation.txt",
        format_table(
            ["Model", "EC iter (ms)"] + [label for label, _ in VARIANTS],
            rows,
            title="Fig. 12: speedup over the expert-centric baseline as "
            "optimizations stack (32 experts, 4 machines)",
        ),
    )

    for model, runs in results.items():
        baseline = runs["baseline"].seconds
        speedups = [baseline / runs[label].seconds for label, _ in VARIANTS]
        # Data-centric alone already wins (paper: 1.26-1.79x).
        assert speedups[0] > 1.15, f"{model}: DC base speedup {speedups[0]:.2f}"
        # Each added strategy helps (or is at worst neutral).
        assert speedups[1] >= speedups[0] * 0.99
        assert speedups[2] >= speedups[1] * 0.99
        # Full Janus stays in the paper's band (1.31-1.81, allow 1.2-2.1).
        assert 1.2 < speedups[2] < 2.1, f"{model}: full {speedups[2]:.2f}"
        # The data-centric paradigm contributes the bulk of the gain.
        dc_gain = speedups[0] - 1.0
        extra_gain = speedups[2] - speedups[0]
        assert dc_gain > extra_gain
