"""Table 1: cross-machine traffic per machine, expert- vs data-centric.

Regenerates the Table 1 traffic rows (per-machine forward-phase All-to-All
volume, GiB) for the three models at 16 experts / 2 machines and 32 experts
/ 4 machines, and checks them against the paper's printed values:

    E.C.:  6 / 9   (BERT),  1.5 / 2.25 (GPT),  6 / 9   (Transformer-xl)
    D.C.:  0.56/1.69,       0.14/0.42,         0.19/0.56
"""

import pytest

from engine_cache import write_report
from repro.analysis import format_table, table1
from repro.config import TABLE1_MODELS

PAPER_VALUES = {
    # (model, experts): (ec_gib, dc_gib)
    ("MoE-BERT", 16): (6.0, 0.56),
    ("MoE-BERT", 32): (9.0, 1.69),
    ("MoE-GPT", 16): (1.5, 0.14),
    ("MoE-GPT", 32): (2.25, 0.42),
    ("MoE-Transformer-xl", 16): (6.0, 0.19),
    ("MoE-Transformer-xl", 32): (9.0, 0.56),
}


def build_rows():
    return table1(TABLE1_MODELS)


def test_table1_traffic(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)

    table = format_table(
        ["Model", "#Expert", "#GPU", "Size(B)", "E.C.(GiB)", "D.C.(GiB)", "Reduction"],
        [
            [
                row.model,
                row.num_experts,
                row.num_gpus,
                f"{row.model_size_b:.2f}",
                f"{row.expert_centric_gib:.2f}",
                f"{row.data_centric_gib:.2f}",
                f"{row.reduction:.1f}x",
            ]
            for row in rows
        ],
        title="Table 1: per-machine cross-node traffic (forward phase)",
    )
    write_report("table1_traffic.txt", table)

    for row in rows:
        ec_expected, dc_expected = PAPER_VALUES[(row.model, row.num_experts)]
        assert row.expert_centric_gib == pytest.approx(ec_expected, rel=0.05)
        assert row.data_centric_gib == pytest.approx(dc_expected, rel=0.05)
        # Headline claim: up to 16x traffic reduction (Transformer-xl).
        assert row.reduction > 1

    xl16 = next(
        row for row in rows
        if row.model == "MoE-Transformer-xl" and row.num_experts == 16
    )
    assert xl16.reduction == pytest.approx(32.0, rel=0.05)
    xl32 = next(
        row for row in rows
        if row.model == "MoE-Transformer-xl" and row.num_experts == 32
    )
    assert xl32.reduction == pytest.approx(16.0, rel=0.05)


def test_model_sizes_match_table1(benchmark):
    """Table 1 'Model size (B)': 0.42/0.73, 0.23/0.31, 0.11/0.21."""
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    paper_sizes = {
        ("MoE-BERT", 16): 0.42,
        ("MoE-BERT", 32): 0.73,
        ("MoE-GPT", 16): 0.23,
        ("MoE-GPT", 32): 0.31,
        ("MoE-Transformer-xl", 16): 0.11,
        ("MoE-Transformer-xl", 32): 0.21,
    }
    for row in rows:
        expected = paper_sizes[(row.model, row.num_experts)]
        assert row.model_size_b == pytest.approx(expected, rel=0.35), (
            f"{row.model} x{row.num_experts}: {row.model_size_b:.2f}B "
            f"vs paper {expected}B"
        )
