"""Smoke tests: every example script runs end to end.

Each script runs once per test run (``output`` caches its stdout); the
glob-parametrized test covers every ``examples/*.py``, and the named tests
check what the fast ones print.
"""

import contextlib
import functools
import io
import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


@functools.lru_cache(maxsize=None)
def output(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize(
    "name", sorted(path.name for path in EXAMPLES.glob("*.py"))
)
def test_example_runs(name):
    assert output(name)


def test_quickstart_runs():
    assert "traffic reduction" in output("quickstart.py")


def test_paradigm_planner_runs():
    out = output("paradigm_planner.py")
    assert "OOM on 80GB A100!" in out       # the Fig. 16 case
    assert "data-centric" in out


def test_train_tiny_moe_runs():
    assert "identical training trajectories" in output("train_tiny_moe.py")


def test_pull_protocol_runs():
    out = output("pull_protocol.py")
    assert "sequential fine-grained pulls" in out
    assert "cross-machine bytes moved" in out
    assert "served at" in out
