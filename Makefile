# Janus reproduction — developer entry points.

PYTHON ?= python

.PHONY: install test lint loc bench bench-check bench-write figs profile \
	baseline baseline-write coverage chaos reports examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

# Net line count of src/**/*.py: the code-size number ROADMAP tracks.
loc:
	@echo "src lines: $$(find src -name '*.py' -exec cat {} + | wc -l)"

# Wall-clock bench suites (host time, not simulated time), one per
# registered `repro bench --suite` (repro.bench.SUITES): sim (Fig. 14
# configs), runtime (numerical trainer steps, float64), schedules,
# control, serving, scale, or all.  `bench-check` gates the quick subset's
# calibration-rescaled medians plus the suite's structural simulated-time
# gates against benchmarks/BENCH_<suite>.json; `bench-write` re-captures
# the snapshot, preserving its history list.
SUITE ?= sim

bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite $(SUITE)

bench-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite $(SUITE) --quick --check

bench-write:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite $(SUITE) --write

# cProfile the hottest Fig. 14 config (top 25 by cumulative time).
profile:
	PYTHONPATH=src $(PYTHON) -m repro.cli simulate \
		--model moe-gpt --paradigm data-centric --profile

# pytest-benchmark figure battery (simulated-time comparisons).
figs:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Perf-regression gate: fresh metric capture vs benchmarks/BENCH_metrics.json.
baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/baseline.py --check

baseline-write:
	PYTHONPATH=src $(PYTHON) benchmarks/baseline.py --write

# Line coverage with a hard 100% floor on the metrics subsystem
# (requires pytest-cov; CI installs it).
coverage:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q \
		--cov=repro --cov-report=term --cov-report=xml
	PYTHONPATH=src $(PYTHON) -m coverage report \
		--include='src/repro/metrics/*' --fail-under=100

chaos:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_chaos_resilience.py \
		--benchmark-only -q
	@cat benchmarks/reports/chaos_resilience.txt

reports: figs
	@cat benchmarks/reports/*.txt

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/paradigm_planner.py
	$(PYTHON) examples/train_tiny_moe.py
	$(PYTHON) examples/simulate_cluster_training.py
	$(PYTHON) examples/pull_protocol.py

clean:
	rm -rf benchmarks/reports .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
