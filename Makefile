PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-quick clean

test:
	$(PYTHON) -m pytest -x -q

## Perf-regression suite: writes BENCH_PR10.json and fails if any guarded
## rate drops more than its tolerance below benchmarks/perf_baseline.json
## (10% for engine/datapath, 20% default; the obs layer also has an
## absolute metrics-on overhead budget).  A loud warning — not a failure —
## is printed when the baseline was recorded on a different machine.
## Everything runs on the one pure-Python engine; there is nothing to build.
bench:
	$(PYTHON) benchmarks/run_perf_suite.py \
		--output BENCH_PR10.json \
		--baseline benchmarks/perf_baseline.json \
		--check

## Quarter-size workloads for a fast smoke signal (same regression check).
bench-quick:
	$(PYTHON) benchmarks/run_perf_suite.py \
		--output BENCH_PR10.json \
		--baseline benchmarks/perf_baseline.json \
		--check --quick

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache src/*.egg-info build
