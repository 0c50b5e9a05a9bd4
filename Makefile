# Convenience targets for the repro library.
#
#   make verify      - lint, then the tier-1 test suite
#   make test        - tier-1 test suite only
#   make lint        - ruff over the whole tree (config in pyproject.toml)
#   make serve-smoke - verification-service end-to-end smoke: real server
#                      subprocess + CLI client; verdict byte-parity with
#                      the serial engine, warm store hits, campaign
#                      submit/tail/await (CI's service-smoke)
#   make bench       - perfbench's cold end-to-end workloads (table1, suite,
#                      service), untraced, each for BENCHMARK.json's
#                      run_seconds; prints their JSON lines, keeps them in
#                      bench.jsonl, and fails if a run reports an
#                      incorrect result (the nightly job uploads the file)
#   make bench-pairs - alternating parent-vs-change pairs of one workload
#                      (tools/bench_pairs.py): PARENT (default HEAD, so the
#                      change is the uncommitted work), WORKLOAD (suite),
#                      PAIRS (10), SEED (0); each run lasts BENCHMARK.json's
#                      run_seconds.  Prints each end-to-end metric's medians,
#                      quartiles and pairs won, and fails on an incorrect run

PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify test lint serve-smoke bench bench-pairs

PARENT ?= HEAD
WORKLOAD ?= suite
PAIRS ?= 10
SEED ?= 0

test:
	$(PYTHON) -m pytest -x -q

verify: lint test

lint:
	ruff check .

serve-smoke:
	$(PYTHON) -m repro.service.smoke

bench:
	rm -f bench.jsonl
	seconds=$$($(PYTHON) -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])"); \
	for workload in table1 suite service; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 0 \
			--seconds $$seconds --trace 0 >> bench.jsonl || exit 1; \
	done
	cat bench.jsonl
	! grep -q '"correct": false' bench.jsonl

bench-pairs:
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED)
