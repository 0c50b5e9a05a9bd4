# Convenience targets for the repro library.
#
#   make verify      - lint, tier-1 test suite, then the smoke-benchmark
#                      guard (fails if the 3x3 FSYNC check regresses >3x
#                      against the BENCH_engine.json baseline)
#   make test        - tier-1 test suite only
#   make smoke       - smoke-benchmark guard only (CI uploads its output)
#   make lint        - ruff over the whole tree (config in pyproject.toml)
#   make serve-smoke - verification-service end-to-end smoke: real server
#                      subprocess + CLI client; verdict byte-parity with
#                      the serial engine, warm store hits, campaign
#                      submit/tail/await (CI's service-smoke)
#   make bench       - full engine benchmark; rewrites BENCH_engine.json
#                      (seed-vs-engine, cold-vs-cached, cross-size cache
#                      reuse, pooled reuse, reduction quotients, pooled
#                      campaigns, verdict-store warm hits, HTTP service
#                      warm-hit latency)

PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify test smoke lint serve-smoke bench

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) benchmarks/bench_engine.py --smoke

verify: lint test smoke

lint:
	ruff check .

serve-smoke:
	$(PYTHON) -m repro.service.smoke

bench:
	$(PYTHON) benchmarks/bench_engine.py
