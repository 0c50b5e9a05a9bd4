# Convenience targets for the repro library.
#
#   make verify      - lint, tier-1 test suite, then the smoke-benchmark
#                      guard (fails if the 3x3 FSYNC check regresses >3x
#                      against the BENCH_engine.json baseline)
#   make test        - tier-1 test suite only
#   make smoke       - smoke-benchmark guard only (CI uploads its output)
#   make lint        - ruff over the whole tree (config in pyproject.toml)
#   make chaos       - fault-injection parity check: a worker kill
#                      mid-campaign and a coordinator crash with journal
#                      resume must both leave verdicts byte-identical to
#                      the serial engine (CI's chaos-smoke)
#   make serve-smoke - verification-service end-to-end smoke: real server
#                      subprocess + CLI client; verdict byte-parity with
#                      the serial engine, warm store hits, campaign
#                      submit/tail/await (CI's service-smoke)
#   make bench       - full engine benchmark; rewrites BENCH_engine.json
#                      (seed-vs-engine, cold-vs-cached, cross-size cache
#                      reuse, pooled reuse, reduction quotients,
#                      distributed-vs-pooled campaigns, verdict-store warm
#                      hits, HTTP service warm-hit latency)

PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify test smoke lint chaos serve-smoke bench

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) benchmarks/bench_engine.py --smoke

verify: lint test smoke

lint:
	ruff check .

chaos:
	$(PYTHON) -m repro.engine.distributed chaos

serve-smoke:
	$(PYTHON) -m repro.service.smoke

bench:
	$(PYTHON) benchmarks/bench_engine.py
