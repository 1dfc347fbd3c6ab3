# Development shortcuts.  `pip install -e .` needs the `wheel` package;
# `make install` falls back to setup.py develop on minimal environments.

PYTHON ?= python

.PHONY: install test test-parallel test-chaos test-serve test-overload bench perf-smoke perfbench selftest experiments report examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Parallel subsystem only.
test-parallel:
	$(PYTHON) -m pytest tests/parallel/ tests/test_guarantee.py tests/core/test_adaptive.py

# Chaos suite: injected shard failures, stalled shards, deadlines,
# mid-push failures (see docs/internals.md §9).
test-chaos:
	$(PYTHON) -m pytest tests/test_failure_injection.py tests/parallel/test_executor.py

# Serving engine: batching invariance, threaded soak, shutdown-under-load,
# and failing-shard chaos through the engine (docs/internals.md §11).
test-serve:
	$(PYTHON) -m pytest tests/serve/

# Overload-resilience suite (docs/internals.md §14): bounded-queue
# admission, circuit-breaker walk under executor stalls, dispatcher
# kill/hang recovery, concurrent close, HTTP 429/503/504 mapping.
test-overload:
	$(PYTHON) -m pytest tests/serve/test_overload.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# CI perf gate (benchmarks/perf_smoke.py): wall-clocks within 10x of
# benchmarks/baselines/perf_smoke.json and the tree, kernel, serve, obs,
# overload, parallel, adaptive and multi-source ratio floors.
perf-smoke:
	cd benchmarks && $(PYTHON) perf_smoke.py

# One run of the repository benchmark (perfbench/README.md), e.g.
# `make perfbench W=hot-serve SEED=401`; prints the record as JSON.
# TRACE=1 adds the per-layer metrics (revreach.build_ms_per_op, ...).
TRACE ?= 0
perfbench:
	$(PYTHON) perfbench/run.py --workload $(W) --seed $(SEED) --seconds 10 --trace $(TRACE)

selftest:
	$(PYTHON) -m repro selftest

experiments:
	$(PYTHON) -m repro all --profile $${REPRO_PROFILE:-quick}

report:
	$(PYTHON) -m repro report --out report.md --profile $${REPRO_PROFILE:-quick}

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ok"

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
