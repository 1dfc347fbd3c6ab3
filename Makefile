# Development shortcuts.  `pip install -e .` needs the `wheel` package;
# `make install` falls back to setup.py develop on minimal environments.

PYTHON ?= python

.PHONY: install test test-parallel test-chaos test-serve test-overload bench bench-tree bench-kernel bench-parallel serve-bench bench-overload bench-adaptive obs-smoke perf-smoke perfbench selftest experiments report examples clean

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

# Sparse-vs-dense tree sweep; writes benchmarks/BENCH_tree.json and fails
# if the sparse representation misses its speedup targets.
bench-tree:
	$(PYTHON) benchmarks/bench_tree.py

# Fused walk–crash kernel vs the generator accumulator; writes row
# $(BENCH_LABEL) of benchmarks/BENCH_kernel.json (other rows are kept)
# and fails below the 2x / 1.5x targets.
BENCH_LABEL ?= current
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py --label "$(BENCH_LABEL)"

# Thread pool vs serial on the 50k graph and the power-law fixture;
# writes benchmarks/BENCH_parallel.json and fails if any worker count's
# row drifts from the workers=1 scores.  Scaling needs real cores to show.
bench-parallel:
	$(PYTHON) benchmarks/bench_parallel.py

# Serving-engine load generator: 8 concurrent clients vs sequential
# dispatch on the 50k PA graph; writes benchmarks/BENCH_serve.json and
# fails below the 1.5x batched-throughput target.
serve-bench:
	cd benchmarks && $(PYTHON) bench_serve.py

# Overload load generator: 2x-capacity open-loop offered load, shed
# (bounded queue) vs unbounded; writes benchmarks/BENCH_overload.json and
# fails if shed-mode goodput drops below 0.8x the at-capacity goodput or
# the queue bound is violated.
bench-overload:
	cd benchmarks && $(PYTHON) bench_overload.py

# Adaptive sampling vs fixed n_r on the pinned 50k power-law fixture;
# writes benchmarks/BENCH_adaptive.json and fails below 2x trials saved
# or past ε=0.05 exact error on the adaptive leg.
bench-adaptive:
	cd benchmarks && $(PYTHON) bench_adaptive.py

# Observability overhead gate: instrumented vs kill-switched kernel on
# the 50k PA graph; writes benchmarks/BENCH_obs.json and fails if the
# instrumented leg costs more than 3% (REPRO_OBS_OVERHEAD_BOUND).
obs-smoke:
	cd benchmarks && $(PYTHON) bench_obs.py

# CI timing gate: generous multiple of benchmarks/baselines/tree_smoke.json.
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
