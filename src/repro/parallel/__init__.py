"""Parallel query execution: seed-sharded trials on a thread pool.

The subsystem has two layers (docs/internals.md §7 and §13):

* :mod:`repro.parallel.executor` — :class:`ParallelExecutor`, a thread
  pool with a serial in-process fallback (``workers=1``), plus the
  process-wide persistent default executor
  (:func:`get_default_executor`) the drivers share;
* the drivers — :func:`parallel_crashsim` and
  :func:`parallel_crashsim_multi_source` — which shard work using an
  autotuned plan (:func:`plan_shards`) and
  ``numpy.random.SeedSequence.spawn`` so any worker count yields
  identical, reproducible scores for the same master seed.
"""

from repro.parallel.executor import (
    MapOutcome,
    ParallelExecutor,
    RetryBudget,
    get_default_executor,
    reset_default_executors,
    resolve_mode,
    resolve_workers,
)
from repro.parallel.runner import (
    DEFAULT_SHARDS,
    MAX_SHARDS,
    parallel_crashsim,
    parallel_crashsim_multi_source,
    plan_shards,
    shard_sizes,
)

__all__ = [
    "ParallelExecutor",
    "MapOutcome",
    "RetryBudget",
    "resolve_workers",
    "resolve_mode",
    "get_default_executor",
    "reset_default_executors",
    "DEFAULT_SHARDS",
    "MAX_SHARDS",
    "shard_sizes",
    "plan_shards",
    "parallel_crashsim",
    "parallel_crashsim_multi_source",
]
