"""Long-lived query serving: a resident engine over one graph.

Every standalone query pays the full setup bill — tree build, kernel
buffers, process-pool start-up — and independent callers cannot share
walks.  This package keeps all of that state resident:

* :class:`~repro.serve.engine.Engine` — holds the graph, warm per-sampler
  kernels, an LRU of source reverse trees, and one persistent
  :class:`~repro.parallel.ParallelExecutor`; admits concurrent requests,
  coalesces compatible ones inside a small batching window, and scores
  every request through the one CrashSim query driver.
* :func:`~repro.serve.http.create_server` — a threaded HTTP front door
  (``POST /v1/query``, ``GET /healthz``, ``GET /stats``) behind the
  ``repro serve`` CLI command.

Determinism contract: an engine answer for an explicitly seeded request is
byte-identical to the corresponding direct :func:`repro.api.single_source`
call, regardless of what else happened to share its batch (pinned by
``tests/serve/test_batching_properties.py``).
"""

from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.engine import (
    SHED_POLICIES,
    Engine,
    EngineConfig,
    QueryRequest,
    QueryResult,
    TreeLRU,
)
from repro.serve.http import create_server

__all__ = [
    "Engine",
    "EngineConfig",
    "QueryRequest",
    "QueryResult",
    "TreeLRU",
    "BreakerState",
    "CircuitBreaker",
    "SHED_POLICIES",
    "create_server",
]
