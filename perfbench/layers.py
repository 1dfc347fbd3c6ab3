"""Wrap each layer's public entry points in spans, from outside ``src/``.

:func:`install` replaces every reference the program holds to a layer
function (module globals, package re-exports, class attributes) with a
wrapper that opens a ``repro.obs`` span named after the layer, and
returns an ``undo`` callable.  Nothing in the program changes; only the
bindings it looks up at call time do.  The spans land in whatever
:class:`repro.obs.Trace` is active on the calling thread (one per op in
the load generator, the engine's own batch trace on its dispatcher) and
cost one attribute lookup where none is.

Module-level functions are patched through ``sys.modules`` because a
package may re-export a function under its own module's name:
``repro.core.crashsim`` read as an attribute is the function, not the
module.  Walks running in process-tier workers are invisible here; the
parent sees only the dispatch wall time of :meth:`ParallelExecutor.run`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Dict, List, Tuple

from repro import obs

__all__ = ["install", "LAYERS", "COUNTERS", "read_counters"]

#: Program counters the benchmark reads as deltas over a timed window.
COUNTERS = (
    "repro_tree_builds_total",
    "repro_tree_updates_total",
    "repro_tree_update_skips_total",
    "repro_kernel_walks_total",
    "repro_kernel_steps_total",
    "repro_kernel_dense_row_hits_total",
    "repro_kernel_dense_row_misses_total",
    "repro_adaptive_rounds_total",
    "repro_executor_tasks_total",
    "repro_executor_task_retries_total",
    "repro_executor_pool_rebuilds_total",
    "repro_candidate_tree_cache_hits_total",
    "repro_candidate_tree_cache_builds_total",
    "repro_tree_lru_hits_total",
    "repro_tree_lru_misses_total",
)


def read_counters(snapshot: Dict[str, object]) -> Dict[str, int]:
    """The :data:`COUNTERS` out of a registry snapshot (0 when absent)."""
    return {name: int(snapshot.get(name, 0)) for name in COUNTERS}


def _candidate_count(span, args, kwargs, result):
    candidates = kwargs.get("candidates")
    if candidates is not None:
        span.meta = {"candidates": len(candidates)}


def _shard_count(span, args, kwargs, outcome):
    span.meta = {"shards": len(outcome.completed)}


#: (module, function, layer, annotate) for module-level entry points.
#: ``annotate(span, args, kwargs, result)``, when given, runs once the
#: call returns, for what is only known then.
FUNCTIONS: Tuple[Tuple[str, str, str, object], ...] = (
    ("repro.api", "single_source", "api", None),
    ("repro.core.crashsim", "crashsim", "crashsim", _candidate_count),
    ("repro.parallel.runner", "parallel_crashsim", "parallel.runner", None),
    ("repro.core.revreach", "revreach_levels", "revreach.build", None),
    ("repro.core.revreach", "revreach_update", "revreach.update", None),
    ("repro.core.adaptive", "drive_adaptive_rounds", "adaptive.rounds", None),
    ("repro.core.adaptive", "build_hub_cache", "adaptive.hub_cache", None),
    ("repro.core.pruning", "affected_area", "temporal.pruning", None),
    ("repro.core.pruning", "count_candidate_edges", "temporal.pruning", None),
)

#: (module, class, methods, layer, annotate) for public methods.
METHODS: Tuple[Tuple[str, str, Tuple[str, ...], str, object], ...] = (
    (
        "repro.walks.kernel",
        "WalkCrashKernel",
        ("accumulate", "accumulate_multi", "accumulate_moments", "accumulate_multi_moments"),
        "kernel",
        None,
    ),
    ("repro.parallel.executor", "ParallelExecutor", ("run",), "parallel.dispatch", _shard_count),
    ("repro.graph.builder", "GraphBuilder", ("from_graph", "build"), "graph.builder", None),
    (
        "repro.core.pruning",
        "CandidateTreeCache",
        ("tree_for", "advance", "clone", "retain"),
        "temporal.pruning",
        None,
    ),
    (
        "repro.core.streaming",
        "TemporalQuerySession",
        ("push_snapshot", "push_delta"),
        "temporal.push",
        None,
    ),
)


#: Spans perfbench opens outside the layer wrappers, plus the serving
#: engine's own per-batch trace root, which is attributed as a layer.
OTHER_LAYERS = ("http.client", "http.server", "engine.query", "batch")

#: Every span name :func:`spans.op_breakdown` attributes time to.
LAYERS = frozenset(
    [layer for _, _, layer, _ in FUNCTIONS]
    + [layer for _, _, _, layer, _ in METHODS]
    + list(OTHER_LAYERS)
)


def wrap(func, layer: str, annotate=None):
    """``func`` with each call inside a ``layer`` span on the active trace."""

    @functools.wraps(func)
    def traced(*args, **kwargs):
        with obs.span(layer) as span:
            result = func(*args, **kwargs)
            if span is not None and annotate is not None:
                annotate(span, args, kwargs, result)
            return result

    return traced


def install(extra_methods=()) -> Callable[[], None]:
    """Wrap every layer entry point; returns a callable that undoes it.

    ``extra_methods`` adds entries shaped like :data:`METHODS`.
    """
    undo: List[Tuple[object, str, object]] = []
    for module_name, attr, layer, annotate in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        traced = wrap(original, layer, annotate)
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
                undo.append((module, attr, original))
    for module_name, cls_name, methods, layer, annotate in (*METHODS, *extra_methods):
        cls = getattr(importlib.import_module(module_name), cls_name)
        for method in methods:
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                traced = classmethod(wrap(raw.__func__, layer, annotate))
            else:
                traced = wrap(raw, layer, annotate)
            setattr(cls, method, traced)
            undo.append((cls, method, raw))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
