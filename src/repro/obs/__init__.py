"""Unified observability: metrics registry + per-query tracing.

Two halves, one import surface:

* :mod:`repro.obs.registry` — process-wide counters, gauges, and
  fixed-bucket histograms; Prometheus text exposition; a kill switch
  (:func:`set_enabled` / ``REPRO_OBS=0``) that turns every mutation into
  an early return.
* :mod:`repro.obs.trace` — ambient per-query span trees; ``obs.span``
  and ``obs.event`` are no-ops unless a :class:`Trace` is active on the
  calling thread.

Both halves are *provably inert*: they never draw from an RNG, never
reorder work, and their entire hot-path cost is a handful of integer adds
— the seed-behaviour fixtures and the obs gate of
``benchmarks/perf_smoke.py`` pin this.
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    obs_enabled,
    render_prometheus,
    set_enabled,
)
from repro.obs.trace import Span, Trace, current_trace, event, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "render_prometheus",
    "set_enabled",
    "obs_enabled",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Span",
    "Trace",
    "current_trace",
    "span",
    "event",
]
