"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` holds every metric the process exports.  The
design optimises the *hot path* — an increment from inside the walk kernel
or the engine dispatcher — at the expense of the cold one (scrapes):

* **lock sharding** — each metric owns its own ``threading.Lock``; an
  increment never contends with increments on other metrics, and the
  registry-level lock is touched only at registration and snapshot time;
* **batch first** — instrumented call sites accumulate into plain local
  integers and flush once per call (`Counter.inc(n)`), so the per-walk /
  per-step cost of observability is zero and the per-*call* cost is a few
  hundred nanoseconds of lock traffic;
* **kill switch** — :func:`set_enabled` (or ``REPRO_OBS=0`` in the
  environment) turns every mutation into an early return, which is what
  the obs overhead gate in ``benchmarks/perf_smoke.py`` measures against.

Metrics never touch the RNG, never reorder work, and never raise from the
mutation path, so instrumented runs are byte-identical to uninstrumented
ones — pinned by the seed-behaviour fixtures.

Exposure: :meth:`MetricsRegistry.snapshot` (plain dict, for benches and
JSON dumps), :meth:`MetricsRegistry.dump_json`, and
:func:`render_prometheus` (the text exposition format ``GET /metrics``
serves).
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "get_registry",
    "render_prometheus",
    "set_enabled",
    "obs_enabled",
]

#: Latency histogram bounds (seconds) — sub-millisecond to tens of seconds,
#: roughly logarithmic like the Prometheus client defaults.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Small-cardinality size histogram bounds (batch sizes, shard counts).
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_VALID_NAME = None  # compiled lazily; see _check_name

# Global mutation switch.  A module-level bool read without a lock: stale
# reads during a toggle only mean a few increments land on the other side
# of the switch, which the overhead bench tolerates by construction.
_ENABLED = os.environ.get("REPRO_OBS", "1").lower() not in ("0", "false", "off")


def set_enabled(enabled: bool) -> bool:
    """Flip the process-wide mutation switch; returns the previous value.

    Disabling does not clear existing values — scrapes keep serving the
    last state — it only makes ``inc``/``set``/``observe`` early-return.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def obs_enabled() -> bool:
    """Whether metric mutations are currently recorded."""
    return _ENABLED


def _check_name(name: str) -> str:
    global _VALID_NAME
    if _VALID_NAME is None:
        import re

        _VALID_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    if not _VALID_NAME.match(name):
        raise ParameterError(
            f"invalid metric name {name!r}; must match "
            "[a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def _label_key(labelkv) -> Tuple[Tuple[str, str], ...]:
    """Normalise ``labels(mode="thread")`` kwargs into a sorted key tuple."""
    if not labelkv:
        raise ParameterError("labels() requires at least one label")
    items = []
    for key, value in labelkv.items():
        _check_name(key)
        value = str(value)
        if '"' in value or "\n" in value or "\\" in value:
            raise ParameterError(
                f"label value {value!r} for {key!r} may not contain "
                'quotes, backslashes, or newlines'
            )
        items.append((key, value))
    return tuple(sorted(items))


def format_labels(key: Tuple[Tuple[str, str], ...]) -> str:
    """``(("mode", "thread"),)`` -> ``{mode="thread"}``."""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


class _LabelledMixin:
    """Shared ``labels()`` machinery for Counter and Gauge.

    ``metric.labels(mode="thread")`` returns a *child* metric of the same
    kind keyed by the sorted label set — created once, then reused — so a
    hot path can cache the child and pay the same single-lock ``inc`` as
    an unlabelled metric.  Children ride along with the parent: snapshots
    key them as ``name{k="v"}`` and the Prometheus exposition renders them
    after the parent's bare sample (the unlabelled parent keeps the
    cross-label total, so existing dashboards never break).
    """

    __slots__ = ()

    def labels(self, **labelkv):
        key = _label_key(labelkv)
        with self._lock:
            if self._children is None:
                self._children = {}
            child = self._children.get(key)
            if child is None:
                child = type(self)(self.name, self.help)
                child._labelset = key
                self._children[key] = child
        return child

    def children(self) -> List[Tuple[Tuple[Tuple[str, str], ...], object]]:
        """``[(label_key, child_metric), ...]`` sorted by label key."""
        with self._lock:
            if not self._children:
                return []
            return sorted(self._children.items())


class Counter(_LabelledMixin):
    """A monotonically increasing count (events, items, bytes)."""

    kind = "counter"
    __slots__ = ("name", "help", "_lock", "_value", "_children", "_labelset")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._lock = threading.Lock()
        self._value = 0
        self._children = None
        self._labelset = None

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if not _ENABLED:
            return
        if amount < 0:
            raise ParameterError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def snapshot_value(self):
        return self.value


class Gauge(_LabelledMixin):
    """A value that goes up and down (queue depth, cache entries)."""

    kind = "gauge"
    __slots__ = ("name", "help", "_lock", "_value", "_children", "_labelset")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0
        self._children = None
        self._labelset = None

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self):
        with self._lock:
            return self._value

    def snapshot_value(self):
        return self.value


class Histogram:
    """Fixed-bucket distribution with quantile *estimation*.

    Observations land in the first bucket whose upper bound is ≥ the value
    (cumulative-bucket semantics, exactly Prometheus's); ``percentile(q)``
    linearly interpolates inside the winning bucket, so estimates are exact
    at bucket boundaries and bounded by the bucket width in between —
    fine for latency reporting, not for accounting.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ParameterError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ParameterError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.buckets = bounds
        self._lock = threading.Lock()
        # One slot per finite bound plus the +Inf overflow slot.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        value = float(value)
        index = 0
        for bound in self.buckets:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _state(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``0 ≤ q ≤ 100``), 0.0 when empty.

        Linear interpolation within the winning bucket; observations past
        the last finite bound are reported *as* that bound (the histogram
        cannot see further).
        """
        if not 0 <= q <= 100:
            raise ParameterError(f"percentile must be in [0, 100], got {q}")
        counts, _, total = self._state()
        if total == 0:
            return 0.0
        rank = (q / 100.0) * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            lower_cumulative = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                upper = self.buckets[index]
                lower = self.buckets[index - 1] if index > 0 else 0.0
                if bucket_count == 0:  # pragma: no cover - guarded above
                    return upper
                fraction = (rank - lower_cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]  # pragma: no cover - rank <= total always

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def snapshot_value(self) -> Dict[str, object]:
        counts, total_sum, total = self._state()
        return {
            "count": total,
            "sum": total_sum,
            "buckets": {
                ("+Inf" if index >= len(self.buckets) else repr(self.buckets[index])): c
                for index, c in enumerate(counts)
            },
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """A named collection of metrics with get-or-create registration.

    ``counter``/``gauge``/``histogram`` are idempotent: the first call
    creates, later calls with the same name return the same object (a
    *kind* mismatch raises).  The registry lock guards only the name table;
    every value mutation uses the metric's own lock.
    """

    def __init__(self):
        self._metrics: "Dict[str, object]" = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if metric.kind != kind:
                    raise ParameterError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {kind}"
                    )
                return metric
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), "histogram"
        )

    def get(self, name: str):
        """The registered metric, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def __iter__(self):
        with self._lock:
            metrics = list(self._metrics.values())
        return iter(sorted(metrics, key=lambda metric: metric.name))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """``{name: value}`` for every metric (histograms expand to dicts).

        A point-in-time copy: safe to serialise, mutate, or diff against a
        later snapshot (counters are monotonic, so diffs are rates).
        Labelled children appear under ``name{k="v"}`` keys next to the
        parent's cross-label total.
        """
        out: Dict[str, object] = {}
        for metric in self:
            out[metric.name] = metric.snapshot_value()
            if isinstance(metric, _LabelledMixin):
                for key, child in metric.children():
                    out[metric.name + format_labels(key)] = (
                        child.snapshot_value()
                    )
        return out

    def dump_json(self, *, indent: Optional[int] = 1) -> str:
        """The snapshot as a JSON document (for benches and ``--stats-out``)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Text exposition (format 0.0.4) of every metric in the registries.

    Multiple registries concatenate — the serve endpoint merges the
    process-wide registry with the engine's own — so their metric names
    must not collide (the engine prefixes everything ``repro_engine_``).
    """
    lines: List[str] = []
    for registry in registries:
        for metric in registry:
            if metric.help:
                escaped = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {metric.name} {escaped}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if metric.kind == "histogram":
                counts, total_sum, total = metric._state()
                cumulative = 0
                for bound, count in zip(metric.buckets, counts):
                    cumulative += count
                    lines.append(
                        f'{metric.name}_bucket{{le="{_format_value(bound)}"}}'
                        f" {cumulative}"
                    )
                lines.append(f'{metric.name}_bucket{{le="+Inf"}} {total}')
                lines.append(f"{metric.name}_sum {_format_value(total_sum)}")
                lines.append(f"{metric.name}_count {total}")
            else:
                lines.append(f"{metric.name} {_format_value(metric.value)}")
                if isinstance(metric, _LabelledMixin):
                    for key, child in metric.children():
                        lines.append(
                            f"{metric.name}{format_labels(key)} "
                            f"{_format_value(child.value)}"
                        )
    return "\n".join(lines) + "\n"


#: The process-wide default registry every instrumented subsystem uses.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (kernel, trees, executor families)."""
    return REGISTRY
