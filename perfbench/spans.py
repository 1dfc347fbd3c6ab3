"""Self-time arithmetic and Chrome trace export over ``repro.obs`` span trees.

A traced op is one :class:`repro.obs.Trace` whose root span is named
:data:`OP`.  The spans inside it come from two places: *layer* spans,
which ``perfbench/layers.py`` opens around each layer's entry points, and
the program's own phases (``tree_build``, ``walk_kernel``, ...).  Only
layer spans are attributed; a program phase is transparent, so its time
counts toward the nearest layer span around it.

Works on anything shaped like :class:`repro.obs.Span` (``name``,
``started``, ``elapsed``, ``children``, ``meta``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List

__all__ = [
    "OP",
    "layer_spans",
    "op_breakdown",
    "to_dict",
    "from_dict",
    "chrome_events",
    "write_chrome_trace",
]

#: Name of the root span the load generator opens around every op.
OP = "op"


def _end(span) -> float:
    return span.started + span.elapsed


def _layer_children(span, layers) -> Iterator:
    """The nearest layer spans below ``span``, looking through other spans."""
    for child in span.children:
        if child.name in layers:
            yield child
        else:
            yield from _layer_children(child, layers)


def layer_spans(root, layers) -> Iterator:
    """Every layer span in the tree under ``root`` (``root`` excluded)."""
    for child in _layer_children(root, layers):
        yield child
        yield from layer_spans(child, layers)


def _covered(parent, children: Iterable) -> float:
    """Length of the union of ``children`` clipped to ``parent``."""
    intervals = sorted(
        (max(c.started, parent.started), min(_end(c), _end(parent))) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def op_breakdown(root, layers) -> dict:
    """One op's wall time, self time per layer, and unattributed time.

    A layer span's self time is its duration minus the part the layer
    spans nearest below it cover; the root's is the unattributed time.
    Self times plus unattributed time equal the wall time whenever
    sibling spans do not overlap.
    """
    result = {"wall": root.elapsed, "unattributed": 0.0, "layers": defaultdict(float)}

    def visit(span, is_root):
        below = list(_layer_children(span, layers))
        own = span.elapsed - _covered(span, below)
        if is_root:
            result["unattributed"] = own
        else:
            result["layers"][span.name] += own
        for child in below:
            visit(child, False)

    visit(root, True)
    return result


def _plain(value):
    """JSON stand-in for the numpy scalars programs put in span metadata."""
    return value.item() if hasattr(value, "item") else str(value)


def to_dict(span) -> dict:
    """A JSON-ready copy of the tree, start times included."""
    return {
        "name": span.name,
        "started": span.started,
        "elapsed": span.elapsed,
        "meta": json.loads(json.dumps(span.meta or {}, default=_plain)),
        "children": [to_dict(child) for child in span.children],
    }


def from_dict(payload: dict):
    """The inverse of :func:`to_dict`, as :class:`repro.obs.Span` objects."""
    from repro.obs import Span

    span = Span(payload["name"], payload["meta"] or None)
    span.started = payload["started"]
    span.elapsed = payload["elapsed"]
    span.children = [from_dict(child) for child in payload["children"]]
    return span


def chrome_events(roots: Iterable, *, pid: int = 1) -> List[dict]:
    """Complete ("X") trace events, microseconds from the first op.

    Each op goes on the track of the thread that ran it (its root's
    ``thread`` metadata), server spans included, so the spans of one
    track nest the way Perfetto expects.
    """
    roots = list(roots)
    if not roots:
        return []
    origin = min(root.started for root in roots)
    events = []

    def emit(span, op, tid):
        args = {"op": op}
        args.update(span.meta or {})
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": round((span.started - origin) * 1e6, 3),
                "dur": round(span.elapsed * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for child in span.children:
            emit(child, op, tid)

    for root in roots:
        meta = root.meta or {}
        emit(root, meta.get("op"), meta.get("thread", 0))
    return events


def write_chrome_trace(path: str, roots: Iterable, metadata: Dict[str, object]) -> None:
    """Write the op trees as Chrome trace-event JSON (opens in Perfetto)."""
    payload = {
        "traceEvents": chrome_events(roots),
        "displayTimeUnit": "ms",
        "otherData": metadata,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=_plain)
