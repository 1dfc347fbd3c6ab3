"""Wall-clock measurement helpers for the experiment harness.

The paper reports *response time* (for index-based algorithms: indexing
time plus computation time — §V-A).  :class:`Timer` is a context manager;
:func:`measure` wraps a callable.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

__all__ = ["Timer", "measure"]


class Timer:
    """Context manager capturing elapsed wall-clock seconds.

    >>> with Timer() as timer:
    ...     sum(range(1001))
    500500
    >>> timer.elapsed >= 0.0
    True
    """

    def __init__(self):
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start


def measure(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Call ``fn`` and return ``(result, elapsed_seconds)``."""
    with Timer() as timer:
        result = fn()
    return result, timer.elapsed
