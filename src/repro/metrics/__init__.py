"""Accuracy and timing metrics used by the experiment harness (paper §V)."""

from repro.metrics.accuracy import (
    max_error,
    mean_absolute_error,
    result_set_precision,
    top_k_precision,
)
from repro.metrics.timing import Timer, measure

__all__ = [
    "max_error",
    "mean_absolute_error",
    "result_set_precision",
    "top_k_precision",
    "Timer",
    "measure",
]
