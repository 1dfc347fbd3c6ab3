"""Tests for the timing helpers."""

import time

import pytest

from repro.metrics.timing import Timer, measure


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009

    def test_reusable(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            time.sleep(0.005)
        assert timer.elapsed >= first

    def test_exception_still_records(self):
        timer = Timer()
        with pytest.raises(RuntimeError):
            with timer:
                raise RuntimeError("boom")
        assert timer.elapsed >= 0.0


class TestMeasure:
    def test_returns_result_and_time(self):
        result, elapsed = measure(lambda: 21 * 2)
        assert result == 42
        assert elapsed >= 0.0
