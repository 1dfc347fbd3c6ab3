"""The speed probe and its place between ops."""

from __future__ import annotations

import threading
import time

import pytest

pytest.importorskip("repro")

from perfbench import speed  # noqa: E402
from perfbench.workload import HotServe, Workload, run_ops  # noqa: E402


def test_factor_scales_by_the_median_probe():
    reference = speed.REFERENCE_PROBE_MS
    assert speed.factor([reference]) == pytest.approx(1.0)
    # A machine twice as slow halves a time; outliers do not move it.
    assert speed.factor([2 * reference, 2 * reference, 100 * reference]) == pytest.approx(0.5)


def test_hot_serve_scales_only_the_engine_time():
    workload = HotServe(1, ".")
    workload.notes[0] = (0.06, 0, 0)
    # 40 ms outside the engine stay, 60 ms inside it halve.
    assert workload.scaled_latency(0, 0.1, 0.5) == pytest.approx(0.07)
    assert _Sleeper().scaled_latency(0, 0.1, 0.5) == pytest.approx(0.05)


def test_probe_is_fixed_work():
    probe = speed.Probe()
    times = probe.block(3)
    assert len(times) == 3 and all(t > 0 for t in times)
    values = speed.Probe().values
    assert (values == probe.values).all()


class _Sleeper(Workload):
    """Ops that sleep, and count how many run at once."""

    def __init__(self):
        super().__init__(1, ".")
        self.active = 0
        self.lock = threading.Lock()

    def op(self, index, conn):
        with self.lock:
            self.active += 1
        time.sleep(0.005)
        with self.lock:
            self.active -= 1
        return index


def test_probes_run_with_no_op_in_flight(monkeypatch):
    monkeypatch.setattr(speed, "PROBE_EVERY_S", 0.02)
    workload = _Sleeper()
    seen = []

    def probe():
        seen.append(workload.active)
        time.sleep(0.01)
        return 0.01

    started = time.perf_counter()
    records, _, window, _, probes = run_ops(
        workload, conns=[None, None], seconds=0.3, probe=probe
    )
    elapsed = time.perf_counter() - started
    assert len(probes) >= 3
    assert seen == [0] * len(probes)
    assert [ms for _, ms in probes] == [10.0] * len(probes)
    assert [error for _, _, _, error, _ in records] == [None] * len(records)
    # The window leaves the probes out.
    assert window == pytest.approx(elapsed - len(probes) * 0.01, abs=0.005)


def test_no_probe_without_a_probe(monkeypatch):
    monkeypatch.setattr(speed, "PROBE_EVERY_S", 0.0)
    _, _, _, _, probes = run_ops(_Sleeper(), conns=[None], count=5)
    assert probes == []
