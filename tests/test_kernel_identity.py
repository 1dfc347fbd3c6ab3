"""Fused-kernel byte-identity harness against the pinned seed fixtures.

``tests/test_seed_behaviour.py`` pins the production entry points; this
harness pins the *kernel* specifically: every execution surface the fused
walk–crash kernel serves — the serial estimator, seed-sharded parallel
execution, the streaming temporal session — must reproduce the fixture's
exact float bit patterns on the default ``sampler="cdf"``, and the numba
path (when the ``[jit]`` extra is installed, e.g. under ``REPRO_JIT=1`` in
the optional CI leg) must reproduce the same bits again.

Regenerating the fixture is reserved for *intended* behaviour changes:
``PYTHONPATH=src python tests/fixtures/make_seed_behaviour.py``.
"""

import json
import pathlib

import pytest

from repro.core.crashsim import crashsim
from repro.core.params import CrashSimParams
from repro.core.queries import ThresholdQuery
from repro.core.streaming import TemporalQuerySession
from repro.graph.generators import evolve_snapshots, preferential_attachment
from repro.parallel import parallel_crashsim
from repro.walks import _jit
from repro.walks.kernel import WalkCrashKernel

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "seed_behaviour.json"
PARAMS = CrashSimParams(n_r_override=64)

needs_numba = pytest.mark.skipif(
    not _jit.available(), reason="numba not installed (the [jit] extra)"
)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment(120, 3, directed=True, seed=5)


def to_hex(values):
    return [float.hex(float(v)) for v in values]


def assert_static_bits(pinned, result):
    assert result.candidates.tolist() == pinned["static"]["candidates"]
    assert to_hex(result.scores) == pinned["static"]["scores"]


def run_session(graph, sampler="cdf"):
    temporal = evolve_snapshots(graph, 6, churn_rate=0.01, seed=9)
    session = TemporalQuerySession(
        0,
        ThresholdQuery(theta=0.001),
        params=PARAMS,
        seed=77,
        sampler=sampler,
    )
    history = []
    for index in range(temporal.num_snapshots):
        session.push_snapshot(temporal.snapshot(index))
        history.append(dict(session.scores))
    return session, history


class TestDefaultSamplerIsPinned:
    def test_serial_kernel_path(self, pinned, graph):
        result = crashsim(graph, 0, params=PARAMS, seed=123, sampler="cdf")
        assert_static_bits(pinned, result)

    def test_kernel_buffer_reuse_reproduces_pinned_bits(self, pinned, graph):
        # Warm buffers from an unrelated accumulate must not perturb the
        # pinned run: a reused kernel is bit-equivalent to a fresh one.
        kernel = WalkCrashKernel(graph, PARAMS.c)
        warmup = crashsim(graph, 7, params=PARAMS, seed=5)
        assert warmup.scores.size  # the warm-up actually ran
        result = crashsim(graph, 0, params=PARAMS, seed=123)
        assert_static_bits(pinned, result)
        del kernel

    def test_parallel_workers4(self, pinned, graph):
        result = parallel_crashsim(
            graph, 0, params=PARAMS, seed=123, workers=4, sampler="cdf",
            shards=16,
        )
        assert result.candidates.tolist() == pinned["parallel_w1"]["candidates"]
        assert to_hex(result.scores) == pinned["parallel_w1"]["scores"]

    def test_temporal_session(self, pinned, graph):
        # The streaming session replays batch CrashSim-T (pruned defaults)
        # snapshot by snapshot; its per-snapshot alive-candidate scores
        # must land on the pinned bits.
        _, history = run_session(graph)
        expected = pinned["crashsim_t"]["pruned"]["history"]
        assert len(history) == len(expected)
        assert sum(len(snap) for snap in history) > 0  # not vacuous
        for snap, pinned_snap in zip(history, expected):
            got = {str(node): float.hex(float(s)) for node, s in snap.items()}
            # The session only reports candidates still alive; every one of
            # them must match the batch driver's pinned bits exactly.
            assert got.keys() <= pinned_snap.keys()
            for node, bits in got.items():
                assert bits == pinned_snap[node]


@needs_numba
class TestJitIsPinned:
    """The compiled stepper replays the NumPy op order bit for bit."""

    def test_serial(self, pinned, graph, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        result = crashsim(graph, 0, params=PARAMS, seed=123)
        assert_static_bits(pinned, result)

    def test_parallel_workers4(self, pinned, graph, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        result = parallel_crashsim(
            graph, 0, params=PARAMS, seed=123, workers=4, shards=16
        )
        assert to_hex(result.scores) == pinned["parallel_w1"]["scores"]

    def test_temporal_session(self, pinned, graph, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        _, jit_history = run_session(graph)
        expected = pinned["crashsim_t"]["pruned"]["history"]
        for snap, pinned_snap in zip(jit_history, expected):
            for node, score in snap.items():
                assert float.hex(float(score)) == pinned_snap[str(node)]
