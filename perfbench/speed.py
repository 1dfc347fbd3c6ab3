"""Machine speed, measured next to the ops, to put every time on one scale.

The benchmark runs on a few vCPUs of a shared host whose speed drifts.
The same fixed op gets 15-40% slower or faster over tens of seconds,
because other guests contend for the host's caches and memory, and the
op's own CPU time (``time.thread_time``) drifts with it. Steal time
shows only part of it. Two sets of runs of the same code then disagree
by more than any useful bound.

A probe is a fixed piece of numpy work that never touches the program:
random gathers and a bincount over a 128k-element array, and sorts of
50,000 floats. Its arrays (about 1.5 MB) are the size of the fixture's
CSR arrays: they stay in the core's cache as the program's do, and
below the size at which numpy asks for huge pages, whose availability
differs from process to process. Contention slows the probe and the
program alike. In ten fresh processes each timing a fixed cold-fixed
op set and the probe in turn, the op's median had an IQR of 8.6% of
its median and the probe's 8.4%; their ratio, 3.1%. A probe over 8 MB
arrays varied twice as much as the op and left 6.6%.

The probe runs every ``PROBE_EVERY_S`` between ops, while no op is in
flight (``workload.run_ops``), and in a block at each end of set-up. A
time measured next to probes of median ``p`` is multiplied by
``factor = REFERENCE_PROBE_MS / p``: it becomes the time it would have
taken when the probe ran in ``REFERENCE_PROBE_MS``. On hot-serve only
the engine's part of an op scales (``HotServe.scaled_latency``); the
rest is mostly a TCP timer. The raw times stay in the record beside the
scaled ones. A program change cannot move the probe, so it moves the
scaled figures as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["Probe", "REFERENCE_PROBE_MS", "PROBE_EVERY_S", "SETUP_PROBES", "factor"]

#: About the probe's median on the 2-vCPU Xeon VM the benchmark was
#: defined on.  It sets only the unit of the scaled figures.
REFERENCE_PROBE_MS = 16.0

#: A probe runs when this long has passed since the last one (about 6%
#: of a window).
PROBE_EVERY_S = 0.3

#: Probes in each of the blocks at the start and the end of set-up.
SETUP_PROBES = 5


class Probe:
    """Fixed numpy work; each call returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.random(1 << 17)
        self.index = rng.integers(0, 1 << 17, 1 << 17).astype(np.int32)
        self.keys = rng.random(50_000)
        self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(16):
            self.values[self.index].sum()
            np.bincount(self.index & 0xFFFF, minlength=1 << 16)
        for _ in range(8):
            np.sort(self.keys, kind="quicksort")
        return time.perf_counter() - t0

    def block(self, count: int) -> list:
        """``count`` probes back to back, in milliseconds."""
        return [self() * 1e3 for _ in range(count)]


def factor(probes_ms) -> float:
    """What a time measured next to ``probes_ms`` is multiplied by."""
    return REFERENCE_PROBE_MS / statistics.median(probes_ms)
