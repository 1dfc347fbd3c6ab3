"""√c-walk sampling (paper Definition 1), scalar and vectorised.

A √c-walk stops at each step with probability ``1 - √c`` and otherwise moves
to a uniformly random in-neighbour of the current node.  The scalar sampler
(:func:`sample_sqrt_c_walk`) mirrors the definition literally and is used by
tests and small baselines; the batch engine (:class:`BatchWalkStepper`)
advances thousands of walks per NumPy step and powers CrashSim and READS.
"""

from repro.walks.engine import BatchWalkStepper, WalkBatch
from repro.walks.kernel import SAMPLERS, WalkCrashKernel
from repro.walks.sqrt_c import (
    expected_walk_length,
    sample_sqrt_c_walk,
    sample_walk_length,
)

__all__ = [
    "sample_sqrt_c_walk",
    "sample_walk_length",
    "expected_walk_length",
    "BatchWalkStepper",
    "WalkBatch",
    "WalkCrashKernel",
    "SAMPLERS",
]
