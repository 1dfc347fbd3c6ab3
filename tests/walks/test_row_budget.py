"""One dense-row budget per kernel call, however many trees it scores.

A multi-tree call caches each tree's dense ``U`` rows lazily.  The budget
covers the call, not each tree: rows cached by all trees together stay
within ``dense_row_budget``, the trees past it read through
``tree.gather``, and no score bit depends on which trees got rows.
"""

import numpy as np
import pytest

from repro.core.revreach import revreach_levels
from repro.graph.generators import erdos_renyi
from repro.walks import kernel as kernel_module
from repro.walks.kernel import WalkCrashKernel

C = 0.6
L_MAX = 10
TRIALS = 16
SEED = 7


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(1000, 5000, seed=3)


@pytest.fixture(scope="module")
def trees(graph):
    return [revreach_levels(graph, source, L_MAX, C) for source in (0, 1, 2, 3)]


@pytest.fixture(scope="module")
def tree_bytes(graph):
    return (L_MAX + 1) * graph.num_nodes * 8


TARGETS = np.arange(100, 400, dtype=np.int64)


@pytest.fixture
def made_rows(monkeypatch):
    """Every ``_TreeRows`` the kernel builds, in order."""
    made = []

    class Recording(kernel_module._TreeRows):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(kernel_module, "_TreeRows", Recording)
    return made


def cached_bytes(made):
    return sum(
        row.nbytes
        for rows in made
        for row in (rows._rows or [])
        if row is not None
    )


def run(graph, trees, budget, method):
    kernel = WalkCrashKernel(graph, C, dense_row_budget=budget)
    result = getattr(kernel, method)(trees, TARGETS, TRIALS, l_max=L_MAX, rng=SEED)
    return np.stack(result) if isinstance(result, tuple) else result


@pytest.mark.parametrize("method", ["accumulate_multi", "accumulate_multi_moments"])
def test_rows_cached_by_every_tree_fit_one_budget(
    graph, trees, tree_bytes, made_rows, method
):
    budget = tree_bytes * 3 // 2
    limited = run(graph, trees, budget, method)
    assert 0 < cached_bytes(made_rows) <= budget
    # The first tree gets rows, the rest read through the tree.
    assert [rows.nbytes for rows in made_rows] == [tree_bytes, 0, 0, 0]
    # Which trees got rows moves no bit: all rows, and no rows at all.
    assert np.array_equal(limited, run(graph, trees, 4 * tree_bytes, method))
    assert np.array_equal(limited, run(graph, trees, 0, method))

