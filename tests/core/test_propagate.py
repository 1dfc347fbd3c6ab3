"""Differential tests for the revReach level propagator.

``_propagate_sparse`` sums each level's duplicate children either by a
dense scatter (big levels) or by a sort (small levels), and reuses the
flattened in-edge block when a frontier repeats.  ``_reference_propagate``
below is the earlier sort-only propagator, kept verbatim as the oracle:
every level's ``(nodes, probs)`` must match it byte for byte, whichever
branch the level took.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import revreach
from repro.core.revreach import (
    SparseReverseTree,
    _propagate_sparse,
    revreach_levels,
    revreach_update,
)
from repro.datasets import powerlaw_fixture
from repro.graph.digraph import DiGraph


def _reference_propagate(
    graph: DiGraph,
    frontier_nodes: np.ndarray,
    frontier_probs: np.ndarray,
    steps: int,
    sqrt_c: float,
    variant: str,
    prune_below: float = 0.0,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The sort-only propagator: ``unique`` + ``bincount`` on every level."""
    indptr = graph.in_indptr
    indices = graph.in_indices
    in_degrees = graph.in_degrees().astype(np.float64) if variant == "paper" else None
    weight_totals = graph.in_weight_totals() if graph.is_weighted else None

    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    for _ in range(steps):
        if frontier_nodes.size == 0:
            levels.append(empty)
            continue
        counts = (
            indptr[frontier_nodes + 1] - indptr[frontier_nodes]
        ).astype(np.int64)
        keep = counts > 0
        nodes = frontier_nodes[keep]
        probs = frontier_probs[keep]
        counts = counts[keep]
        if nodes.size == 0:
            frontier_nodes, frontier_probs = empty
            levels.append(empty)
            continue
        total = int(counts.sum())
        starts = indptr[nodes]
        cum = np.zeros(nodes.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=cum[1:])
        flat = np.repeat(starts - cum, counts) + np.arange(total, dtype=np.int64)
        children = indices[flat].astype(np.int64)
        if variant == "corrected":
            if weight_totals is None:
                weights = np.repeat(sqrt_c * probs / counts, counts)
            else:
                weights = (
                    np.repeat(sqrt_c * probs / weight_totals[nodes], counts)
                    * graph.in_weights[flat]
                )
        else:
            child_degrees = in_degrees[children]
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = np.where(
                    child_degrees > 0,
                    sqrt_c * np.repeat(probs, counts) / child_degrees,
                    0.0,
                )
        level_nodes, inverse = np.unique(children, return_inverse=True)
        level_probs = np.bincount(
            inverse, weights=weights, minlength=level_nodes.size
        )
        occupied = level_probs != 0.0
        if prune_below > 0.0:
            occupied &= level_probs >= prune_below
        if not occupied.all():
            level_nodes = level_nodes[occupied]
            level_probs = level_probs[occupied]
        frontier_nodes = level_nodes
        frontier_probs = level_probs
        levels.append((level_nodes, level_probs))
    return levels


def _paths_taken(graph: DiGraph, frontier: np.ndarray, levels) -> set:
    """Which aggregation branches (and block reuses) a propagation hit.

    Mirrors the size rule of ``_propagate_sparse``: a level whose input
    frontier flattens to ``total`` children scatters when
    ``total * _SCATTER_DIVISOR >= n``.
    """
    degrees = np.asarray(graph.in_degrees(), dtype=np.int64)
    inputs = [frontier] + [nodes for nodes, _ in levels[:-1]]
    taken = set()
    for previous, current in zip([None] + inputs[:-1], inputs):
        total = int(degrees[current].sum())
        if total == 0:
            continue
        if total * revreach._SCATTER_DIVISOR >= graph.num_nodes:
            taken.add("scatter")
        else:
            taken.add("sort")
        if previous is not None and np.array_equal(previous, current):
            taken.add("reuse")
    return taken


def _assert_levels_identical(actual, expected) -> None:
    assert len(actual) == len(expected)
    for step, ((nodes, probs), (ref_nodes, ref_probs)) in enumerate(
        zip(actual, expected)
    ):
        assert nodes.dtype == ref_nodes.dtype == np.int64, step
        assert probs.dtype == ref_probs.dtype == np.float64, step
        assert nodes.tobytes() == ref_nodes.tobytes(), step
        assert probs.tobytes() == ref_probs.tobytes(), step


_WEIGHTS = st.sampled_from([1.0, 0.5, 3.0, 1e-3])


@st.composite
def propagation_cases(draw):
    """A raw-CSR graph (self-loops and parallel arcs allowed, dangling
    nodes likely) and a frontier to propagate from."""
    n = draw(st.integers(1, 160))
    m = draw(st.integers(0, 3 * n))
    node = st.integers(0, n - 1)
    sources = np.array(draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
    targets = np.array(draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
    weighted = draw(st.booleans())
    weights = None
    if weighted:
        weights = np.array(
            draw(st.lists(_WEIGHTS, min_size=m, max_size=m)), dtype=np.float64
        )
    graph = DiGraph(n, sources, targets, weights=weights)
    frontier = np.array(
        sorted(draw(st.sets(node, min_size=1, max_size=min(n, 6)))), dtype=np.int64
    )
    # Zero frontier mass gives zero-weight arcs and hence zero bins (the
    # "paper" variant adds more: children without in-arcs weigh 0.0).
    probs = np.array(
        draw(
            st.lists(
                st.sampled_from([1.0, 0.25, 0.0, 1e-9]),
                min_size=frontier.size,
                max_size=frontier.size,
            )
        ),
        dtype=np.float64,
    )
    variant = "corrected" if weighted else draw(st.sampled_from(["corrected", "paper"]))
    # 0.125 is dyadic: with c = 0.25 (√c = 0.5) level masses hit it exactly.
    prune_below = draw(st.sampled_from([0.0, 0.0, 1e-4, 0.05, 0.125]))
    steps = draw(st.integers(1, 12))
    c = draw(st.sampled_from([0.25, 0.6, 0.8]))
    return graph, frontier, probs, steps, math.sqrt(c), variant, prune_below


class TestDifferential:
    def test_matches_sort_only_reference(self):
        taken = set()

        @settings(max_examples=300, deadline=None)
        @given(propagation_cases())
        def check(case):
            graph, frontier, probs, steps, sqrt_c, variant, prune_below = case
            expected = _reference_propagate(
                graph, frontier, probs, steps, sqrt_c, variant, prune_below
            )
            actual = _propagate_sparse(
                graph, frontier, probs, steps, sqrt_c, variant, prune_below
            )
            _assert_levels_identical(actual, expected)
            taken.update(_paths_taken(graph, frontier, expected))

        check()
        assert taken == {"scatter", "sort", "reuse"}

    @pytest.mark.parametrize("variant", ["corrected", "paper"])
    def test_repeating_frontier_reuses_block(self, variant):
        # Complete digraph on 3 nodes plus dangling 3..99: from {0} the
        # frontier saturates at {0, 1, 2} on level 2 and repeats after.
        edges = [(s, t) for s in range(3) for t in range(3) if s != t]
        graph = DiGraph.from_edges(100, edges)
        frontier = np.array([0], dtype=np.int64)
        probs = np.array([1.0])
        expected = _reference_propagate(graph, frontier, probs, 10, 0.8, variant)
        actual = _propagate_sparse(graph, frontier, probs, 10, 0.8, variant)
        _assert_levels_identical(actual, expected)
        assert _paths_taken(graph, frontier, expected) == {"sort", "reuse"}

    def test_self_loop_saturates_under_scatter(self):
        # 0 -> 0 and 1 -> 0 on a 4-node graph: 2 children * 8 >= 4, so every
        # level scatters, and frontier {0, 1} repeats from level 1 on.
        graph = DiGraph(4, np.array([0, 1, 1]), np.array([0, 0, 1]))
        frontier = np.array([0], dtype=np.int64)
        probs = np.array([1.0])
        expected = _reference_propagate(graph, frontier, probs, 8, 0.7, "corrected")
        actual = _propagate_sparse(graph, frontier, probs, 8, 0.7, "corrected")
        _assert_levels_identical(actual, expected)
        assert _paths_taken(graph, frontier, expected) == {"scatter", "reuse"}

    def test_zero_bins_drop_on_both_branches(self):
        # Node 0's in-arcs: a heavy one from 1 and one from 2 weighing the
        # smallest normal float, whose transition (mass / 1e16 * tiny)
        # underflows to exactly 0.0.  With n = 3 the level scatters; padded
        # to n = 64 it sorts.  Node 2 must drop either way.
        frontier = np.array([0], dtype=np.int64)
        probs = np.array([0.5])
        weights = np.array([1e16, np.finfo(float).tiny])
        for n, branch in ((3, "scatter"), (64, "sort")):
            graph = DiGraph(n, np.array([1, 2]), np.array([0, 0]), weights=weights)
            levels = _propagate_sparse(graph, frontier, probs, 1, 0.8, "corrected")
            assert levels[0][0].tolist() == [1]
            _assert_levels_identical(
                levels,
                _reference_propagate(graph, frontier, probs, 1, 0.8, "corrected"),
            )
            assert _paths_taken(graph, frontier, levels) == {branch}


class TestFixtureHubs:
    """Top-3 in-degree hubs of the pinned power-law fixture, end to end."""

    L_MAX = 35
    C = 0.6

    @pytest.fixture(scope="class")
    def graph(self):
        return powerlaw_fixture()

    @pytest.fixture(scope="class")
    def hubs(self, graph):
        degrees = np.asarray(graph.in_degrees(), dtype=np.int64)
        order = np.lexsort((np.arange(degrees.size), -degrees))
        return [int(node) for node in order[:3]]

    def _reference_tree(self, graph, source):
        root = (np.array([source], dtype=np.int64), np.array([1.0]))
        levels = [root] + _reference_propagate(
            graph, *root, self.L_MAX, math.sqrt(self.C), "corrected"
        )
        return SparseReverseTree.from_levels(
            source, self.C, self.L_MAX, "corrected", graph.num_nodes, levels
        )

    @staticmethod
    def _assert_trees_identical(actual, expected):
        assert actual.level_indptr.tobytes() == expected.level_indptr.tobytes()
        assert actual.nodes.tobytes() == expected.nodes.tobytes()
        assert actual.probs.tobytes() == expected.probs.tobytes()

    def test_revreach_levels_matches_reference(self, graph, hubs):
        taken = set()
        for source in hubs:
            tree = revreach_levels(graph, source, self.L_MAX, self.C)
            self._assert_trees_identical(tree, self._reference_tree(graph, source))
            root = np.array([source], dtype=np.int64)
            levels = [tree.level_arrays(step) for step in range(1, self.L_MAX + 1)]
            taken |= _paths_taken(graph, root, levels)
        # The top hub's own in-block (7,021 arcs) already scatters; the
        # others sort on level 1 and scatter once their frontier widens.
        assert taken == {"scatter", "sort", "reuse"}

    def test_revreach_update_matches_reference(self, graph, hubs):
        sources = np.repeat(np.arange(graph.num_nodes), np.diff(graph.out_indptr))
        targets = np.asarray(graph.out_indices, dtype=np.int64)
        for source in hubs:
            tree = revreach_levels(graph, source, self.L_MAX, self.C)
            # Drop one in-arc of the hub itself: the rebase starts at level 0.
            arc = int(np.flatnonzero(targets == source)[0])
            removed = [(int(sources[arc]), source)]
            keep = np.ones(targets.size, dtype=bool)
            keep[arc] = False
            new_graph = DiGraph(graph.num_nodes, sources[keep], targets[keep])
            updated = revreach_update(tree, new_graph, [], removed)
            expected = self._reference_tree(new_graph, source)
            self._assert_trees_identical(updated, expected)
            dense = revreach_update(tree.to_dense(), new_graph, [], removed)
            assert np.array_equal(dense.matrix, updated.matrix)
