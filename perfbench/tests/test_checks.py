"""Each correctness checker accepts a right answer and rejects a corrupted one."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import checks


def test_within_bound_accepts_an_answer_inside_its_epsilon():
    expectation = np.linspace(0.0, 0.5, 20)
    scores = expectation + 0.04
    assert checks.within_bound(scores, expectation, np.arange(20), 0.05) is None


def test_within_bound_rejects_a_corrupted_score():
    expectation = np.linspace(0.0, 0.5, 20)
    scores = expectation.copy()
    scores[7] += 0.2
    problem = checks.within_bound(scores, expectation, np.arange(20), 0.05)
    assert problem is not None and "node 7" in problem


@pytest.mark.parametrize("epsilon", [None, float("nan"), float("inf")])
def test_within_bound_rejects_a_missing_epsilon(epsilon):
    values = np.zeros(4)
    assert checks.within_bound(values, values, np.arange(4), epsilon) is not None


def test_top_k_orders_by_score_then_node_and_skips_the_source():
    scores = np.array([1.0, 0.2, 0.5, 0.3, 0.0, 0.7])
    assert checks.top_k(scores, 0, 3) == [(5, 0.7), (2, 0.5), (3, 0.3)]
    tied = np.array([1.0, 0.1, 0.5, 0.5])
    assert checks.top_k(tied, 0, 2) == [(2, 0.5), (3, 0.5)]


def test_same_top_k_accepts_the_identical_ranking():
    scores = np.random.default_rng(0).random(100)
    expected = checks.top_k(scores, 3, 10)
    served = [[node, score] for node, score in expected]
    assert checks.same_top_k(served, expected) is None


def test_same_top_k_rejects_a_last_bit_change():
    scores = np.random.default_rng(1).random(100)
    expected = checks.top_k(scores, 3, 10)
    served = [[node, score] for node, score in expected]
    served[4][1] = float(np.nextafter(served[4][1], 2.0))
    assert "rank 4" in checks.same_top_k(served, expected)


def test_same_top_k_rejects_a_swapped_or_short_ranking():
    scores = np.random.default_rng(2).random(100)
    expected = checks.top_k(scores, 3, 10)
    swapped = [list(pair) for pair in expected]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert checks.same_top_k(swapped, expected) is not None
    assert checks.same_top_k(expected[:-1], expected) is not None


def test_same_survivors_accepts_equal_streams():
    stream = [(1, 2, 3), (1, 3)]
    assert checks.same_survivors(stream, [tuple(s) for s in stream]) is None


def test_same_survivors_rejects_a_dropped_survivor_or_push():
    stream = [(1, 2, 3), (1, 3)]
    assert "push 1" in checks.same_survivors(stream, [(1, 2, 3), (1,)])
    assert checks.same_survivors(stream, stream[:1]) is not None


def _estimates(seed, nodes=2000, trials=32, bound=0.8):
    """Means of ``trials`` independent values in {0, bound} per node."""
    rng = np.random.default_rng(seed)
    expectation = rng.uniform(0.0, 0.3, nodes)
    expectation[::3] = 0.0
    hits = rng.random((trials, nodes)) < expectation / bound
    return (hits * bound).mean(axis=0), expectation


@pytest.mark.parametrize("seed", range(5))
def test_sum_within_bernstein_accepts_honest_estimates(seed):
    scores, expectation = _estimates(seed)
    nodes = np.arange(scores.size)
    assert checks.sum_within_bernstein(scores, expectation, nodes, 0.8, 32, 1e-6) is None
    assert checks.zero_where_expected_zero(scores, expectation, nodes) is None


def test_sum_within_bernstein_rejects_a_zeroed_or_scaled_vector():
    scores, expectation = _estimates(7)
    nodes = np.arange(scores.size)
    for corrupted in (np.zeros_like(scores), scores * 0.8):
        problem = checks.sum_within_bernstein(corrupted, expectation, nodes, 0.8, 32, 1e-6)
        assert problem is not None and "Bernstein" in problem


def test_zero_where_expected_zero_rejects_a_permuted_vector():
    scores, expectation = _estimates(8)
    nodes = np.arange(scores.size)
    permuted = scores[np.random.default_rng(0).permutation(scores.size)]
    assert "expectation 0" in checks.zero_where_expected_zero(permuted, expectation, nodes)
