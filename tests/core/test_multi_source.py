"""Tests for multi-source CrashSim with shared candidate walks."""

import numpy as np
import pytest

from repro.baselines.power_method import power_method_all_pairs
from repro.core.multi_source import crashsim_multi_source
from repro.core.params import CrashSimParams
from repro.errors import ParameterError

PARAMS = CrashSimParams(c=0.6, epsilon=0.05, n_r_override=800)


class TestCorrectness:
    def test_each_source_matches_ground_truth(self, medium_random_graph):
        graph = medium_random_graph
        truth = power_method_all_pairs(graph, 0.6)
        sources = [0, 17, 123]
        results = crashsim_multi_source(graph, sources, params=PARAMS, seed=1)
        assert [r.source for r in results] == sources
        for result in results:
            estimate = np.zeros(graph.num_nodes)
            estimate[result.candidates] = result.scores
            estimate[result.source] = 1.0
            assert np.abs(truth[result.source] - estimate).max() < 0.06

    def test_candidate_subset(self, paper_graph):
        results = crashsim_multi_source(
            paper_graph, [0, 1], candidates=[2, 3], params=PARAMS, seed=2
        )
        for result in results:
            assert result.candidates.tolist() == [2, 3]

    def test_source_excluded_from_own_candidates(self, paper_graph):
        results = crashsim_multi_source(paper_graph, [0, 3], params=PARAMS, seed=3)
        assert 0 not in results[0].candidates
        assert 3 in results[0].candidates
        assert 3 not in results[1].candidates

    def test_single_source_degenerates_cleanly(self, paper_graph):
        (result,) = crashsim_multi_source(paper_graph, [2], params=PARAMS, seed=4)
        assert result.source == 2
        assert result.scores.max() <= 1.0

    def test_empty_sources(self, paper_graph):
        assert crashsim_multi_source(paper_graph, [], params=PARAMS) == []

    def test_deterministic(self, small_random_graph):
        a = crashsim_multi_source(small_random_graph, [1, 5], params=PARAMS, seed=7)
        b = crashsim_multi_source(small_random_graph, [1, 5], params=PARAMS, seed=7)
        for left, right in zip(a, b):
            assert np.array_equal(left.scores, right.scores)


class TestAmortisation:
    def test_walks_each_candidate_once_for_all_sources(self, medium_random_graph):
        """Walking once for 6 sources is the whole point: the shared run
        starts one walk per trial and walkable candidate, where 6
        independent runs start one per source, trial and candidate.
        Counted from the kernel's walk counter, so no clock is involved
        (the wall-clock form of this check is a gate in
        ``benchmarks/perf_smoke.py``)."""
        from repro import obs
        from repro.core.crashsim import crashsim

        graph = medium_random_graph
        sources = list(range(6))
        n_r = 400
        params = CrashSimParams(c=0.6, epsilon=0.05, n_r_override=n_r)
        walkable = graph.in_degrees() > 0
        walks = obs.REGISTRY.get("repro_kernel_walks_total")

        previous = obs.set_enabled(True)
        try:
            before = walks.value
            crashsim_multi_source(graph, sources, params=params, seed=8)
            shared = walks.value - before

            before = walks.value
            for source in sources:
                crashsim(graph, source, params=params, seed=8)
            independent = walks.value - before
        finally:
            obs.set_enabled(previous)

        assert shared == n_r * int(walkable.sum())
        assert independent == sum(
            n_r * (int(walkable.sum()) - int(walkable[source]))
            for source in sources
        )
        assert shared * 5 < independent, (shared, independent)


class TestValidation:
    def test_bad_source(self, paper_graph):
        with pytest.raises(ParameterError):
            crashsim_multi_source(paper_graph, [0, 99], params=PARAMS)

    def test_bad_candidate(self, paper_graph):
        with pytest.raises(ParameterError):
            crashsim_multi_source(
                paper_graph, [0], candidates=[99], params=PARAMS
            )
