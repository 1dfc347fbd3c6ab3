"""Run the doctests embedded in docstrings that promise exact behaviour."""

import doctest

import pytest

import repro.core.queries
import repro.graph.builder
import repro.graph.digraph
import repro.metrics.timing

MODULES = [
    repro.graph.builder,
    repro.graph.digraph,
    repro.core.queries,
    repro.metrics.timing,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0
