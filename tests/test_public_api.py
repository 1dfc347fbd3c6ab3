"""The promised public surface of the ``repro`` package."""

import os
import pathlib
import subprocess
import sys

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_quickstart_docstring_flow(self):
        """The README / module-docstring quickstart must keep working."""
        from repro import CrashSimParams, GraphBuilder, crashsim

        builder = GraphBuilder(directed=True)
        builder.add_edges([("b", "a"), ("c", "a"), ("a", "b"), ("d", "c")])
        graph = builder.build()
        result = crashsim(
            graph,
            builder.node_id("a"),
            params=CrashSimParams(c=0.6, epsilon=0.1, n_r_override=200),
            seed=7,
        )
        expected = sorted(builder.node_id(x) for x in ("b", "c", "d"))
        assert sorted(result.as_dict()) == expected


IMPORT_HYGIENE_SCRIPT = """
import sys

import repro

assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
from repro import power_method_all_pairs
from repro.baselines import probesim
from repro.datasets.example_graph import example_graph

graph = example_graph()
exact = power_method_all_pairs(graph, 0.6, iterations=10)
assert exact.shape == (graph.num_nodes, graph.num_nodes)
scores = probesim(graph, 0, n_r=20, seed=1)
assert scores.shape == (graph.num_nodes,)
assert "scipy.sparse" in sys.modules
"""


class TestImportHygiene:
    def test_import_leaves_scipy_unloaded(self):
        """No query path needs scipy; the baselines that build sparse
        matrices import it when they first build one."""
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", IMPORT_HYGIENE_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
