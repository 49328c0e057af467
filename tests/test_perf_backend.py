"""One execution path: the retired switch is inert; dtypes are pinned.

Search and construction each have a single batched implementation, so
there is nothing to select — an environment that still exports the old
execution switch (the benchmark launcher does) changes nothing.  The
compute dtype, by contrast, is a real choice and is pinned here.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.construction import build_nsw_gpu
from repro.core.ganns import ganns_search
from repro.core.params import BuildParams, SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import GraphError, SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.stats import graph_digest
from repro.perf.distance import resolve_compute_dtype


def _benchmark_launcher_env():
    """The environment ``perfbench/run.py`` gives its worker process."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    return launcher.child_env()


class TestRetiredExecutionSwitch:
    def test_launcher_switch_is_ignored(self, monkeypatch):
        """The benchmark launcher still exports the retired execution
        switch; with it set (to the launcher's value, or to a value no
        release accepted) search and construction run unchanged."""
        for key in list(os.environ):
            if key.startswith("REPRO_"):
                monkeypatch.delenv(key)
        points = gaussian_mixture(120, 8, seed=1)
        queries = gaussian_mixture(6, 8, seed=2)
        graph = build_nsw_gpu(points, BuildParams(d_min=4, d_max=8,
                                                  n_blocks=3)).graph
        params = SearchParams(k=4, l_n=8)
        expected = ganns_search(graph, points, queries, params)

        # Only what the launcher itself sets: REPRO_* was cleared above.
        switches = {key: value
                    for key, value in _benchmark_launcher_env().items()
                    if key.startswith("REPRO_")}
        assert switches, "the launcher no longer sets a REPRO_ switch"
        bogus = {key: "warp-speed" for key in switches}
        for environment in (switches, bogus):
            for key, value in environment.items():
                monkeypatch.setenv(key, value)
            rebuilt = build_nsw_gpu(points, BuildParams(
                d_min=4, d_max=8, n_blocks=3)).graph
            assert graph_digest(rebuilt) == graph_digest(graph)
            report = ganns_search(graph, points, queries, params)
            assert report.ids.tobytes() == expected.ids.tobytes()
            assert report.dists.tobytes() == expected.dists.tobytes()


class TestComputeDtype:
    def test_default_is_float64(self):
        pts = np.zeros((4, 3), dtype=np.float32)
        qs = np.zeros((2, 3), dtype=np.float32)
        assert resolve_compute_dtype(pts, qs) == np.dtype(np.float64)

    def test_explicit_float32(self):
        pts = np.zeros((4, 3), dtype=np.float32)
        qs = np.zeros((2, 3), dtype=np.float32)
        assert (resolve_compute_dtype(pts, qs, np.float32)
                == np.dtype(np.float32))

    def test_mixed_dtypes_raise(self):
        pts = np.zeros((4, 3), dtype=np.float32)
        qs = np.zeros((2, 3), dtype=np.float64)
        with pytest.raises(SearchError, match="mixed-dtype"):
            resolve_compute_dtype(pts, qs)

    def test_unsupported_dtype_raises(self):
        pts = np.zeros((4, 3), dtype=np.float64)
        qs = np.zeros((2, 3), dtype=np.float64)
        with pytest.raises(SearchError, match="float16"):
            resolve_compute_dtype(pts, qs, np.float16)

    def test_mixed_dtype_surfaces_through_search(self):
        pts = gaussian_mixture(60, 8, seed=1).astype(np.float32)
        qs = gaussian_mixture(4, 8, seed=2).astype(np.float64)
        graph = build_nsw_cpu(pts, d_min=4, d_max=8).graph
        with pytest.raises(SearchError, match="mixed-dtype"):
            ganns_search(graph, pts, qs, SearchParams(k=4, l_n=8))


class TestGraphDtypePinning:
    def test_default_dtype_is_float64(self):
        graph = ProximityGraph(4, 2)
        assert graph.dtype == np.dtype(np.float64)
        assert graph.neighbor_dists.dtype == np.dtype(np.float64)

    def test_float32_rows_stay_float32(self):
        graph = ProximityGraph(4, 2, dtype=np.float32)
        graph.set_row(0, [1, 2], [0.25, 0.5])
        assert graph.neighbor_dists.dtype == np.dtype(np.float32)
        graph.merge_row(0, [3], [0.125])
        assert graph.neighbor_dists.dtype == np.dtype(np.float32)
        assert graph.copy().dtype == np.dtype(np.float32)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(GraphError, match="dtype"):
            ProximityGraph(4, 2, dtype=np.int32)
