"""Oracle equivalence: ``ganns_search`` == ``ganns_search_reference``.

The arena-backed search's whole contract is "same answers, same
accounting as the plain-NumPy oracle, less wall-clock".  This suite
pins the contract:

- search ids, iterations and distance counts match **exactly** (and the
  golden workload's ids byte-for-byte against the committed artifact);
- per-phase, per-lane cycle charges match exactly — the simulated clock
  cannot tell the two apart;
- distances match to dtype-scaled tolerance (the GEMM euclidean form
  regroups the same arithmetic; cosine/ip use identical expressions);
- GGraphCon construction (NSW for each metric, exact mode, the
  ``n_blocks`` extremes, HNSW, one streaming ``insert_batch_nsw`` batch
  with tombstones) matches ``tests/data/construction_digests.json``:
  the :func:`~repro.graphs.stats.graph_digest` of each built graph
  (neighbor ids, distances and degrees, byte for byte), its simulated
  seconds and per-phase seconds.  The table was computed with the
  original per-vertex insert/merge loops, so it pins the batched
  kernels to them exactly;
- the batched HNSW descent returns the per-query oracle's entries and
  distance counts exactly.

Regenerating the construction table is a conscious act:

    PYTHONPATH=src python tests/test_perf_equivalence.py --regenerate
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.baselines.hnsw_cpu import hnsw_entry_descent
from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.construction import build_nsw_gpu, insert_batch_nsw
from repro.core.ganns import ganns_search, ganns_search_reference
from repro.core.hnsw import build_hnsw_gpu
from repro.core.params import BuildParams, SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.stats import graph_digest
from repro.perf import engine
from repro.perf.arena import get_arena
from repro.perf.descent import hnsw_entry_descent_batch

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "ganns_golden.npz")
CONSTRUCTION_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data",
                                       "construction_digests.json")

#: Distance tolerance per compute dtype: the euclidean GEMM form
#: (norms - 2ab) regroups the reference's (a-b)^2 sum, so the results
#: agree to a few ulps of the dtype, never exactly.
ATOL = {np.dtype(np.float64): 1e-10, np.dtype(np.float32): 1e-4}


def _assert_trackers_equal(ref, fast):
    assert ref.phase_names == fast.phase_names
    for phase in ref.phase_names:
        ref_lanes = ref.lane_cycles(phase)
        fast_lanes = fast.lane_cycles(phase)
        assert np.array_equal(ref_lanes, fast_lanes), (
            f"per-lane cycle drift in phase {phase!r}"
        )


def _assert_reports_equivalent(ref, fast, dtype=np.float64):
    assert ref.ids.tobytes() == fast.ids.tobytes()
    assert np.array_equal(ref.iterations, fast.iterations)
    assert ref.n_distance_computations == fast.n_distance_computations
    assert ref.dists.dtype == fast.dists.dtype
    np.testing.assert_allclose(ref.dists, fast.dists,
                               atol=ATOL[np.dtype(dtype)], rtol=0)
    _assert_trackers_equal(ref.tracker, fast.tracker)


def _graph_and_data(metric, n=300, m=24, d=16, seed=5):
    points = gaussian_mixture(n, d, seed=seed)
    queries = gaussian_mixture(m, d, seed=seed + 1)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    # "ip" has no CPU-builder metric; the searched structure is what
    # matters, so rebadge the euclidean graph for the kernel.
    graph.metric_name = metric
    return graph, points, queries


class TestSearchEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "ip"])
    @pytest.mark.parametrize("lazy_check", [True, False])
    def test_ids_cycles_and_counts_match(self, metric, lazy_check):
        self._check_batch(metric, lazy_check, m=24)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "ip"])
    @pytest.mark.parametrize("lazy_check", [True, False])
    def test_wide_batch_ids_cycles_and_counts_match(self, metric,
                                                    lazy_check):
        # More than 128 live rows per merge: the wide-batch regime.
        self._check_batch(metric, lazy_check, m=160)

    @staticmethod
    def _check_batch(metric, lazy_check, m):
        graph, points, queries = _graph_and_data(metric, m=m)
        params = SearchParams(k=10, l_n=32, e=24)
        ref = ganns_search_reference(graph, points, queries, params,
                                     lazy_check=lazy_check)
        fast = ganns_search(graph, points, queries, params,
                            lazy_check=lazy_check)
        _assert_reports_equivalent(ref, fast)

    def test_float32_compute_dtype(self):
        graph, points, queries = _graph_and_data("euclidean")
        params = SearchParams(k=10, l_n=32)
        ref = ganns_search_reference(graph, points, queries, params,
                                     dtype=np.float32)
        fast = ganns_search(graph, points, queries, params,
                            dtype=np.float32)
        assert ref.dists.dtype == np.dtype(np.float32)
        _assert_reports_equivalent(ref, fast, dtype=np.float32)

    def test_per_query_entry_vertices(self):
        graph, points, queries = _graph_and_data("euclidean")
        entries = np.arange(len(queries)) % graph.n_vertices
        params = SearchParams(k=5, l_n=16)
        ref = ganns_search_reference(graph, points, queries, params,
                                     entry=entries)
        fast = ganns_search(graph, points, queries, params,
                            entry=entries)
        _assert_reports_equivalent(ref, fast)

    def test_fast_matches_golden_ids_byte_for_byte(self):
        # The frozen scenario of test_golden_determinism, which pins
        # the oracle; here ganns_search must reproduce its ids.
        points = gaussian_mixture(400, 16, n_clusters=6, cluster_std=0.3,
                                  intrinsic_dim=6, seed=42)
        queries = gaussian_mixture(30, 16, n_clusters=6, cluster_std=0.3,
                                   intrinsic_dim=6, seed=43)
        graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
        report = ganns_search(graph, points, queries,
                              SearchParams(k=10, l_n=32, e=24))
        with np.load(GOLDEN_PATH) as golden:
            assert report.ids.tobytes() == golden["ids"].tobytes()
            np.testing.assert_allclose(report.dists, golden["dists"],
                                       atol=1e-10, rtol=0)


def _build_summary(report):
    return {
        "graph_digest": graph_digest(report.graph),
        "seconds": report.seconds,
        "phase_seconds": dict(sorted(report.phase_seconds.items())),
    }


def _nsw_build(metric):
    points = gaussian_mixture(300, 16, seed=9)
    return _build_summary(build_nsw_gpu(
        points, BuildParams(d_min=8, d_max=16, n_blocks=8),
        metric=metric))


def _exact_build():
    points = gaussian_mixture(120, 8, seed=10)
    return _build_summary(build_nsw_gpu(
        points, BuildParams(d_min=4, d_max=8, n_blocks=5), exact=True))


def _blocks_build(n_blocks):
    points = gaussian_mixture(257, 8, seed=11)
    return _build_summary(build_nsw_gpu(
        points, BuildParams(d_min=4, d_max=8, n_blocks=n_blocks)))


def _hnsw_build():
    points = gaussian_mixture(250, 8, seed=12)
    report = build_hnsw_gpu(
        points, BuildParams(d_min=4, d_max=8, n_blocks=4, seed=3))
    summary = _build_summary(report)
    summary["order_digest"] = hashlib.blake2b(
        np.asarray(report.order, dtype=np.int64).tobytes(),
        digest_size=16).hexdigest()
    return summary


def _insert_batch():
    """Seed-build 200 points, tombstone a few, stream in 40 more."""
    points = gaussian_mixture(240, 8, seed=15)
    params = BuildParams(d_min=4, d_max=8, n_blocks=4)
    seed = build_nsw_gpu(points[:200], params).graph
    graph = ProximityGraph(240, params.d_max, seed.metric_name)
    graph.neighbor_ids[:200] = seed.neighbor_ids
    graph.neighbor_dists[:200] = seed.neighbor_dists
    graph.degrees[:200] = seed.degrees
    tombstones = np.zeros(240, dtype=bool)
    tombstones[[3, 17, 42, 99]] = True
    return _build_summary(insert_batch_nsw(
        graph, points, np.arange(200, 240), params, entry=1,
        exclude_mask=tombstones))


CONSTRUCTION_CASES = {
    "nsw_euclidean": lambda: _nsw_build("euclidean"),
    "nsw_cosine": lambda: _nsw_build("cosine"),
    "nsw_exact": _exact_build,
    "nsw_blocks_1": lambda: _blocks_build(1),
    "nsw_blocks_257": lambda: _blocks_build(257),
    "hnsw": _hnsw_build,
    "insert_batch": _insert_batch,
}


@pytest.fixture(scope="module")
def construction_table():
    with open(CONSTRUCTION_TABLE_PATH) as handle:
        return json.load(handle)


class TestConstructionEquivalence:
    """Each build equals its table row exactly: digests, and simulated
    seconds compared as floats with ``==``, because the batched kernels
    must charge the same cycles in the same order as the loops did."""

    def test_table_covers_every_case(self, construction_table):
        assert sorted(construction_table) == sorted(CONSTRUCTION_CASES)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_nsw_build_byte_identical(self, construction_table, metric):
        assert _nsw_build(metric) == construction_table[f"nsw_{metric}"]

    def test_exact_mode_byte_identical(self, construction_table):
        assert _exact_build() == construction_table["nsw_exact"]

    @pytest.mark.parametrize("n_blocks", [1, 257])
    def test_block_count_extremes(self, construction_table, n_blocks):
        assert _blocks_build(n_blocks) == \
            construction_table[f"nsw_blocks_{n_blocks}"]

    def test_hnsw_build_byte_identical(self, construction_table):
        assert _hnsw_build() == construction_table["hnsw"]

    def test_insert_batch_byte_identical(self, construction_table):
        assert _insert_batch() == construction_table["insert_batch"]


class TestNonFiniteQueries:
    def test_both_searches_reject_before_dispatch(self, monkeypatch):
        """A NaN or infinite query coordinate raises SearchError from
        the search and its oracle, exact and quantized alike, before
        any engine runs (which would otherwise return a silently wrong
        row)."""
        def must_not_dispatch(*args, **kwargs):
            raise AssertionError("engine reached with a non-finite query")

        monkeypatch.setattr(engine, "ganns_search_fast", must_not_dispatch)
        monkeypatch.setattr(engine, "ganns_search_staged",
                            must_not_dispatch)
        graph, points, queries = _graph_and_data("euclidean", m=4)
        for bad in (np.nan, np.inf, -np.inf):
            hostile = queries.copy()
            hostile[2, 5] = bad
            for quant in ("off", "pca"):
                params = SearchParams(k=5, l_n=16, quant=quant)
                for search in (ganns_search, ganns_search_reference):
                    with pytest.raises(SearchError, match="finite"):
                        search(graph, points, hostile, params)


class TestDescentEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_batch_descent_matches_reference(self, metric):
        points = gaussian_mixture(250, 8, seed=13)
        queries = gaussian_mixture(40, 8, seed=14)
        params = BuildParams(d_min=4, d_max=8, n_blocks=4, seed=3)
        built = build_hnsw_gpu(points, params, metric=metric)
        shuffled = points[built.order]
        entries, n_dists = hnsw_entry_descent_batch(built.graph, shuffled,
                                                    queries)
        for row in range(len(queries)):
            entry, count = hnsw_entry_descent(built.graph, shuffled,
                                              queries[row])
            assert entries[row] == entry
            assert n_dists[row] == count


class TestArenaReuse:
    def test_same_shape_reuses_buffers(self):
        first = get_arena(40, 32, 16, np.dtype(np.float64))
        second = get_arena(30, 32, 16, np.dtype(np.float64))
        assert second is first  # smaller batch fits the cached arena

    def test_capacity_grows_when_needed(self):
        small = get_arena(8, 64, 16, np.dtype(np.float64))
        large = get_arena(8 * 1024, 64, 16, np.dtype(np.float64))
        assert large is not small
        assert large.capacity >= 8 * 1024

    def test_reset_clears_state_between_searches(self):
        graph, points, queries = _graph_and_data("euclidean", n=200, m=10)
        params = SearchParams(k=5, l_n=16)
        first = ganns_search(graph, points, queries, params)
        second = ganns_search(graph, points, queries, params)
        assert first.ids.tobytes() == second.ids.tobytes()
        assert first.dists.tobytes() == second.dists.tobytes()
        _assert_trackers_equal(first.tracker, second.tracker)


if __name__ == "__main__" and "--regenerate" in sys.argv:
    with open(CONSTRUCTION_TABLE_PATH, "w") as handle:
        json.dump({name: case() for name, case in CONSTRUCTION_CASES.items()},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {CONSTRUCTION_TABLE_PATH}")
