"""Hypothesis property test: ``ganns_search`` == its oracle, always.

One composite strategy draws a whole randomised workload — dataset
seed and size, duplicate points, metric, compute dtype, pool shape,
entry scheme, lazy check — and the single property is the oracle
contract of ``ganns_search`` against ``ganns_search_reference``:
identical ids, iterations and per-phase cycle charges, distances
within dtype tolerance.  Well-separated Gaussian data (not raw
hypothesis arrays) keeps the workloads representative of what the
kernels actually see.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.ganns import ganns_search, ganns_search_reference
from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture

ATOL = {np.dtype(np.float64): 1e-10, np.dtype(np.float32): 1e-4}


@st.composite
def backend_workload(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=40, max_value=160))
    dims = draw(st.sampled_from([4, 8, 16]))
    n_queries = draw(st.integers(min_value=1, max_value=12))
    metric = draw(st.sampled_from(["euclidean", "cosine", "ip"]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    l_n = draw(st.sampled_from([8, 16, 32]))
    k = draw(st.integers(min_value=1, max_value=min(l_n, 8)))
    e = draw(st.one_of(st.none(),
                       st.integers(min_value=1, max_value=l_n)))
    lazy_check = draw(st.booleans())
    per_query_entries = draw(st.booleans())
    duplicate_points = draw(st.booleans())

    points = gaussian_mixture(n, dims, n_clusters=4, cluster_std=0.3,
                              intrinsic_dim=min(4, dims), seed=seed)
    if duplicate_points:
        # Exact copies give distinct ids exactly equal distances, so the
        # (dist, id) tie rule decides their order in every merge.
        copies = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                               min_size=1, max_size=n // 2))
        points = np.concatenate([points, points[copies]])
    queries = gaussian_mixture(n_queries, dims, n_clusters=4,
                               cluster_std=0.3,
                               intrinsic_dim=min(4, dims), seed=seed + 1)
    if per_query_entries:
        entry = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                              min_size=n_queries, max_size=n_queries))
        entry = np.asarray(entry, dtype=np.int64)
    else:
        entry = draw(st.integers(min_value=0, max_value=n - 1))
    params = SearchParams(k=k, l_n=l_n, e=e)
    return points, queries, metric, dtype, params, entry, lazy_check


class TestBackendProperty:
    @given(backend_workload())
    @settings(max_examples=30, deadline=None)
    def test_fast_equals_reference(self, workload):
        points, queries, metric, dtype, params, entry, lazy = workload
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        graph.metric_name = metric
        ref = ganns_search_reference(graph, points, queries, params,
                                     entry=entry, lazy_check=lazy,
                                     dtype=dtype)
        fast = ganns_search(graph, points, queries, params,
                            entry=entry, lazy_check=lazy, dtype=dtype)
        assert ref.ids.tobytes() == fast.ids.tobytes()
        assert np.array_equal(ref.iterations, fast.iterations)
        assert ref.n_distance_computations == \
            fast.n_distance_computations
        assert ref.dists.dtype == fast.dists.dtype == np.dtype(dtype)
        np.testing.assert_allclose(ref.dists, fast.dists,
                                   atol=ATOL[np.dtype(dtype)], rtol=0)
        assert ref.tracker.phase_names == fast.tracker.phase_names
        for phase in ref.tracker.phase_names:
            assert np.array_equal(ref.tracker.lane_cycles(phase),
                                  fast.tracker.lane_cycles(phase))
