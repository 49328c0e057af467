"""Golden-file determinism: GANNS results are frozen byte-for-byte.

The repository's headline reproducibility claim is pinned here against a
committed artifact: the oracle ``ganns_search_reference`` on a
fixed-seed synthetic dataset must return ids and distances
*byte-identical* to the golden file under ``tests/data/`` — across runs,
processes and releases.  ``ganns_search`` itself is pinned to the same
file's ids byte-for-byte (and its distances to the last ulp) by
``tests/test_perf_equivalence.py``.  Any change that
moves a single bit (a reordered reduction, a different tie-break, a new
default) fails this test and must either be fixed or consciously
regenerate the golden:

    PYTHONPATH=src python tests/test_golden_determinism.py --regenerate
"""

import os

import numpy as np

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.ganns import ganns_search_reference
from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "ganns_golden.npz")

#: The frozen scenario.  Never change these values without regenerating
#: the golden file (and saying so in the commit message).
N_POINTS = 400
N_QUERIES = 30
N_DIMS = 16
SEED_POINTS = 42
SEED_QUERIES = 43
D_MIN, D_MAX = 8, 16
PARAMS = SearchParams(k=10, l_n=32, e=24)


def _compute():
    """Run the frozen scenario from scratch (dataset, graph, search)."""
    points = gaussian_mixture(N_POINTS, N_DIMS, n_clusters=6,
                              cluster_std=0.3, intrinsic_dim=6,
                              seed=SEED_POINTS)
    queries = gaussian_mixture(N_QUERIES, N_DIMS, n_clusters=6,
                               cluster_std=0.3, intrinsic_dim=6,
                               seed=SEED_QUERIES)
    graph = build_nsw_cpu(points, d_min=D_MIN, d_max=D_MAX).graph
    report = ganns_search_reference(graph, points, queries, PARAMS)
    return report.ids, report.dists


class TestGoldenFile:
    def test_golden_file_is_committed(self):
        assert os.path.exists(GOLDEN_PATH), (
            f"golden file missing at {GOLDEN_PATH}; regenerate with "
            f"PYTHONPATH=src python {__file__} --regenerate"
        )

    def test_search_matches_golden_byte_for_byte(self):
        ids, dists = _compute()
        with np.load(GOLDEN_PATH) as golden:
            golden_ids = golden["ids"]
            golden_dists = golden["dists"]
        assert ids.dtype == golden_ids.dtype
        assert dists.dtype == golden_dists.dtype
        assert ids.shape == golden_ids.shape
        assert dists.shape == golden_dists.shape
        # Byte identity, not approximate equality: tobytes() comparison
        # catches even a flipped sign bit on a zero.
        assert ids.tobytes() == golden_ids.tobytes()
        assert dists.tobytes() == golden_dists.tobytes()

    def test_back_to_back_runs_are_byte_identical(self):
        ids_a, dists_a = _compute()
        ids_b, dists_b = _compute()
        assert ids_a.tobytes() == ids_b.tobytes()
        assert dists_a.tobytes() == dists_b.tobytes()


def _regenerate():
    ids, dists = _compute()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    np.savez_compressed(GOLDEN_PATH, ids=ids, dists=dists)
    print(f"wrote {GOLDEN_PATH}: ids {ids.shape} {ids.dtype}, "
          f"dists {dists.shape} {dists.dtype}")


if __name__ == "__main__":
    import sys
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print("pass --regenerate to rewrite the golden file")
