"""Arena-backed execution of the GANNS and GGraphCon kernels.

The simulator charges *simulated* cycles faithfully, but the real
wall-clock of :func:`repro.core.ganns.ganns_search` and
:func:`repro.core.construction.build_nsw_gpu` is dominated by avoidable
Python/NumPy overhead — per-phase gathers of every active query's
pool, float64 upcasts of float32 data, two ``lexsort`` passes per
iteration, and ``(m, l_t, l_n)`` broadcast scans.  This package is the
one batched execution path; it removes that overhead while preserving
results and per-phase cycle charges:

- :mod:`repro.perf.arena` — preallocated, reusable search buffers with
  active-query compaction;
- :mod:`repro.perf.ordering` — the one stable ``(dist, id)`` pair sort
  behind GANNS phases 5–6, the staged rerank and the GGraphCon row
  merges;
- :mod:`repro.perf.distance` — GEMM-style dtype-preserving distance
  engines with precomputed norms;
- :mod:`repro.perf.engine` — the arena-backed GANNS search loop, plus
  the two-stage quantized pipeline (``ganns_search_staged``);
- :mod:`repro.perf.quant` — compressed distance tables
  (float16 / int8 / PCA) for the staged search's first pass
  (``SearchParams.quant`` / ``REPRO_QUANT``; **lossy**, reported as
  such — see ``docs/quantization.md``);
- :mod:`repro.perf.construction` — batched insert/merge kernels for
  GGraphCon;
- :mod:`repro.perf.descent` — batched HNSW entry descent.

The oracle suite (``tests/test_perf_equivalence.py`` and
``tests/test_perf_properties.py``) pins that it returns the same
neighbor ids, the same iteration counts and *exactly* the same
per-phase cycle charges as the plain-NumPy oracle
:func:`repro.core.ganns.ganns_search_reference`; distances agree to
dtype-scaled tolerance (the GEMM expansion of the euclidean metric
rounds differently in the last bits).  See ``docs/performance.md``.
"""

from repro.perf.arena import SearchArena, get_arena
from repro.perf.descent import hnsw_entry_descent_batch
from repro.perf.distance import make_distance_engine, resolve_compute_dtype
from repro.perf.quant import (
    QUANT_ENV_VAR,
    QUANT_MODES,
    QUANT_OFF,
    VALID_QUANTS,
    QuantizedTable,
    quantize_points,
    resolve_quant,
)

__all__ = [
    "QUANT_ENV_VAR",
    "QUANT_MODES",
    "QUANT_OFF",
    "QuantizedTable",
    "VALID_QUANTS",
    "SearchArena",
    "get_arena",
    "hnsw_entry_descent_batch",
    "make_distance_engine",
    "quantize_points",
    "resolve_compute_dtype",
    "resolve_quant",
]
