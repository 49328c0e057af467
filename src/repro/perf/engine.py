"""Arena-backed GANNS search: the one batched search implementation.

:func:`repro.core.ganns.ganns_search` validates its arguments and runs
:func:`ganns_search_fast` (or, under quantization,
:func:`ganns_search_staged`).  Same six phases, same cycle charges,
same results as the plain-NumPy oracle
:func:`repro.core.ganns.ganns_search_reference` — different execution
strategy:

- work buffers come from a reused :class:`repro.perf.arena.SearchArena`;
  active queries occupy compact rows and finished queries are scattered
  to the output arrays the moment they retire, so no phase ever gathers
  ``pool[act]`` or pays for queries that are done;
- distances come from :class:`repro.perf.distance.GroupDistanceEngine`
  (precomputed norms, one gather + one einsum per iteration, compute
  dtype preserved);
- phase 4's duplicate check runs as a row-offset ``searchsorted`` over
  id-sorted pool rows — O(l_t log l_n) per query instead of the
  reference's ``(m, l_t, l_n)`` broadcast equality;
- phases 5 and 6 (sort T, merge it into the pool) are one stable
  ``(dist, id)`` sort of each ``[pool | T]`` row through
  :func:`repro.perf.ordering.pair_argsort` — one complex-key argsort
  instead of the oracle's two ``lexsort`` passes, and only over rows
  whose T still holds a live record.

Equivalence contract (enforced by ``tests/test_perf_equivalence.py``):
ids, iteration counts and per-phase cycle charges are *identical* to the
oracle — the charge calls below are issued with the same lane sets,
the same amounts and in the same order, so tracker listeners (e.g. the
serve engine's mirrors) observe identical streams.  The sort's
stability reproduces the oracle lexsort's tie rule exactly (pool
entries win ties against T entries on equal ``(dist, id)``).
Distances are bit-identical for cosine/ip and agree to last-ulp
rounding for euclidean (GEMM norm expansion).

NaN distances are outside the contract: the oracle's lexsort and this
sort may order NaNs differently.  ``ganns_search`` rejects non-finite
queries before dispatch; non-finite *points* stay outside the contract
(every dataset loader and generator in this repo produces finite ones).

The traversal loop itself is engine-agnostic (:func:`_traverse`): it
runs identically over the exact :class:`GroupDistanceEngine` and over a
compressed :class:`repro.perf.quant.QuantizedGroupEngine`, which is how
:func:`ganns_search_staged` implements the two-stage quantized pipeline
— compressed traversal over a ``rerank_factor * l_n`` pool, then an
exact full-precision rerank of that pool before top-k selection.  The
staged path is **lossy** (see :mod:`repro.perf.quant`); only
:func:`ganns_search_fast` carries the byte-equivalence contract.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.core.ganns import _MAX_ITERATION_FACTOR
from repro.core.params import SearchParams
from repro.core.results import SearchReport, make_search_tracker
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable
from repro.gpusim.memory import SharedMemoryBudget
from repro.perf.arena import get_arena
from repro.perf.distance import make_distance_engine
from repro.perf.ordering import pair_argsort
from repro.perf.quant import QuantizedGroupEngine, charged_dims, \
    quantize_points


def _traverse(graph: ProximityGraph, engine, arena, tracker,
              costs: CostTable, *, l_pool: int, e_budget: int, n_t: int,
              out_width: int, dist_dims: int, entries: np.ndarray,
              lazy_check: bool, out_ids: np.ndarray,
              out_dists: np.ndarray) -> Tuple[np.ndarray, int]:
    """Run the six-phase GANNS loop over ``engine`` until every query
    retires.

    Engine-agnostic core shared by the exact search and the staged
    quantized path.  The pool is ``l_pool`` wide but only the first
    ``e_budget`` slots are candidates for exploration — the staged
    search widens the pool (candidate over-fetch) without widening the
    explore window, so its iteration count tracks the exact search's.

    Args:
        engine: Any object with the ``pairs(query_rows, cand_ids)``
            distance contract (negative ids clip to row 0; callers
            overwrite those lanes).
        l_pool: Pool width (``l_n``, or ``rerank_factor * l_n`` for the
            staged path).
        dist_dims: Dimensions charged to the cost model per distance
            (the ambient ``d`` for exact engines; the compressed
            component count for quantized ones).
        out_width: Columns scattered to ``out_ids``/``out_dists`` when
            a query retires (``k``, or the whole pool for the staged
            path's rerank input).

    Returns:
        ``(iterations, n_distance_computations)``.
    """
    n_queries = len(out_ids)
    l_t = graph.d_max
    m = arena.reset(n_queries)

    # Initialisation: load the entry vertex into N.
    entry_dists = engine.pairs(arena.rows[:m], entries[:, None])[:, 0]
    arena.pool_dists[:m, 0] = entry_dists
    arena.pool_ids[:m, 0] = entries
    arena.pool_explored[:m, 0] = False
    tracker.charge("bulk_distance",
                   costs.single_distance_cycles(dist_dims, n_t))
    n_distance_computations = n_queries

    locate_cost = costs.ganns_candidate_locate_cycles(l_pool, n_t)
    explore_cost = costs.ganns_explore_cycles(l_t, n_t)
    check_cost = costs.ganns_lazy_check_cycles(l_pool, l_t, n_t)
    sort_cost = costs.ganns_sort_cycles(l_t, n_t)
    merge_cost = costs.ganns_merge_cycles(l_pool, l_t, n_t)
    per_vector_cost = costs.single_distance_cycles(dist_dims, n_t)

    iterations = np.zeros(n_queries, dtype=np.int64)
    max_iterations = _MAX_ITERATION_FACTOR * e_budget + 256
    # Row keys for the flat duplicate probe: id ranges per row must not
    # overlap; ids live in [-1, n_vertices - 1] so a stride of
    # n_vertices + 2 keeps rows strictly separated.
    id_stride = np.int64(graph.n_vertices + 2)

    while m > 0:
        # Phase 1 — candidate locating.  query_rows[:m] is exactly the
        # reference's np.flatnonzero(active): compaction keeps rows in
        # ascending original order, so the tracker sees the same lanes.
        act = arena.query_rows[:m]
        tracker.charge("candidate_locating", locate_cost, act)
        window = ~arena.pool_explored[:m, :e_budget]
        has_work = window.any(axis=1)
        slot = np.argmax(window[has_work], axis=1)
        if not has_work.all():
            done = np.flatnonzero(~has_work)
            done_queries = arena.query_rows[done]
            out_ids[done_queries] = arena.pool_ids[done, :out_width]
            out_dists[done_queries] = arena.pool_dists[done, :out_width]
            m = arena.compact(m, has_work)
            if m == 0:
                break
            act = arena.query_rows[:m]
        rows = arena.rows[:m]
        iterations[act] += 1
        if iterations.max() > max_iterations:
            raise SearchError(
                f"search exceeded {max_iterations} iterations; the graph "
                f"is likely structurally corrupt"
            )
        exploring = arena.pool_ids[rows, slot]
        arena.pool_explored[rows, slot] = True

        # Phase 2 — neighborhood exploration: stream adjacency rows
        # into the arena's T buffer (no intermediate copy).
        tracker.charge("neighborhood_exploration", explore_cost, act)
        t_ids = arena.t_ids[:m]
        np.take(graph.neighbor_ids, exploring, axis=0, out=t_ids)
        valid = t_ids >= 0
        degrees = graph.degrees[exploring]

        # Phase 3 — bulk distance computation (negative ids clip to
        # point 0 inside the engine and are overwritten with +inf).
        t_dists = engine.pairs(act, t_ids)
        t_dists[~valid] = np.inf
        tracker.charge("bulk_distance", degrees * per_vector_cost, act)
        n_distance_computations += int(degrees.sum())

        # Phase 4 — lazy check via row-offset searchsorted: sort each
        # pool row by id once, probe all of T against the flat sorted
        # key space (rows separated by id_stride).
        if lazy_check:
            tracker.charge("lazy_check", check_cost, act)
            ids_sorted = arena.ids_sorted[:m]
            ids_sorted[:] = arena.pool_ids[:m]
            ids_sorted.sort(axis=1)
            offsets = rows[:, None] * id_stride
            flat_pool = (ids_sorted + offsets).ravel()
            flat_t = (t_ids + offsets).ravel()
            pos = np.searchsorted(flat_pool, flat_t)
            np.minimum(pos, flat_pool.size - 1, out=pos)
            duplicate = (flat_pool[pos] == flat_t).reshape(m, l_t)
            dead = duplicate | ~valid
        else:
            dead = ~valid
        t_dists[dead] = np.inf
        t_ids[dead] = -1

        # Phases 5+6 — one stable (dist, id) sort of each [pool | T]
        # row; its first l_pool records are the new pool.  Stability
        # keeps the pool copy ahead of an equal T copy, the oracle's
        # lexsort tie rule.  Rows whose T is all (+inf, -1) pads sort
        # to the identity and are skipped (most rows, once converged);
        # the charges still cover every lane, as in the oracle.
        tracker.charge("sorting", sort_cost, act)
        tracker.charge("candidate_update", merge_cost, act)
        live = np.flatnonzero(~dead.all(axis=1))
        if len(live) == 0:
            continue
        cat_d = np.concatenate((arena.pool_dists[live], t_dists[live]),
                               axis=1)
        cat_i = np.concatenate((arena.pool_ids[live], t_ids[live]), axis=1)
        cat_e = np.concatenate((arena.pool_explored[live],
                                t_ids[live] < 0), axis=1)
        order = pair_argsort(cat_d, cat_i)[:, :l_pool]
        arena.pool_dists[live] = np.take_along_axis(cat_d, order, axis=1)
        arena.pool_ids[live] = np.take_along_axis(cat_i, order, axis=1)
        arena.pool_explored[live] = np.take_along_axis(cat_e, order,
                                                       axis=1)

    return iterations, n_distance_computations


def ganns_search_fast(graph: ProximityGraph, points: np.ndarray,
                      queries: np.ndarray, params: SearchParams,
                      entries: np.ndarray,
                      costs: CostTable,
                      lazy_check: bool,
                      compute_dtype: np.dtype) -> SearchReport:
    """Run the batched GANNS search.

    Called by :func:`repro.core.ganns.ganns_search` after argument
    validation; ``entries`` is the already-broadcast ``(m,)`` entry-id
    array and ``compute_dtype`` the resolved distance dtype.
    """
    n_queries = len(queries)
    l_n = params.l_n
    l_t = graph.d_max
    e_budget = min(params.explore_budget, l_n)
    n_t = params.n_threads
    k = params.k

    tracker = make_search_tracker(n_queries, "ganns")
    engine = make_distance_engine(graph.metric_name, points, queries,
                                  compute_dtype)
    arena = get_arena(n_queries, l_n, l_t, compute_dtype)

    out_ids = np.empty((n_queries, k), dtype=np.int64)
    out_dists = np.empty((n_queries, k), dtype=compute_dtype)

    iterations, n_distance_computations = _traverse(
        graph, engine, arena, tracker, costs,
        l_pool=l_n, e_budget=e_budget, n_t=n_t, out_width=k,
        dist_dims=points.shape[1], entries=entries,
        lazy_check=lazy_check, out_ids=out_ids, out_dists=out_dists)

    shared_mem = SharedMemoryBudget(l_n=l_n, l_t=l_t).total_bytes()
    return SearchReport(
        algorithm="ganns",
        ids=out_ids,
        dists=out_dists,
        tracker=tracker,
        n_threads=n_t,
        shared_mem_bytes=shared_mem,
        iterations=iterations,
        n_distance_computations=n_distance_computations,
    )


#: Traversal distances of the staged path always accumulate in float32:
#: the compressed representations carry at most float32 precision, and
#: the exact rerank restores the caller's compute dtype afterwards.
_STAGED_TRAVERSAL_DTYPE = np.dtype(np.float32)


def ganns_search_staged(graph: ProximityGraph, points: np.ndarray,
                        queries: np.ndarray, params: SearchParams,
                        entries: np.ndarray,
                        costs: CostTable,
                        lazy_check: bool,
                        compute_dtype: np.dtype,
                        quant_mode: str) -> SearchReport:
    """Two-stage quantized search: compressed traversal + exact rerank.

    Stage 1 runs the ordinary six-phase traversal, but over a
    :class:`~repro.perf.quant.QuantizedGroupEngine` and with the pool
    widened to ``l_q = rerank_factor * l_n`` — the explore window stays
    at the exact search's ``e`` budget, so the wider pool is pure
    candidate over-fetch, not extra hops.  Stage 2 recomputes exact
    full-precision distances for the whole retained pool and selects the
    final top-k from those, charged as one bulk-distance pass plus one
    bitonic sort of ``l_q`` records.

    The result is **lossy** relative to the reference search: the
    compressed traversal can walk a different path, so the candidate
    pool (and hence recall) may differ.  Returned *distances* are always
    exact — stage 2 guarantees every reported (id, dist) pair is the
    true metric value in ``compute_dtype``.
    """
    n_queries = len(queries)
    n_dims = points.shape[1]
    l_n = params.l_n
    l_t = graph.d_max
    l_q = l_n * params.rerank_factor
    e_budget = min(params.explore_budget, l_n)
    n_t = params.n_threads
    k = params.k

    tracker = make_search_tracker(n_queries, "ganns")
    table = quantize_points(points, quant_mode, graph.metric_name)
    engine = QuantizedGroupEngine(table, queries)
    arena = get_arena(n_queries, l_q, l_t, _STAGED_TRAVERSAL_DTYPE)
    pool_ids = np.empty((n_queries, l_q), dtype=np.int64)
    pool_dists = np.empty((n_queries, l_q), dtype=_STAGED_TRAVERSAL_DTYPE)

    iterations, n_distance_computations = _traverse(
        graph, engine, arena, tracker, costs,
        l_pool=l_q, e_budget=e_budget, n_t=n_t, out_width=l_q,
        dist_dims=charged_dims(table), entries=entries,
        lazy_check=lazy_check, out_ids=pool_ids, out_dists=pool_dists)

    # Stage 2 — exact rerank of the over-fetched pool.  One
    # full-precision bulk-distance pass over every valid candidate
    # (invalid pads clip to point 0 in the engine and are masked to
    # +inf), then a (dist, id) sort of the l_q records per query —
    # charged as one bitonic sort, the kernel that would run it.
    exact = make_distance_engine(graph.metric_name, points, queries,
                                 compute_dtype)
    all_rows = np.arange(n_queries, dtype=np.int64)
    valid = pool_ids >= 0
    exact_dists = exact.pairs(all_rows, pool_ids)
    exact_dists[~valid] = np.inf
    per_vector_cost = costs.single_distance_cycles(n_dims, n_t)
    tracker.charge("bulk_distance",
                   valid.sum(axis=1) * per_vector_cost, all_rows)
    n_distance_computations += int(valid.sum())
    tracker.charge("sorting", costs.bitonic_sort_cycles(l_q, n_t),
                   all_rows)
    order = pair_argsort(exact_dists, pool_ids)[:, :k]
    out_ids = np.take_along_axis(pool_ids, order, axis=1)
    out_dists = np.ascontiguousarray(
        np.take_along_axis(exact_dists, order, axis=1),
        dtype=compute_dtype)

    shared_mem = SharedMemoryBudget(l_n=l_q, l_t=l_t).total_bytes()
    return SearchReport(
        algorithm="ganns",
        ids=np.ascontiguousarray(out_ids),
        dists=out_dists,
        tracker=tracker,
        n_threads=n_t,
        shared_mem_bytes=shared_mem,
        iterations=iterations,
        n_distance_computations=n_distance_computations,
    )
