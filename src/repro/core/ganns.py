"""GANNS: the GPU-friendly proximity-graph search (Section III-B).

The search replaces Algorithm 1's dynamically-maintained priority queues
and visited hash table with two fixed-length arrays and two lazy
strategies:

- *lazy update*: the pool ``N`` (length ``l_n``) holds the top results and
  the potential exploring vertices at once, kept sorted; the neighbor
  buffer ``T`` (length ``l_t = d_max``) is bitonic-sorted and bitonic-merged
  into ``N`` wholesale instead of element-by-element queue updates.
- *lazy check*: no visited hash — a neighbor's distance may be recomputed
  redundantly, but before merging, ``T`` is checked against ``N`` by
  parallel binary search so redundant *exploration* cannot propagate.

Each iteration runs the six phases of Figure 3: (1) candidate locating via
ballot/ffs, (2) neighborhood exploration, (3) bulk distance computation,
(4) lazy check, (5) bitonic sort of ``T``, (6) bitonic merge into ``N``.

The search is *batched*: all queries advance in lock-step (exactly how a
grid of thread blocks executes), every phase is a vectorised NumPy
operation over the active queries, and each query's lane in the cycle
tracker is charged with the paper's per-phase cost formulas.
:func:`ganns_search` validates its arguments and runs the arena-backed
loop of :mod:`repro.perf.engine`.  :func:`ganns_search_reference` is the
same loop written out phase by phase; it is an oracle that only tests
and the wall-clock benchmark call.  The faithful single-query kernel
assembled from warp primitives lives in :mod:`repro.core.ganns_kernel`;
the test suite proves all three agree.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.core.params import SearchParams
from repro.core.results import SearchReport, make_search_tracker
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.gpusim.memory import SharedMemoryBudget
from repro.perf.distance import resolve_compute_dtype
from repro.perf.quant import resolve_quant

#: Safety cap on iterations, as a multiple of the explore budget; the
#: search provably terminates long before this — hitting the cap means a
#: broken graph (e.g. corrupted adjacency) and raises.  The engine
#: imports it, so the engine and the oracle give up at the same point.
_MAX_ITERATION_FACTOR = 64


def _group_distance_fn(metric_name: str, points: np.ndarray,
                       queries: np.ndarray,
                       dtype: np.dtype = np.float64
                       ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorised (active-queries x candidates) distance evaluator.

    Returns a function mapping (query row indices ``(m,)``, candidate ids
    ``(m, w)``) to distances ``(m, w)``.  Cosine pre-normalises once so the
    per-iteration work is a single einsum, mirroring how a kernel would
    keep normalised vectors in global memory.  All arithmetic runs in
    ``dtype`` (float64 by default — the historical behaviour).
    """
    if metric_name == "euclidean":
        pts = np.asarray(points, dtype=dtype)
        qs = np.asarray(queries, dtype=dtype)

        def euclidean(query_rows: np.ndarray, cand_ids: np.ndarray
                      ) -> np.ndarray:
            gathered = pts[cand_ids]
            diff = gathered - qs[query_rows][:, None, :]
            return np.einsum("mtd,mtd->mt", diff, diff)

        return euclidean

    if metric_name == "cosine":
        def _unit(matrix: np.ndarray) -> np.ndarray:
            matrix = np.asarray(matrix, dtype=dtype)
            norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
            return matrix / np.where(norms > 0.0, norms, 1.0)

        unit_points = _unit(points)
        unit_queries = _unit(queries)
        one = np.dtype(dtype).type(1.0)

        def cosine(query_rows: np.ndarray, cand_ids: np.ndarray
                   ) -> np.ndarray:
            gathered = unit_points[cand_ids]
            sims = np.einsum("mtd,md->mt", gathered,
                             unit_queries[query_rows])
            return one - sims

        return cosine

    if metric_name == "ip":
        pts_ip = np.asarray(points, dtype=dtype)
        qs_ip = np.asarray(queries, dtype=dtype)

        def inner_product(query_rows: np.ndarray, cand_ids: np.ndarray
                          ) -> np.ndarray:
            gathered = pts_ip[cand_ids]
            return -np.einsum("mtd,md->mt", gathered, qs_ip[query_rows])

        return inner_product

    raise SearchError(f"unsupported metric for GANNS search: {metric_name!r}")


def _validate_search_inputs(graph: ProximityGraph, points: np.ndarray,
                            queries: np.ndarray,
                            entry: Union[int, np.ndarray],
                            dtype: Optional[object]
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.dtype]:
    """Shared argument checks of :func:`ganns_search` and its oracle.

    Returns ``(points, queries, entries, compute_dtype)`` with
    ``entries`` broadcast to one id per query.
    """
    points = np.asarray(points)
    queries = np.asarray(queries)
    if queries.ndim != 2:
        raise SearchError(
            f"queries must be 2-D (n_queries, d), got shape {queries.shape}"
        )
    if points.ndim != 2 or points.shape[1] != queries.shape[1]:
        raise SearchError(
            f"points {points.shape} and queries {queries.shape} disagree "
            f"on dimensionality"
        )
    if len(queries) == 0:
        raise SearchError("queries must not be empty")
    finite_rows = np.isfinite(queries).all(axis=1)
    if not finite_rows.all():
        bad = np.flatnonzero(~finite_rows)
        raise SearchError(
            f"queries must be finite: {len(bad)} row(s) hold NaN or inf "
            f"(first is row {bad[0]})"
        )
    compute_dtype = resolve_compute_dtype(points, queries, dtype)

    # Entries are never mutated by the search, so the read-only
    # broadcast view is enough.
    entries = np.broadcast_to(np.asarray(entry, dtype=np.int64),
                              (len(queries),))
    if entries.min() < 0 or entries.max() >= graph.n_vertices:
        raise SearchError(
            f"entry vertices must lie in [0, {graph.n_vertices})"
        )
    return points, queries, entries, compute_dtype


def ganns_search(graph: ProximityGraph, points: np.ndarray,
                 queries: np.ndarray, params: SearchParams,
                 entry: Union[int, np.ndarray] = 0,
                 costs: CostTable = DEFAULT_COSTS,
                 lazy_check: bool = True,
                 dtype: Optional[object] = None) -> SearchReport:
    """Batched GANNS search: one simulated thread block per query.

    Runs the arena-backed search of :mod:`repro.perf.engine`.  Its ids,
    iteration counts and per-lane cycle charges equal those of the
    plain-NumPy oracle :func:`ganns_search_reference`; euclidean
    distances may differ from it in the last ulp (GEMM norm expansion).

    Args:
        graph: Proximity graph over ``points`` (``l_t`` is its ``d_max``).
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` query matrix; every value must be finite.
        params: Search parameters (``k``, ``l_n``, ``e``, ``n_threads``).
            ``params.quant`` (or the ``REPRO_QUANT`` environment
            variable) switches to the lossy two-stage quantized
            pipeline: compressed traversal over ``rerank_factor * l_n``
            candidates, exact rerank before top-k (see
            :mod:`repro.perf.quant`).
        entry: Start vertex, or a per-query ``(m,)`` id array (as produced
            by an HNSW top-down descent).
        costs: Cycle cost table.
        lazy_check: Disable to run the ablation *without* phase (4): the
            duplicate-exploration guard is skipped and redundant work
            propagates (exploration of a vertex still happens at most once
            per pool residency, but re-discovered vertices re-enter ``N``).
        dtype: Distance compute dtype (``np.float32``/``np.float64``);
            ``None`` keeps the pinned default (float64).  Mixed-dtype
            points/queries raise :class:`repro.errors.SearchError`.

    Returns:
        A :class:`repro.core.results.SearchReport`.

    Raises:
        SearchError: On malformed or non-finite queries, bad entry
            vertices, mixed dtypes or a structurally corrupt graph.
    """
    points, queries, entries, compute_dtype = _validate_search_inputs(
        graph, points, queries, entry, dtype)
    # Imported here because repro.perf.engine imports this module.
    # Calls go through the module attribute, so a wrapper installed on
    # it (a profiler, a tracer) sees every search.
    from repro.perf import engine

    quant_mode = resolve_quant(params.quant)
    if quant_mode is not None:
        return engine.ganns_search_staged(graph, points, queries, params,
                                          entries, costs, lazy_check,
                                          compute_dtype, quant_mode)
    return engine.ganns_search_fast(graph, points, queries, params,
                                    entries, costs, lazy_check,
                                    compute_dtype)


def ganns_search_reference(graph: ProximityGraph, points: np.ndarray,
                           queries: np.ndarray, params: SearchParams,
                           entry: Union[int, np.ndarray] = 0,
                           costs: CostTable = DEFAULT_COSTS,
                           lazy_check: bool = True,
                           dtype: Optional[object] = None
                           ) -> SearchReport:
    """The batched GANNS loop written out phase by phase: the oracle.

    One allocation per conceptual buffer, ``lexsort`` sorts and merges,
    ``(a - b)^2`` euclidean distances — deliberately transparent, not
    fast.  Nothing in the package calls it; the test suite pins
    :func:`ganns_search` to it (identical ids, iterations and per-lane
    cycle charges), alongside the warp-level kernel of
    :mod:`repro.core.ganns_kernel` and brute force.  Same arguments as
    :func:`ganns_search`; it is exact only, so ``params.quant`` and
    ``params.rerank_factor`` are ignored.
    """
    points, queries, entries, compute_dtype = _validate_search_inputs(
        graph, points, queries, entry, dtype)
    n_queries = len(queries)
    n_dims = points.shape[1]
    l_n = params.l_n
    l_t = graph.d_max
    e_budget = min(params.explore_budget, l_n)
    n_t = params.n_threads

    tracker = make_search_tracker(n_queries, "ganns")
    distance_fn = _group_distance_fn(graph.metric_name, points, queries,
                                     compute_dtype)

    # Pool N: (dist, id, explored), sorted ascending by (dist, id); padding
    # is (+inf, -1, explored=True) so it is never selected for exploration.
    pool_dists = np.full((n_queries, l_n), np.inf, dtype=compute_dtype)
    pool_ids = np.full((n_queries, l_n), -1, dtype=np.int64)
    pool_explored = np.ones((n_queries, l_n), dtype=bool)

    # Initialisation: load the entry vertex into N.
    entry_dists = distance_fn(np.arange(n_queries), entries[:, None])[:, 0]
    pool_dists[:, 0] = entry_dists
    pool_ids[:, 0] = entries
    pool_explored[:, 0] = False
    tracker.charge("bulk_distance",
                   costs.single_distance_cycles(n_dims, n_t))
    n_distance_computations = n_queries

    # Per-iteration phase costs are constant in (l_n, l_t, n_t); hoist them.
    locate_cost = costs.ganns_candidate_locate_cycles(l_n, n_t)
    explore_cost = costs.ganns_explore_cycles(l_t, n_t)
    check_cost = costs.ganns_lazy_check_cycles(l_n, l_t, n_t)
    sort_cost = costs.ganns_sort_cycles(l_t, n_t)
    merge_cost = costs.ganns_merge_cycles(l_n, l_t, n_t)
    per_vector_cost = costs.single_distance_cycles(n_dims, n_t)

    active = np.ones(n_queries, dtype=bool)
    iterations = np.zeros(n_queries, dtype=np.int64)
    max_iterations = _MAX_ITERATION_FACTOR * e_budget + 256

    while True:
        act = np.flatnonzero(active)
        if len(act) == 0:
            break

        # Phase 1 — candidate locating: first unexplored entry among the
        # first e pool slots (ballot + ffs over the explored flags).
        tracker.charge("candidate_locating", locate_cost, act)
        window = ~pool_explored[act, :e_budget]
        has_work = window.any(axis=1)
        finished = act[~has_work]
        active[finished] = False
        act = act[has_work]
        if len(act) == 0:
            continue
        slot = np.argmax(window[has_work], axis=1)
        iterations[act] += 1
        if iterations.max() > max_iterations:
            raise SearchError(
                f"search exceeded {max_iterations} iterations; the graph "
                f"is likely structurally corrupt"
            )
        exploring = pool_ids[act, slot]
        pool_explored[act, slot] = True

        # Phase 2 — neighborhood exploration: stream adjacency rows into T
        # (the fancy gather already yields a fresh, writable array).
        tracker.charge("neighborhood_exploration", explore_cost, act)
        t_ids = graph.neighbor_ids[exploring]
        valid = t_ids >= 0
        degrees = graph.degrees[exploring]

        # Phase 3 — bulk distance computation (lazy check means every
        # loaded neighbor is computed, visited or not).
        t_dists = distance_fn(act, np.where(valid, t_ids, 0))
        t_dists[~valid] = np.inf
        tracker.charge("bulk_distance", degrees * per_vector_cost, act)
        n_distance_computations += int(degrees.sum())

        # Phase 4 — lazy check: parallel binary search of T against N;
        # anything already resident in the pool is invalidated so redundant
        # exploration cannot propagate.
        if lazy_check:
            tracker.charge("lazy_check", check_cost, act)
            duplicate = (t_ids[:, :, None] == pool_ids[act][:, None, :]
                         ).any(axis=2)
            dead = duplicate | ~valid
        else:
            dead = ~valid
        t_dists[dead] = np.inf
        t_ids = np.where(dead, -1, t_ids)

        # Phase 5 — bitonic sort of T by (distance, id); invalidated
        # entries carry +inf and sink to the tail.
        tracker.charge("sorting", sort_cost, act)
        order = np.lexsort((t_ids, t_dists), axis=1)
        t_dists = np.take_along_axis(t_dists, order, axis=1)
        t_ids = np.take_along_axis(t_ids, order, axis=1)

        # Phase 6 — candidate update: bitonic merge of the two sorted runs,
        # keeping the l_n best records in N.
        tracker.charge("candidate_update", merge_cost, act)
        all_dists = np.concatenate([pool_dists[act], t_dists], axis=1)
        all_ids = np.concatenate([pool_ids[act], t_ids], axis=1)
        all_explored = np.concatenate(
            [pool_explored[act], np.ones_like(t_ids, dtype=bool)], axis=1)
        all_explored[:, l_n:] = False
        all_explored[:, l_n:][t_ids < 0] = True
        merge_order = np.lexsort((all_ids, all_dists), axis=1)[:, :l_n]
        pool_dists[act] = np.take_along_axis(all_dists, merge_order, axis=1)
        pool_ids[act] = np.take_along_axis(all_ids, merge_order, axis=1)
        pool_explored[act] = np.take_along_axis(all_explored, merge_order,
                                                axis=1)

    shared_mem = SharedMemoryBudget(l_n=l_n, l_t=l_t).total_bytes()
    # These .copy()s are load-bearing: without them the report's (m, k)
    # views would pin the full (m, l_n) pools in memory.
    return SearchReport(
        algorithm="ganns",
        ids=pool_ids[:, :params.k].copy(),
        dists=pool_dists[:, :params.k].copy(),
        tracker=tracker,
        n_threads=n_t,
        shared_mem_bytes=shared_mem,
        iterations=iterations,
        n_distance_computations=n_distance_computations,
    )
