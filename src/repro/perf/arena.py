"""Preallocated, reusable buffers for the arena-backed GANNS search.

In the oracle search (:func:`repro.core.ganns.ganns_search_reference`)
every phase gathers ``pool[act]`` into a fresh array and scatters the
results back, for every active query on every iteration.  A
:class:`SearchArena` removes most of that churn (only the phase 5–6
sort still gathers, and only the rows whose T holds a live record):

- the pool, the neighbor buffer T and the lazy-check probe are
  allocated **once** and sliced per iteration;
- active queries live in **compact** rows ``0..m-1``: when queries
  finish, survivors are copied up once and finished queries never pay
  gather costs again.  ``query_rows[:m]`` maps compact rows back to the
  caller's query indices (always sorted ascending, so cycle charges hit
  the tracker with exactly the lane sets the oracle uses).

Arenas are cached per ``(l_n, l_t, dtype)`` shape class and reused
across search calls when capacity allows — the serving engine dispatches
thousands of micro-batches with identical parameters, and re-using one
arena keeps the steady-state allocation rate of a replay near zero.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class SearchArena:
    """Work buffers for one batched GANNS search.

    Args:
        capacity: Maximum number of queries (compact rows).
        l_n: Pool length.
        l_t: Neighbor-buffer length (the graph's ``d_max``).
        dtype: Distance compute dtype (pool distances are stored in it).
    """

    def __init__(self, capacity: int, l_n: int, l_t: int,
                 dtype: np.dtype):
        self.capacity = int(capacity)
        self.l_n = int(l_n)
        self.l_t = int(l_t)
        self.dtype = np.dtype(dtype)
        shape_n = (self.capacity, self.l_n)
        self.pool_dists = np.empty(shape_n, dtype=self.dtype)
        self.pool_ids = np.empty(shape_n, dtype=np.int64)
        self.pool_explored = np.empty(shape_n, dtype=bool)
        #: Pool ids re-sorted by id (the lazy-check probe structure).
        self.ids_sorted = np.empty(shape_n, dtype=np.int64)
        #: Neighbor buffer T (adjacency rows stream into it in place).
        self.t_ids = np.empty((self.capacity, self.l_t), dtype=np.int64)
        #: Compact row -> original query row (always sorted ascending).
        self.query_rows = np.empty(self.capacity, dtype=np.int64)
        self.rows = np.arange(self.capacity, dtype=np.int64)

    def reset(self, n_queries: int) -> int:
        """Prepare for a fresh search of ``n_queries`` queries.

        Pools are padded with ``(+inf, -1, explored=True)`` — never
        selected for exploration, always sorted to the tail.

        Returns:
            The number of active compact rows (== ``n_queries``).
        """
        if n_queries > self.capacity:
            raise ValueError(
                f"arena capacity {self.capacity} cannot hold "
                f"{n_queries} queries"
            )
        m = int(n_queries)
        self.pool_dists[:m] = np.inf
        self.pool_ids[:m] = -1
        self.pool_explored[:m] = True
        self.query_rows[:m] = np.arange(m)
        return m

    def compact(self, m: int, keep: np.ndarray) -> int:
        """Drop finished rows; survivors move up, order preserved.

        Args:
            m: Current number of active compact rows.
            keep: ``(m,)`` boolean mask of rows that stay active.

        Returns:
            The new number of active rows.
        """
        survivors = np.flatnonzero(keep)
        new_m = len(survivors)
        if new_m == m:
            return m
        # One gather per live buffer; the temporaries are (new_m, l_n)
        # and only materialise on iterations where queries finished.
        self.pool_dists[:new_m] = self.pool_dists[survivors]
        self.pool_ids[:new_m] = self.pool_ids[survivors]
        self.pool_explored[:new_m] = self.pool_explored[survivors]
        self.query_rows[:new_m] = self.query_rows[survivors]
        return new_m


#: One cached arena per (l_n, l_t, dtype) shape class.  Capacity grows
#: monotonically: a request larger than the cached arena replaces it.
_ARENA_CACHE: Dict[Tuple[int, int, str], SearchArena] = {}
_ARENA_CACHE_MAX = 8


def get_arena(n_queries: int, l_n: int, l_t: int,
              dtype: np.dtype) -> SearchArena:
    """Fetch (or build) an arena able to hold ``n_queries`` queries."""
    key = (int(l_n), int(l_t), np.dtype(dtype).str)
    arena = _ARENA_CACHE.get(key)
    if arena is None or arena.capacity < n_queries:
        if arena is None and len(_ARENA_CACHE) >= _ARENA_CACHE_MAX:
            _ARENA_CACHE.clear()
        arena = SearchArena(n_queries, l_n, l_t, dtype)
        _ARENA_CACHE[key] = arena
    return arena
