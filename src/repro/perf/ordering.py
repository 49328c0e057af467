"""The one ordering primitive of the batched kernels: a stable pair sort.

GANNS phases 5–6, the staged rerank and the GGraphCon row merges order
records by ``(dist, id)`` (or ``(id, dist)`` to deduplicate).  Instead
of ``np.lexsort``'s two indirect passes, both fields go into one
``complex128`` key, which NumPy orders by ``(real, imag)``.  The
widening is exact: float32/float64 values convert to float64 without
rounding, and every id here is far below ``2**53``.
"""

from __future__ import annotations

import numpy as np


def pair_argsort(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Stable argsort along the last axis by ``(major, minor)``.

    The permutation of ``np.lexsort((minor, major), axis=-1)`` for
    NaN-free keys: records with equal keys keep their input order, so
    a merge over ``[pool | T]`` rows keeps the pool copy first.
    """
    key = np.empty(np.shape(major), dtype=np.complex128)
    key.real = major
    key.imag = minor
    return np.argsort(key, axis=-1, kind="stable")
