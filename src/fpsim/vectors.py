"""Flat-vector validation.

Vectors are plain float64 numpy arrays of fixed length.  All reductions used
on them (norms, sums) run in numpy's canonical left-to-right order, so results
are bit-reproducible for a given input regardless of how callers parallelize
around them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_param_vector"]


def as_param_vector(values, d: int | None = None) -> np.ndarray:
    """Validate and convert ``values`` to a finite float64 vector.

    Args:
      values: any 1-d array-like of reals.
      d: expected length; mismatch raises ValueError when given.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"expected length {d}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf")
    return v
