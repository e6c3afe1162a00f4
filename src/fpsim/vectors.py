"""Flat-vector validation.

Vectors are plain float64 numpy arrays of fixed length.  numpy sums them on
one thread (1-d sums pairwise), so a sum's bits depend on its input alone.
A norm's need not: ``np.linalg.norm`` is a BLAS dot, which OpenBLAS splits
across its threads above 10^4 entries, so its bits follow the thread count.
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
