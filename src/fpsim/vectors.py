"""Flat-vector primitives: validation and the randomized Hadamard rotation.

Vectors are plain float64 numpy arrays of fixed length.  All reductions used
here (norms, sums) run in numpy's canonical left-to-right order, so results
are bit-reproducible for a given input regardless of how callers parallelize
around them.
"""

from __future__ import annotations

import numpy as np

from fpsim._kernels import fwht_inplace

__all__ = [
    "as_param_vector",
    "rotate_inplace",
    "inverse_rotation",
]


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


def _check_rotation_signs(d: int, signs: np.ndarray) -> np.ndarray:
    if d < 1 or d & (d - 1):
        raise ValueError(f"dimension must be a power of two, got {d}")
    signs = np.asarray(signs, dtype=np.float64)
    if signs.shape != (d,) or not np.all(np.abs(signs) == 1.0):
        raise ValueError("signs must be a length-d vector over {-1, +1}")
    return signs


def rotate_inplace(x: np.ndarray, signs: np.ndarray) -> None:
    """Overwrite ``x`` with its normalized Hadamard rotation
    (1/sqrt(d)) * H_d * diag(signs) x.

    An isometry: the L2 norm is preserved up to float64 rounding.  The
    width d must be a power of two (callers zero-pad to it).  x must be a
    C-contiguous float64 vector of finite entries, which is the caller's
    to check; its width and the signs are checked.  (The SecAgg encoder
    validates its update once and rotates its own zero-padded row with
    _rotate, the round's signs checked once per round.)
    """
    _rotate(x, _check_rotation_signs(x.shape[0], signs))


def _rotate(x: np.ndarray, signs: np.ndarray) -> None:
    """rotate_inplace with float64 signs already checked for x's width."""
    x *= signs
    fwht_inplace(x)
    x *= 1.0 / np.sqrt(x.shape[0])


def inverse_rotation(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Exact inverse of rotate_inplace with the same signs, on a copy.

    The normalized Hadamard matrix is symmetric and orthogonal, so the
    inverse is diag(signs) applied after the same transform.
    """
    out = as_param_vector(v).copy()
    d = out.shape[0]
    signs = _check_rotation_signs(d, signs)
    fwht_inplace(out)
    out *= 1.0 / np.sqrt(d)
    out *= signs
    return out
