"""Flat-vector primitives: L2 clipping and the randomized Hadamard rotation.

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
    "clip_l2",
    "randomized_hadamard",
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


def clip_l2(v: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``v`` by min(1, clip_norm / ||v||_2).

    Direction is preserved and the output norm never exceeds clip_norm.
    clip_norm = inf disables clipping.  Idempotent.
    """
    if not clip_norm > 0:
        raise ValueError("clip_norm must be > 0")
    v = as_param_vector(v)
    norm = float(np.linalg.norm(v))
    if norm <= clip_norm:
        return v.copy()
    return v * (clip_norm / norm)


def _check_rotation_signs(d: int, signs: np.ndarray) -> np.ndarray:
    if d < 1 or d & (d - 1):
        raise ValueError(f"dimension must be a power of two, got {d}")
    signs = np.asarray(signs, dtype=np.float64)
    if signs.shape != (d,) or not np.all(np.abs(signs) == 1.0):
        raise ValueError("signs must be a length-d vector over {-1, +1}")
    return signs


def rotate_inplace(x: np.ndarray, signs: np.ndarray) -> None:
    """Overwrite ``x`` with randomized_hadamard(x, signs).

    x must be a C-contiguous float64 vector of finite entries, which is the
    caller's to check; its width and the signs are checked.  (The SecAgg
    encoder validates its update once and rotates its own zero-padded row
    with _rotate, the round's signs checked once per round.)
    """
    _rotate(x, _check_rotation_signs(x.shape[0], signs))


def _rotate(x: np.ndarray, signs: np.ndarray) -> None:
    """rotate_inplace with float64 signs already checked for x's width."""
    x *= signs
    fwht_inplace(x)
    x *= 1.0 / np.sqrt(x.shape[0])


def randomized_hadamard(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Apply the normalized Hadamard rotation (1/sqrt(d)) * H_d * diag(signs).

    An isometry: the L2 norm is preserved up to float64 rounding.  Requires
    power-of-two length (callers zero-pad to it).
    """
    out = as_param_vector(v).copy()
    rotate_inplace(out, signs)
    return out


def inverse_rotation(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Exact inverse of randomized_hadamard with the same signs.

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
