"""Hot numeric kernels: the fast Walsh-Hadamard transform and stochastic
rounding, in numpy.

Each pass of the Walsh-Hadamard butterfly touches disjoint element pairs and
computes exactly ``a + b`` / ``a - b`` per pair in float64, so the transform
is bit-reproducible for a given input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fwht_inplace", "stochastic_round"]


def fwht_inplace(x: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard transform, in place.

    Length must be a power of two (checked by the caller).
    """
    n = x.shape[0]
    h = 1
    while h < n:
        view = x.reshape(-1, 2 * h)
        left = view[:, :h].copy()
        right = view[:, h:].copy()
        view[:, :h] = left + right
        view[:, h:] = left - right
        h *= 2


def stochastic_round(x: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Round each x[i] to floor(x[i]) + (u[i] < frac(x[i])), into out.

    u must hold uniform [0, 1) draws.  Integer-valued inputs round to
    themselves for every u.
    """
    f = np.floor(x)
    np.add(f, (u < x - f).astype(np.float64), out=out)
