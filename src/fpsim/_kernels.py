"""Hot numeric kernels: the fast Walsh-Hadamard transform and stochastic
rounding, in numpy.

The transform is bit-reproducible, and its bytes do not depend on where its
intermediate values are stored.  Level ``j`` of the butterfly pairs the
entries whose indices differ only in bit ``j``, and writes ``a + b`` at the
pair's lower index and ``a - b`` at its upper one, in float64.  Levels run
lowest bit first and each pair computes its sum and difference exactly
once, so every output entry is one fixed sequence of float additions,
however the passes lay the entries out in memory between levels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fwht_inplace", "stochastic_round"]


def fwht_inplace(x: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """Unnormalized fast Walsh-Hadamard transform, in place.

    x must be a float64 vector whose length is a power of two (checked by
    the caller), and ``scratch`` one of its shape, else one is allocated.
    Each pass is one level in constant geometry (Pease's
    form): it writes the sums and differences of the adjacent pairs
    ``(src[2i], src[2i + 1])`` to ``dst[i]`` and ``dst[i + n/2]``, two
    contiguous halves, and the two buffers swap.  A pass rotates the index
    bits down by one, so pass ``j`` pairs the entries that differ in bit
    ``j`` of their original index, and after ``log2(n)`` passes every entry
    is back at its own index.  Two ufunc calls per level, and no temporary
    beyond the one scratch vector.
    """
    n = x.shape[0]
    half = n // 2
    src, dst = x, np.empty_like(x) if scratch is None else scratch
    for _ in range(n.bit_length() - 1):
        np.add(src[0::2], src[1::2], out=dst[:half])
        np.subtract(src[0::2], src[1::2], out=dst[half:])
        src, dst = dst, src
    if src is not x:
        x[...] = src


def stochastic_round(
    x: np.ndarray, u: np.ndarray, out: np.ndarray, scratch: np.ndarray | None = None
) -> None:
    """Round each x[i] to floor(x[i]) + (u[i] < frac(x[i])), into out.

    u must hold uniform [0, 1) draws.  Integer-valued inputs round to
    themselves for every u.  The floor goes straight into out, and one
    scratch holds the fractional part and then, as 0.0 or 1.0, the
    comparison that is added in place: the same float additions as
    floor(x) + (u < x - floor(x)), signed zeros included, with one
    scratch, the caller's or a new one, in place of four temporaries.
    """
    np.floor(x, out=out)
    scratch = np.subtract(x, out, out=scratch)
    np.less(u, scratch, out=scratch)
    out += scratch
