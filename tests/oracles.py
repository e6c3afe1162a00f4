"""Reference implementations the tests compare the shipped code against.

They are kept simple rather than fast, and are not part of the package.
"""

import numpy as np

from fpsim.secagg import SecAggConfig, _rounded_norm_bound_sq
from fpsim.seeds import SeedPath
from fpsim.vectors import clip_l2
from fpsim._kernels import stochastic_round


def reference_fwht(x: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard transform, in place: one radix-2
    pass per level, lowest bit first, each pass copying both halves of its
    blocks before writing ``a + b`` and ``a - b`` back."""
    n = x.shape[0]
    h = 1
    while h < n:
        view = x.reshape(-1, 2 * h)
        left = view[:, :h].copy()
        right = view[:, h:].copy()
        view[:, :h] = left + right
        view[:, h:] = left - right
        h *= 2


def reference_encode(
    delta: np.ndarray, config: SecAggConfig, signs: np.ndarray, seed: SeedPath
) -> tuple[np.ndarray, int, np.ndarray]:
    """The SecAgg client encode as separate steps on fresh arrays: clip_l2
    of the scaled update, zero padding, the sign flip and reference_fwht,
    np.clip, then conditional stochastic rounding and the shift.

    Returns encode_client's two results and the clamped float row that was
    rounded.  Rounding hides a last-bit difference in that row, so only the
    row shows a change in the transform's float arithmetic.
    """
    padded = np.zeros(config.padded_dim)
    padded[: delta.shape[0]] = clip_l2(delta * config.scale, config.scale * config.clip_norm)
    rotated = padded * signs
    reference_fwht(rotated)
    rotated *= 1.0 / np.sqrt(config.padded_dim)
    bound = float(config.infinity_bound)
    clamped_count = int(np.count_nonzero(np.abs(rotated) > bound))
    clamped = np.clip(rotated, -bound, bound)
    for attempt in range(config.retry_cap):
        uniforms = seed.child("round-attempt", attempt).generator().random(config.padded_dim)
        rounded = np.empty(config.padded_dim)
        stochastic_round(clamped, uniforms, rounded)
        if float(rounded @ rounded) <= _rounded_norm_bound_sq(config):
            return (rounded + bound).astype(np.int64), clamped_count, clamped
    raise AssertionError("rounding retries exhausted")
