"""Client-side encoding pipeline for modular secure aggregation.

Secure aggregation sums client integer vectors modulo M without revealing
any individual vector, so each client must map its real update into
non-negative integers whose modular sum decodes to (a close approximation
of) the true sum.  The pipeline, per client:

  1. scale by s and L2-clip to s * clip_norm,
  2. pad to a power-of-two width and apply a shared randomized Hadamard
     rotation (flattening the per-coordinate range),
  3. clamp coordinates to an L-infinity bound derived from the clip norm,
  4. stochastically round to integers, retrying until the rounded vector's
     L2 norm is within a high-probability bound (so the server can account
     for rounding via a modest inflation of the clip norm rather than a
     worst-case one),
  5. shift by the L-infinity bound to make entries non-negative.

The server sums modulo M = 2 * infinity_bound * cohort_size + 1, which is
wide enough that no wraparound occurs, then undoes shift, rotation, scale
and padding.  The sum runs in int64, so SecAggConfig refuses a modulus with
cohort_size * (M - 1) >= 2**63.  Noise calibrated for central DP must use the rounded vectors'
inflated norm bound (inflated_clip_norm) rather than the raw clip norm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from fpsim.seeds import SeedPath
from fpsim.vectors import as_param_vector, inverse_rotation, rotate_inplace
from fpsim._kernels import stochastic_round

__all__ = [
    "SecAggConfig",
    "derive_config",
    "encode_client",
    "modular_sum",
    "decode",
    "inflated_clip_norm",
    "bits_per_update",
    "RoundingRetriesExhausted",
]

# Failure probability alpha for the per-client rounded-norm bound.  The
# expected number of retries at this alpha is below 2.
ROUNDING_NORM_ALPHA = math.exp(-0.5)

DEFAULT_RETRY_CAP = 100


class RoundingRetriesExhausted(RuntimeError):
    """Conditional stochastic rounding failed retry_cap times in a row."""


def _sum_fits_int64(count: int, modulus: int) -> bool:
    """Whether count residues in [0, modulus) always sum below 2**63."""
    return count * (modulus - 1) < 2**63


@dataclass(frozen=True)
class SecAggConfig:
    """Fixed per-run encoding parameters shared by clients and server."""

    clip_norm: float
    scale: float
    padded_dim: int
    cohort_size: int
    infinity_bound: int
    modulus: int
    retry_cap: int = DEFAULT_RETRY_CAP

    def __post_init__(self) -> None:
        if not self.clip_norm > 0 or not self.scale > 0:
            raise ValueError("clip_norm and scale must be > 0")
        if self.padded_dim < 1 or self.padded_dim & (self.padded_dim - 1):
            raise ValueError("padded_dim must be a power of two")
        if self.cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        if self.infinity_bound < 1:
            raise ValueError("infinity_bound must be >= 1")
        if self.modulus != 2 * self.infinity_bound * self.cohort_size + 1:
            raise ValueError("modulus must equal 2*infinity_bound*cohort_size + 1")
        if not _sum_fits_int64(self.cohort_size, self.modulus):
            raise ValueError(
                f"modulus {self.modulus} is too wide: a cohort of {self.cohort_size} "
                "residues overflows int64; lower secagg.s"
            )
        if self.retry_cap < 1:
            raise ValueError("retry_cap must be >= 1")


def derive_config(
    clip_norm: float,
    scale: float,
    model_dim: int,
    cohort_size: int,
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> SecAggConfig:
    """Derive the shared encoding parameters from run-level choices.

    The L-infinity bound after rotation is ceil(2 * s * C * ln(d) / sqrt(d))
    (natural log), and the modulus leaves room for cohort_size entries at
    the extreme, so modular summation can never wrap.
    """
    if model_dim < 1:
        raise ValueError("model_dim must be >= 1")
    padded_dim = 1 << (int(model_dim) - 1).bit_length()
    if not clip_norm > 0 or not scale > 0:
        raise ValueError("clip_norm and scale must be > 0")
    real_bound = 2.0 * scale * clip_norm * math.log(padded_dim) / math.sqrt(padded_dim)
    if not math.isfinite(real_bound):
        raise ValueError("clip_norm and scale must be finite, with a finite product")
    infinity_bound = max(1, math.ceil(real_bound))
    modulus = 2 * infinity_bound * cohort_size + 1
    return SecAggConfig(
        clip_norm=float(clip_norm),
        scale=float(scale),
        padded_dim=padded_dim,
        cohort_size=int(cohort_size),
        infinity_bound=infinity_bound,
        modulus=modulus,
        retry_cap=int(retry_cap),
    )


def _rounded_norm_bound_sq(config: SecAggConfig) -> float:
    """Squared L2 bound the rounded vector must satisfy.

    With alpha = ROUNDING_NORM_ALPHA, stochastic rounding of a vector with
    norm at most s*C lands within this bound with probability >= 1 - alpha:
        (s C)^2 + d/4 + sqrt(2 ln(1/alpha)) * (s C + sqrt(d)/2).
    """
    s_c = config.scale * config.clip_norm
    d = float(config.padded_dim)
    slack = math.sqrt(2.0 * math.log(1.0 / ROUNDING_NORM_ALPHA))
    return s_c**2 + d / 4.0 + slack * (s_c + math.sqrt(d) / 2.0)


def inflated_clip_norm(config: SecAggConfig) -> float:
    """Effective per-client L2 sensitivity after the encoding pipeline.

    Conditional rounding guarantees the rounded vector's norm is at most
    sqrt(bound); un-scaling by s gives the norm the server-side noise must
    be calibrated to:
        sqrt(C^2 + d/(4 s^2) + sqrt(2 ln(1/alpha)) * (C/s + sqrt(d)/(2 s^2)))
    which decays to C as the scale s grows.
    """
    return math.sqrt(_rounded_norm_bound_sq(config)) / config.scale


def encode_client(
    delta: np.ndarray,
    config: SecAggConfig,
    rotation_signs: np.ndarray,
    seed: SeedPath,
) -> tuple[np.ndarray, int]:
    """Map one client's real update to non-negative integers mod M.

    rotation_signs is the round's shared Rademacher vector (all cohort
    clients must use the same one); seed drives this client's private
    rounding randomness.  Returns the encoded int64 vector and the number
    of rotated coordinates the L-infinity clamp cut (|x| > infinity_bound).
    Raises RoundingRetriesExhausted if the rounded norm check fails
    retry_cap consecutive times.
    """
    delta = as_param_vector(delta)
    d = delta.shape[0]
    if d > config.padded_dim:
        raise ValueError("update is wider than the padded dimension")
    # One padded row carries the update through scale, clip, rotation and
    # clamp; each step is the same float arithmetic as clip_l2,
    # randomized_hadamard and np.clip on copies.
    row = np.zeros(config.padded_dim, dtype=np.float64)
    head = row[:d]
    np.multiply(delta, config.scale, out=head)
    scaled_clip = config.scale * config.clip_norm
    if not scaled_clip > 0:
        raise ValueError("clip_norm must be > 0")
    norm = float(np.linalg.norm(head))
    if not math.isfinite(norm):
        as_param_vector(head)  # raises when the scaling overflowed an entry
    if norm > scaled_clip:
        head *= scaled_clip / norm
    rotate_inplace(row, rotation_signs)
    bound = float(config.infinity_bound)
    clamped_count = int(np.count_nonzero(np.abs(row) > bound))
    np.clip(row, -bound, bound, out=row)

    norm_bound_sq = _rounded_norm_bound_sq(config)
    rounded = np.empty(config.padded_dim, dtype=np.float64)
    for attempt in range(config.retry_cap):
        uniforms = seed.child("round-attempt", attempt).generator().random(config.padded_dim)
        stochastic_round(row, uniforms, rounded)
        if float(rounded @ rounded) <= norm_bound_sq:
            rounded += bound
            return rounded.astype(np.int64), clamped_count
    raise RoundingRetriesExhausted(
        f"stochastic rounding exceeded the norm bound {config.retry_cap} times"
    )


def modular_sum(updates: Sequence[np.ndarray] | np.ndarray, modulus: int) -> np.ndarray:
    """Sum residue vectors modulo modulus (the secure-aggregation server op).

    ``updates`` is a list of vectors or the rows of one 2-d array (which is
    summed without a copy).  One int64 sum over the stacked updates, reduced
    once: exact because len(updates) residues in [0, modulus) cannot
    overflow int64, which is checked.
    """
    if len(updates) == 0:
        raise ValueError("updates must be nonempty")
    if len({np.shape(u) for u in updates}) != 1 or np.ndim(updates[0]) != 1:
        raise ValueError("all updates must be vectors of the same shape")
    stack = np.asarray(updates)
    if stack.dtype.kind not in "iu":
        raise ValueError("modular_sum takes integer vectors")
    if not _sum_fits_int64(len(updates), modulus):
        raise ValueError(f"{len(updates)} residues mod {modulus} overflow int64")
    if stack.min() < 0 or stack.max() >= modulus:
        raise ValueError("modular_sum takes residues in [0, modulus)")
    return np.sum(stack, axis=0, dtype=np.int64) % modulus


def decode(
    modular_total: np.ndarray,
    config: SecAggConfig,
    rotation_signs: np.ndarray,
    n_clients: int,
    model_dim: int,
) -> np.ndarray:
    """Recover the approximate real sum of client updates from the modular sum.

    Subtracts the n_clients shift terms, undoes the rotation and the scale,
    and drops the padding.  n_clients must be the number of vectors actually
    summed; the modulus is wide enough for cohort_size of them, so no
    wraparound correction is needed.
    """
    if not 1 <= n_clients <= config.cohort_size:
        raise ValueError("n_clients must be in [1, cohort_size]")
    total = np.asarray(modular_total)
    if total.shape != (config.padded_dim,):
        raise ValueError("modular total has the wrong width")
    unshifted = total.astype(np.float64) - float(n_clients * config.infinity_bound)
    unrotated = inverse_rotation(unshifted, rotation_signs)
    if not 1 <= model_dim <= config.padded_dim:
        raise ValueError("model_dim must be in [1, padded_dim]")
    return unrotated[:model_dim] / config.scale


def bits_per_update(config: SecAggConfig) -> int:
    """Client upload cost of one encoded update, in bits."""
    return config.padded_dim * math.ceil(math.log2(config.modulus))
