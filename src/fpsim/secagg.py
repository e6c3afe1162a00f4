"""Client-side encoding pipeline for modular secure aggregation.

Secure aggregation sums client integer vectors modulo M without revealing
any individual vector, so each client must map its real update into
non-negative integers whose modular sum decodes to (a close approximation
of) the true sum.  encode_block runs the pipeline on a block of clients,
one row each, and adds the block's codes into the caller's running modular
total, so no array of per-client codes is built:

  1. scale by s and L2-clip to s * clip_norm,
  2. pad to a power-of-two width and apply a shared randomized Hadamard
     rotation (flattening the per-coordinate range),
  3. clamp coordinates to an L-infinity bound derived from the clip norm,
  4. stochastically round to integers, retrying until the rounded vector's
     L2 norm is within a high-probability bound (so the server can account
     for rounding via a modest inflation of the clip norm rather than a
     worst-case one),
  5. shift by the L-infinity bound to make entries non-negative.

The sum is taken modulo M = 2 * infinity_bound * cohort_size + 1, which is
wide enough that no wraparound occurs; decode then undoes shift, rotation,
scale and padding.  SecAggConfig takes the run's choices (clip norm, scale,
model width, cohort size, retry cap) and derives every other encoding
quantity once, when it is built; the sum runs in int64, so it refuses a
modulus with cohort_size * (M - 1) >= 2**63.  Noise calibrated for central
DP must use the rounded vectors' inflated norm bound
(SecAggConfig.inflated_clip_norm) rather than the raw clip norm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from fpsim.seeds import SeedPath
from fpsim.vectors import as_param_vector
from fpsim._kernels import fwht_inplace, stochastic_round

__all__ = [
    "SecAggConfig",
    "encode_block",
    "decode",
    "inverse_rotation",
    "RoundingRetriesExhausted",
]

# Failure probability alpha for the per-client rounded-norm bound.  The
# expected number of retries at this alpha is below 2.
ROUNDING_NORM_ALPHA = math.exp(-0.5)

DEFAULT_RETRY_CAP = 100


class RoundingRetriesExhausted(RuntimeError):
    """Conditional stochastic rounding failed retry_cap times in a row;
    ``row`` is the failing row of the encoded block, when there is one."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


def _sum_fits_int64(count: int, modulus: int) -> bool:
    """Whether count residues in [0, modulus) always sum below 2**63."""
    return count * (modulus - 1) < 2**63


@dataclass(frozen=True)
class SecAggConfig:
    """Per-run encoding shared by clients and server: the run's choices
    (clip norm C, scale s, model_dim, cohort_size, retry_cap) and what is
    derived from them once, at the padded width d:

    - ``padded_dim`` d, the power of two at or above model_dim;
    - ``infinity_bound``, ceil(2 s C ln(d) / sqrt(d)), at least 1;
    - ``modulus`` 2 * infinity_bound * cohort_size + 1, so that a cohort of
      entries at the extreme cannot wrap;
    - ``norm_bound_sq``, (s C)^2 + d/4 + sqrt(2 ln(1/alpha)) (s C + sqrt(d)/2)
      at alpha = ROUNDING_NORM_ALPHA, which a stochastic rounding of a
      vector of norm <= s C meets with probability >= 1 - alpha;
    - ``inflated_clip_norm``, sqrt(norm_bound_sq) / s, the per-client L2
      sensitivity the noise must be calibrated to (it decays to C as s grows);
    - ``bits_per_update``, the upload cost of one encoded update.
    """

    clip_norm: float
    scale: float
    model_dim: int
    cohort_size: int
    retry_cap: int = DEFAULT_RETRY_CAP
    padded_dim: int = field(init=False)
    infinity_bound: int = field(init=False)
    modulus: int = field(init=False)
    norm_bound_sq: float = field(init=False)
    inflated_clip_norm: float = field(init=False)
    bits_per_update: int = field(init=False)

    def __post_init__(self) -> None:
        scale, clip_norm = self.scale, self.clip_norm
        if self.model_dim < 1:
            raise ValueError("model_dim must be >= 1")
        if not clip_norm > 0 or not scale > 0:
            raise ValueError("clip_norm and scale must be > 0")
        if self.cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        if self.retry_cap < 1:
            raise ValueError("retry_cap must be >= 1")
        padded_dim = 1 << (int(self.model_dim) - 1).bit_length()
        real_bound = 2.0 * scale * clip_norm * math.log(padded_dim) / math.sqrt(padded_dim)
        if not math.isfinite(real_bound):
            raise ValueError("clip_norm and scale must be finite, with a finite product")
        infinity_bound = max(1, math.ceil(real_bound))
        modulus = 2 * infinity_bound * self.cohort_size + 1
        if not _sum_fits_int64(self.cohort_size, modulus):
            raise ValueError(
                f"modulus {modulus} is too wide: a cohort of {self.cohort_size} "
                "residues overflows int64; lower secagg.s"
            )
        s_c = scale * clip_norm
        d = float(padded_dim)
        slack = math.sqrt(2.0 * math.log(1.0 / ROUNDING_NORM_ALPHA))
        norm_bound_sq = s_c**2 + d / 4.0 + slack * (s_c + math.sqrt(d) / 2.0)
        derived = {
            "padded_dim": padded_dim,
            "infinity_bound": infinity_bound,
            "modulus": modulus,
            "norm_bound_sq": norm_bound_sq,
            "inflated_clip_norm": math.sqrt(norm_bound_sq) / scale,
            "bits_per_update": padded_dim * math.ceil(math.log2(modulus)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _check_rotation_signs(d: int, signs: np.ndarray) -> np.ndarray:
    """``signs`` as float64, checked to be a {-1, +1} vector of the
    power-of-two width d."""
    if d < 1 or d & (d - 1):
        raise ValueError(f"dimension must be a power of two, got {d}")
    signs = np.asarray(signs, dtype=np.float64)
    if signs.shape != (d,) or not np.all(np.abs(signs) == 1.0):
        raise ValueError("signs must be a length-d vector over {-1, +1}")
    return signs


def _rotate(x: np.ndarray, signs: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite ``x`` with its normalized Hadamard rotation
    (1/sqrt(d)) * H_d * diag(signs) x, an isometry up to float64 rounding.
    x is a float64 vector of power-of-two width, ``signs`` were checked
    for that width by _check_rotation_signs, and ``scratch`` is the
    transform's second buffer, of x's shape."""
    x *= signs
    fwht_inplace(x, scratch)
    x *= 1.0 / np.sqrt(x.shape[0])


def inverse_rotation(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Exact inverse of the encoder's rotation with the same signs, on a copy.

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


def encode_block(
    deltas: np.ndarray,
    config: SecAggConfig,
    rotation_signs: np.ndarray,
    seeds: Sequence[SeedPath],
    total: np.ndarray,
) -> int:
    """Encode a block of client updates and add their codes into ``total``.

    Row i of ``deltas`` is one client's real update, config.model_dim wide;
    ``seeds[i]`` drives its private rounding randomness.  rotation_signs is
    the round's shared Rademacher vector (all cohort clients must use the
    same one), checked once per call.  ``total``, the caller's running sum,
    holds padded_dim int64 residues mod M.  Each row's codes are checked to
    lie in [0, M) and added into one int64 block sum, whose row count is
    checked to fit int64, and total becomes (total + block % M) % M: the
    same integers however a round splits its cohort into calls.  Returns
    the number of rotated coordinates the L-infinity clamp cut
    (|x| > infinity_bound) over the block.  Raises RoundingRetriesExhausted,
    its ``row`` the failing row, if a rounded norm check fails retry_cap
    consecutive times; a call that raises leaves ``total`` as it was.
    """
    width = config.padded_dim
    modulus = config.modulus
    signs = _check_rotation_signs(width, rotation_signs)
    rows = len(seeds)
    deltas = np.asarray(deltas, dtype=np.float64)
    if rows == 0 or deltas.ndim != 2 or deltas.shape[0] != rows:
        raise ValueError("deltas must be a 2-d array of at least one row, one per seed")
    d = deltas.shape[1]
    if d != config.model_dim:
        raise ValueError(f"update width {d} is not the config's model_dim {config.model_dim}")
    if not (isinstance(total, np.ndarray) and total.dtype == np.int64 and total.shape == (width,)):
        raise ValueError(f"total must be an int64 vector of width {width}")
    if total.min() < 0 or total.max() >= modulus:
        raise ValueError(f"total must hold residues in [0, {modulus})")
    if not _sum_fits_int64(rows, modulus):
        raise ValueError(f"{rows} residues mod {modulus} overflow int64")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("update contains NaN or Inf")
    scaled_clip = config.scale * config.clip_norm
    if not scaled_clip > 0:
        raise ValueError("clip_norm must be > 0")
    bound = float(config.infinity_bound)
    # One padded row carries each update through scale, clip, rotation and
    # clamp; each step is the same float arithmetic as an L2 clip, the
    # rotation and np.clip on copies (tests/oracles.py).  The rounded row
    # also holds |row| for the clamp count, and every attempt's uniforms
    # are drawn into one row: random(out=) gives the doubles random(width)
    # returns.  One scratch row serves the transform, then the rounding,
    # and then, as int64, the accepted row's codes.  All of them are
    # allocated once per call: a fresh row costs its page faults.
    row = np.empty(width)
    head = row[:d]
    rounded = np.empty(width)
    uniforms = np.empty(width)
    scratch = np.empty(width)
    codes = scratch.view(np.int64)
    over = np.empty(width, dtype=bool)
    block = np.zeros(width, dtype=np.int64)
    clamped_count = 0
    for i, seed in enumerate(seeds):
        np.multiply(deltas[i], config.scale, out=head)
        row[d:] = 0.0
        norm = float(np.linalg.norm(head))
        if not math.isfinite(norm):
            as_param_vector(head)  # raises when the scaling overflowed an entry
        if norm > scaled_clip:
            head *= scaled_clip / norm
        _rotate(row, signs, scratch)
        np.abs(row, out=rounded)
        clamped_count += int(np.count_nonzero(np.greater(rounded, bound, out=over)))
        np.clip(row, -bound, bound, out=row)
        for attempt in range(config.retry_cap):
            seed.child("round-attempt", attempt).generator().random(out=uniforms)
            stochastic_round(row, uniforms, rounded, scratch)
            if float(rounded @ rounded) <= config.norm_bound_sq:
                break
        else:
            raise RoundingRetriesExhausted(
                f"stochastic rounding exceeded the norm bound {config.retry_cap} times", row=i
            )
        rounded += bound
        codes[...] = rounded
        if codes.min() < 0 or codes.max() >= modulus:
            raise ValueError(f"row {i} encodes outside [0, {modulus})")
        block += codes
    block %= modulus
    block += total
    np.remainder(block, modulus, out=total)
    return clamped_count


def decode(
    modular_total: np.ndarray,
    config: SecAggConfig,
    rotation_signs: np.ndarray,
    n_clients: int,
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
    return unrotated[: config.model_dim] / config.scale

