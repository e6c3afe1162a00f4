"""Client-side encoding pipeline for modular secure aggregation.

Secure aggregation sums client integer vectors modulo M without revealing
any individual vector, so each client must map its real update into
non-negative integers whose modular sum decodes to (a close approximation
of) the true sum.  A SecAggRound holds one round's shared rotation signs,
its clients' rounding seeds and its running modular total; its add runs
the pipeline on a block of clients, one row each, and folds the block's
codes into the total, so no array of per-client codes is built:

  1. scale by s and L2-clip to s * clip_norm,
  2. pad to a power-of-two width and apply the round's randomized Hadamard
     rotation (flattening the per-coordinate range),
  3. clamp coordinates to an L-infinity bound derived from the clip norm,
  4. stochastically round to integers, retrying until the rounded vector's
     L2 norm is within a high-probability bound (so the server can account
     for rounding via a modest inflation of the clip norm rather than a
     worst-case one),
  5. shift by the L-infinity bound to make entries non-negative.

The sum is taken modulo M = 2 * infinity_bound * cohort_size + 1, which is
wide enough that no wraparound occurs; SecAggRound.decode then undoes
shift, rotation, scale and padding.  SecAggConfig takes the run's choices
(clip norm, scale, model width, cohort size, retry cap) and derives every
other encoding quantity once, when it is built; the sum runs in int64, so
it refuses a modulus with cohort_size * (M - 1) >= 2**63, and a round
admits at most cohort_size clients.  Noise calibrated for central DP must
use the rounded vectors' inflated norm bound
(SecAggConfig.inflated_clip_norm) rather than the raw clip norm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from fpsim.seeds import SeedPath, sign_vector
from fpsim.vectors import as_param_vector
from fpsim._kernels import fwht_inplace, stochastic_round

__all__ = [
    "SecAggConfig",
    "SecAggRound",
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


def _rotate(x: np.ndarray, signs: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite ``x`` with its normalized Hadamard rotation
    (1/sqrt(d)) * H_d * diag(signs) x, an isometry up to float64 rounding.
    x is a float64 vector of power-of-two width, ``signs`` a {-1, +1}
    float64 vector of that width, and ``scratch`` the transform's second
    buffer, of x's shape."""
    x *= signs
    fwht_inplace(x, scratch)
    x *= 1.0 / np.sqrt(x.shape[0])


class SecAggRound:
    """One round of secure aggregation: its shared rotation, its clients'
    rounding seeds, the running modular total and the decode.

    The round's Rademacher ``signs`` are drawn from seed.child("rotation",
    round_index), and client c's rounding attempt a draws its uniforms from
    seed.child("rounding", round_index).child("client", c).child(
    "round-attempt", a).  ``total`` holds padded_dim int64 residues mod M,
    ``clients`` counts the updates added into it and ``clamped`` the rotated
    coordinates the L-infinity clamp cut (|x| > infinity_bound) over them.
    """

    def __init__(self, config: SecAggConfig, seed: SeedPath, round_index: int) -> None:
        self.config = config
        self.round_index = round_index
        self.signs = sign_vector(seed.child("rotation", round_index), config.padded_dim)
        self.rounding = seed.child("rounding", round_index)
        self.total = np.zeros(config.padded_dim, dtype=np.int64)
        self.clients = 0
        self.clamped = 0

    def add(self, deltas: np.ndarray, client_ids: Sequence[int]) -> None:
        """Encode a block of client updates and fold their codes into ``total``.

        Row i of ``deltas`` is client ``client_ids[i]``'s real update,
        config.model_dim wide.  Each row's codes are checked to lie in
        [0, M) and added into one int64 block sum; the round admits at most
        cohort_size clients, which the config checked to sum within int64.
        total becomes (total + block % M) mod M, by one conditional
        subtraction of M: the same integers however a round splits its
        cohort into calls.  Raises RoundingRetriesExhausted, naming the
        round and the client, if a rounded norm check fails retry_cap
        consecutive times; a call that raises leaves the round as it was.
        """
        config = self.config
        width, modulus, d = config.padded_dim, config.modulus, config.model_dim
        rows = len(client_ids)
        deltas = np.asarray(deltas, dtype=np.float64)
        if deltas.shape != (rows, d):
            raise ValueError(
                f"deltas of shape {deltas.shape} are not one row of model_dim {d} per client"
            )
        if self.clients + rows > config.cohort_size:
            raise ValueError(
                f"{self.clients + rows} clients exceed the cohort size {config.cohort_size}"
            )
        if not np.all(np.isfinite(deltas)):
            raise ValueError("update contains NaN or Inf")
        scaled_clip = config.scale * config.clip_norm
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
        clamped = 0
        for i, client_id in enumerate(client_ids):
            np.multiply(deltas[i], config.scale, out=head)
            row[d:] = 0.0
            norm = float(np.linalg.norm(head))
            if not math.isfinite(norm):
                as_param_vector(head)  # raises when the scaling overflowed an entry
            if norm > scaled_clip:
                head *= scaled_clip / norm
            _rotate(row, self.signs, scratch)
            np.abs(row, out=rounded)
            clamped += int(np.count_nonzero(np.greater(rounded, bound, out=over)))
            np.clip(row, -bound, bound, out=row)
            seed = self.rounding.child("client", client_id)
            for attempt in range(config.retry_cap):
                seed.child("round-attempt", attempt).generator().random(out=uniforms)
                stochastic_round(row, uniforms, rounded, scratch)
                if float(rounded @ rounded) <= config.norm_bound_sq:
                    break
            else:
                raise RoundingRetriesExhausted(
                    f"round {self.round_index}, client {client_id}: stochastic rounding "
                    f"exceeded the norm bound {config.retry_cap} times (secagg.retry_cap)"
                )
            rounded += bound
            codes[...] = rounded
            if codes.min() < 0 or codes.max() >= modulus:
                raise ValueError(f"row {i} encodes outside [0, {modulus})")
            block += codes
        # Both addends are residues, so one subtraction of M reduces the sum.
        block %= modulus
        total = self.total
        total += block
        np.subtract(total, modulus, out=total, where=np.greater_equal(total, modulus, out=over))
        self.clients += rows
        self.clamped += clamped

    def decode(self) -> np.ndarray:
        """The approximate real sum of the added updates: subtract the
        ``clients`` shift terms, undo the rotation and the scale, and drop
        the padding.  The modulus is wide enough for cohort_size updates,
        so no wraparound correction is needed.  The normalized Hadamard
        matrix is symmetric and orthogonal, so the inverse rotation is the
        same transform followed by diag(signs)."""
        config = self.config
        out = self.total.astype(np.float64)
        out -= float(self.clients * config.infinity_bound)
        fwht_inplace(out)
        out *= 1.0 / np.sqrt(config.padded_dim)
        out *= self.signs
        return out[: config.model_dim] / config.scale
