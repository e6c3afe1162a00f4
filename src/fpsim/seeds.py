"""Deterministic seed derivation for independent random streams.

Every random draw in the simulator is keyed by a SeedPath: a 64-bit master
seed plus an ordered list of (label, index) pairs.  The path is hashed with
SHA-256 into generator state, so identical paths always reproduce the same
stream and distinct paths give streams that are independent for all
practical purposes.  No global RNG state is ever used.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SeedPath", "gaussian_vector", "sign_vector"]

_DOMAIN = b"fpsim-seed-v1"


@dataclass(frozen=True)
class SeedPath:
    """Hierarchical seed: master seed plus ordered (label, index) pairs.

    Instances are immutable; ``child`` returns a new path with one more
    (label, index) pair appended.  Identical (master_seed, labels) yield
    identical random output; distinct labels yield independent streams.
    """

    master_seed: int
    labels: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def child(self, label: str, index: int = 0) -> "SeedPath":
        """Return the sub-path (self.labels + [(label, index)])."""
        return SeedPath(self.master_seed, self.labels + ((label, index),))

    def _digest(self) -> bytes:
        # Length-prefixed encoding keeps the path -> bytes map injective.
        h = hashlib.sha256(_DOMAIN)
        h.update(struct.pack("<Q", int(self.master_seed)))
        for label, index in self.labels:
            raw = label.encode("utf-8")
            h.update(struct.pack("<I", len(raw)))
            h.update(raw)
            h.update(struct.pack("<q", index))
        return h.digest()

    def generator(self) -> np.random.Generator:
        """A fresh numpy Generator deterministically derived from this path."""
        entropy = int.from_bytes(self._digest(), "little")
        return np.random.Generator(np.random.PCG64(entropy))


def gaussian_vector(seed: SeedPath, sigma: float, d: int) -> np.ndarray:
    """d i.i.d. N(0, sigma^2) float64 samples, fully determined by ``seed``.

    Args:
      seed: stream identity; the same path always returns the same vector.
      sigma: standard deviation, >= 0.  sigma == 0 returns exact zeros.
      d: output length, >= 1.
    """
    if sigma == 0:
        return np.zeros(d, dtype=np.float64)
    return seed.generator().standard_normal(d) * float(sigma)


def sign_vector(seed: SeedPath, d: int) -> np.ndarray:
    """Uniform random vector over {-1, +1}^d, d >= 1, determined by ``seed``."""
    bits = seed.generator().integers(0, 2, size=d, dtype=np.int64)
    return (2 * bits - 1).astype(np.float64)
