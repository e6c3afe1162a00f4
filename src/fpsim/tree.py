"""Tree-aggregated private prefix sums with restart support.

The mechanism releases, after every round, the cumulative sum of all vectors
added so far plus correlated Gaussian noise.  Within a segment the noise for
the prefix covering rounds [0, t] is the sum of one noise vector per node of
the canonical binary-counter decomposition of the interval, so a prefix of
length n carries popcount(n) node noises, each N(0, (z*clip_norm)^2 I).

A restart freezes the current segment's last reported total (true sum plus
its noise realization) and opens a fresh segment, optionally with a new clip
scale.  Reported sums stay cumulative across segments.

Node noise is regenerated from seeds on demand and only the nodes of the
active decomposition are cached, so the state is O(d log T), never the full
per-round history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fpsim.seeds import SeedPath, gaussian_vector
from fpsim.vectors import as_param_vector

__all__ = ["TreeState", "prefix_decomposition"]


def prefix_decomposition(n: int) -> list[tuple[int, int]]:
    """Binary-counter decomposition of a length-n prefix into (level, index) nodes.

    Node (level, index) spans rounds [index * 2^level, (index + 1) * 2^level).
    The blocks are the set bits of n taken from the most significant down,
    so a prefix of length n is covered by popcount(n) nodes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = []
    offset = 0
    for level in range(n.bit_length() - 1, -1, -1):
        if n >> level & 1:
            nodes.append((level, offset >> level))
            offset += 1 << level
    return nodes


def _node_seed(seed: SeedPath, segment: int, level: int, index: int) -> SeedPath:
    return seed.child("segment", segment).child("level", level).child("node", index)


@dataclass
class TreeState:
    """Mutable state of one tree-aggregation noise structure.

    Node noise for (segment, level, index) is a pure function of ``seed``,
    so any prefix can be replayed.  After t+1 rounds in a segment the
    reported total equals finalized_totals + running_true_prefix + the sum
    of node noises over the decomposition of [0, t].
    """

    z: float
    clip_norm: float
    d: int
    seed: SeedPath
    segment_index: int = 0
    round_in_segment: int = 0
    finalized_totals: np.ndarray = field(default=None)  # type: ignore[assignment]
    running_true_prefix: np.ndarray = field(default=None)  # type: ignore[assignment]
    last_noise: np.ndarray = field(default=None)  # type: ignore[assignment]
    _node_cache: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ValueError("noise multiplier z must be >= 0")
        if not self.clip_norm > 0:
            raise ValueError("clip_norm must be > 0")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        for name in ("finalized_totals", "running_true_prefix", "last_noise"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.d, dtype=np.float64))

    def _node_noise(self, level: int, index: int) -> np.ndarray:
        key = (level, index)
        cached = self._node_cache.get(key)
        if cached is None:
            # Explicit z == 0 guard: an unbounded clip norm would otherwise
            # turn 0 * inf into nan.
            sigma = 0.0 if self.z == 0 else self.z * self.clip_norm
            cached = gaussian_vector(
                _node_seed(self.seed, self.segment_index, level, index), sigma, self.d
            )
            self._node_cache[key] = cached
        return cached

    def add_round(self, x: np.ndarray) -> np.ndarray:
        """Add round vector ``x`` and return the noised cumulative total.

        The return value is un-normalized (no division by cohort size) and
        cumulative across segments.  The caller is responsible for clipping
        ``x``; the tree does not re-clip.
        """
        x = as_param_vector(x, self.d)
        self.running_true_prefix = self.running_true_prefix + x
        nodes = prefix_decomposition(self.round_in_segment + 1)
        noise = np.zeros(self.d, dtype=np.float64)
        for level, index in nodes:
            noise += self._node_noise(level, index)
        # Nodes that fell out of the decomposition never recur in this
        # segment; dropping them keeps the cache at O(log T) vectors.
        active = set(nodes)
        for key in [k for k in self._node_cache if k not in active]:
            del self._node_cache[key]
        self.last_noise = noise
        self.round_in_segment += 1
        return self.finalized_totals + self.running_true_prefix + noise

    def restart(self, new_clip_norm: float) -> None:
        """Freeze the current segment and open a new one with new_clip_norm.

        The frozen contribution is the segment's last reported value: its
        true sum plus the noise realization that was last reported. With
        z = 0 a restart therefore never changes reported sums.
        """
        if not new_clip_norm > 0:
            raise ValueError("new_clip_norm must be > 0")
        if self.round_in_segment < 1:
            raise ValueError("cannot restart an empty segment")
        self.finalized_totals = (
            self.finalized_totals + self.running_true_prefix + self.last_noise
        )
        self.running_true_prefix = np.zeros(self.d, dtype=np.float64)
        self.last_noise = np.zeros(self.d, dtype=np.float64)
        self._node_cache.clear()
        self.segment_index += 1
        self.round_in_segment = 0
        self.clip_norm = float(new_clip_norm)
