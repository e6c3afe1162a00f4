"""Tree-aggregated private prefix sums with restart support.

The mechanism releases, after every round, the cumulative sum of all vectors
added so far plus correlated Gaussian noise.  Within a segment the noise for
the prefix covering rounds [0, t] is the sum of one noise vector per node of
the canonical binary-counter decomposition of the interval, so a prefix of
length n carries popcount(n) node noises, each N(0, (z*clip_norm)^2 I).

A restart freezes the current segment's last reported total (true sum plus
its noise realization) and opens a fresh segment, optionally with a new clip
scale.  Reported sums stay cumulative across segments.

Each round draws one node from its seed, the one ``closing_node`` names, and
keeps only the segment's open nodes, so the state is O(d log T), never the
full per-round history.  The accountant folds its trees by the same
``closing_node`` step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fpsim.seeds import SeedPath, gaussian_vector
from fpsim.vectors import as_param_vector

__all__ = ["TreeState", "closing_node"]


def closing_node(n: int) -> tuple[int, int]:
    """The node (level, index) that the n-th round of a segment closes.

    Node (level, index) spans rounds [index * 2^level, (index + 1) * 2^level)
    of its segment.  Round n (counted from 1) closes the node at n's lowest
    set bit, ending at n, and that node replaces every open node of a lower
    level.  The open nodes, highest level first, are then the set bits of n
    from the most significant down: popcount(n) nodes tiling [0, n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    level = (n & -n).bit_length() - 1
    return level, (n >> level) - 1


def _node_seed(seed: SeedPath, segment: int, level: int, index: int) -> SeedPath:
    return seed.child("segment", segment).child("level", level).child("node", index)


@dataclass
class TreeState:
    """Mutable state of one tree-aggregation noise structure.

    Node noise for (segment, level, index) is a pure function of ``seed``,
    so any prefix can be replayed.  After n rounds in a segment the reported
    total equals finalized_totals + running_true_prefix + the sum of the
    open nodes' noises, the decomposition of [0, n).
    """

    z: float
    clip_norm: float
    d: int
    seed: SeedPath
    segment_index: int = field(init=False)
    round_in_segment: int = field(init=False)

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ValueError("noise multiplier z must be >= 0")
        if not self.clip_norm > 0:
            raise ValueError("clip_norm must be > 0")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        self.segment_index = self.round_in_segment = 0
        self.finalized_totals = np.zeros(self.d, dtype=np.float64)
        self.running_true_prefix = np.zeros(self.d, dtype=np.float64)
        # The segment's open nodes as (level, noise), highest level first.
        self._open_nodes: list[tuple[int, np.ndarray]] = []

    def _open_noise(self) -> np.ndarray:
        noise = np.zeros(self.d, dtype=np.float64)
        for _, node in self._open_nodes:
            noise += node
        return noise

    def add_round(self, x: np.ndarray) -> np.ndarray:
        """Add round vector ``x`` and return the noised cumulative total.

        The return value is un-normalized (no division by cohort size) and
        cumulative across segments.  The caller is responsible for clipping
        ``x``; the tree does not re-clip.
        """
        x = as_param_vector(x, self.d)
        self.running_true_prefix = self.running_true_prefix + x
        self.round_in_segment += 1
        level, index = closing_node(self.round_in_segment)
        while self._open_nodes and self._open_nodes[-1][0] < level:
            self._open_nodes.pop()
        # Explicit z == 0 guard: an unbounded clip norm would otherwise turn
        # 0 * inf into nan.
        sigma = 0.0 if self.z == 0 else self.z * self.clip_norm
        node_seed = _node_seed(self.seed, self.segment_index, level, index)
        self._open_nodes.append((level, gaussian_vector(node_seed, sigma, self.d)))
        return self.finalized_totals + self.running_true_prefix + self._open_noise()

    def restart(self, new_clip_norm: float) -> None:
        """Freeze the current segment and open a new one with new_clip_norm.

        The frozen contribution is the segment's last reported value: its
        true sum plus the noise of its open nodes. With z = 0 a restart
        therefore never changes reported sums.
        """
        if not new_clip_norm > 0:
            raise ValueError("new_clip_norm must be > 0")
        if self.round_in_segment < 1:
            raise ValueError("cannot restart an empty segment")
        self.finalized_totals = self.finalized_totals + self.running_true_prefix + self._open_noise()
        self.running_true_prefix = np.zeros(self.d, dtype=np.float64)
        self._open_nodes = []
        self.segment_index += 1
        self.round_in_segment = 0
        self.clip_norm = float(new_clip_norm)
