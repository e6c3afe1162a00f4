"""Clip-norm estimation from privately counted clip indicators.

Each round every cohort client reports, alongside its update, an indicator
b in {0, 1} of whether its update norm stayed below the current quantile
estimate.  The indicators are summed through their own noise tree:
``ClipState.count_tree`` is a d = 1 TreeState with the same prefix
decomposition as the update tree, noise std sigma_b per node, and
run_round restarts both trees together on every restart round, in every
clip mode, so the two trees' nodes span the same rounds.  Its output is a
running noised count, and after t rounds counted the geometric update

    estimate = estimate(0) * exp(-eta * (mean_b - target_quantile * t))

(Andrew et al. 2021's per-round step, unrolled) tracks the target quantile
of the client norm distribution, where mean_b is the noised count of those
t rounds over the cohort size.  t does not reset at restarts.

The estimate adapts every round, but the clip norm actually applied to
updates ("active") only jumps to the current estimate at restarts, because
mid-segment the tree noise is calibrated to the segment's clip scale.  A
fixed clip (clip.mode = fixed) is this estimate at eta = 0 with sigma_b = 0:
it stays at estimate(0) = clip.c0 exactly, and an infinite c0 stays infinite.

Publishing both the noised vector sum (noise multiplier z_delta) and the
noised indicator count (noise std sigma_b) is, by a standard argument,
jointly no more revealing than a single vector sum with combined multiplier
z = (z_delta^-2 + (2 sigma_b)^-2)^(-1/2); noise_split inverts this so a run
can be configured by the guarantee-side z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fpsim.seeds import SeedPath
from fpsim.tree import TreeState

__all__ = ["ClipState", "noise_split", "combined_multiplier"]

# The estimate is clamped to this fraction of its initial value so a burst
# of noisy counts cannot drive it to zero, from where exp updates of any
# magnitude could never recover numerically.
MIN_ESTIMATE_FRACTION = 1e-6


def noise_split(z: float, sigma_b: float) -> float:
    """Vector-sum noise multiplier z_delta that, together with an indicator
    count of noise std sigma_b, yields combined multiplier z.

    Inverts combined_multiplier for z_delta:
        z_delta = (z^-2 - (2 sigma_b)^-2)^(-1/2).
    Requires 2 * sigma_b > z: the count noise alone must be strictly weaker
    than the target guarantee, otherwise no vector noise can meet it.
    z >= 0 and sigma_b >= 0 are the config's.
    """
    if z == 0:
        return 0.0
    if not 2.0 * sigma_b > z:
        raise ValueError("clip-count noise too small to absorb")
    return (z**-2 - (2.0 * sigma_b) ** -2) ** -0.5


def combined_multiplier(z_delta: float, sigma_b: float) -> float:
    """Effective single-release noise multiplier of the joint mechanism.

        z = (z_delta^-2 + (2 sigma_b)^-2)^(-1/2)

    Inverse of noise_split: combined_multiplier(noise_split(z, s), s) == z.
    A zero z_delta (no vector noise at all) passes through as zero, the
    non-private marker used throughout.  A nonzero z_delta comes with a
    sigma_b > 0 (noise_split's).
    """
    if z_delta == 0:
        return 0.0
    return (z_delta**-2 + (2.0 * sigma_b) ** -2) ** -0.5


@dataclass
class ClipState:
    """Quantile-tracking state plus the indicator-count noise tree.

    ``estimate`` follows the noised clip statistics every round; restart
    returns it as the next segment's clip norm, which the update tree then
    holds (RunState.active_clip).  The fields are the run's validated
    clip.* keys, cohort size and sigma_b, and are not re-checked.
    """

    initial_estimate: float
    target_quantile: float
    learning_rate: float
    sigma_b: float
    cohort_size: int
    seed: SeedPath
    estimate: float = field(init=False)
    rounds_seen: int = field(init=False, default=0)
    count_tree: TreeState = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.estimate = float(self.initial_estimate)
        # A d = 1 tree over raw indicator sums, prefix-decomposed like the
        # update tree and restarted with it: z=sigma_b with a unit clip
        # scale gives node noise std exactly sigma_b.
        self.count_tree = TreeState(self.sigma_b, 1.0, 1, self.seed.child("clip-count"))

    def add_round(self, indicator_sum: float) -> float:
        """Feed one round's raw (un-noised) indicator sum; returns the
        cumulative noised mean count and updates the quantile estimate."""
        if not 0.0 <= indicator_sum <= self.cohort_size:
            raise ValueError("indicator sum must be within [0, cohort_size]")
        noised_cumulative = float(
            self.count_tree.add_round(np.array([indicator_sum], dtype=np.float64))[0]
        )
        noised_mean = noised_cumulative / self.cohort_size
        self.rounds_seen += 1
        self.update_estimate(noised_mean, self.rounds_seen)
        return noised_mean

    def update_estimate(self, noised_mean_count: float, t: int) -> float:
        """Geometric quantile-tracker update.

            estimate = initial * exp(-eta * (noised_mean_count - q * t))

        noised_mean_count is the cumulative noised indicator count of the t
        rounds counted since the start of the run (restarts do not reset
        it), already divided by the cohort size.  The result is floored at
        MIN_ESTIMATE_FRACTION * initial and stored.
        """
        if t < 0:
            raise ValueError("t must be >= 0")
        exponent = -self.learning_rate * (noised_mean_count - self.target_quantile * t)
        # exp overflow is harmless to cap: the estimate is a positive scale.
        estimate = self.initial_estimate * math.exp(min(exponent, 700.0))
        self.estimate = max(estimate, MIN_ESTIMATE_FRACTION * self.initial_estimate)
        return self.estimate

    def restart(self) -> float:
        """Freeze the count tree's segment and return the current estimate,
        the clip norm of the segment that opens."""
        self.count_tree.restart(1.0)
        return self.estimate
