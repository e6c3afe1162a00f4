"""The federated training round loop.

Each round the server selects a cohort of exactly ``report_goal`` clients
among those whose re-participation timer has expired, runs the cohort's
local SGD as one stacked step, aggregates the clipped updates (plainly or
through the secure aggregation pipeline), feeds the un-normalized sum to
the noise tree, and applies the anchored momentum update

    momentum <- beta * momentum + (noised cumulative sum) / report_goal
    theta    <- theta0 + eta_s * momentum

which keeps the model a deterministic function of the released cumulative
sums (theta0 is the fixed anchor; restarts do not move it).  Timers make
participation limits structural: a timer of w rounds enforces a minimum
separation of w between any client's participations, which is what the
privacy accountant consumes post hoc.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from fpsim.clipping import ClipState
from fpsim.data import TokenDataset
from fpsim.models import NextTokenBOW
from fpsim.secagg import (
    SecAggConfig,
    bits_per_update,
    decode,
    encode_client,
    modular_sum,
)
from fpsim.seeds import SeedPath, sign_vector
from fpsim.tree import RestartSchedule, TreeState
from fpsim.vectors import as_param_vector

__all__ = [
    "AvailabilityModel",
    "CohortConfig",
    "ServerState",
    "RoundMetrics",
    "CohortExhausted",
    "TrainingDiverged",
    "cohort_update",
    "select_cohort",
    "run_round",
    "observed_limits",
]


class CohortExhausted(RuntimeError):
    """Fewer eligible clients than the report goal requires."""


class TrainingDiverged(RuntimeError):
    """Training loss or parameters became non-finite."""


@dataclass(frozen=True)
class AvailabilityModel:
    """Client availability weighting: uniform, or a sinusoidal day/night
    cycle where each client's phase is a fixed hash of its id."""

    kind: str = "uniform"
    period: float = 24.0
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "diurnal"):
            raise ValueError("availability kind must be 'uniform' or 'diurnal'")
        if self.kind == "diurnal":
            if not self.period > 0:
                raise ValueError("diurnal period must be > 0")
            if not 0.0 <= self.amplitude <= 1.0:
                raise ValueError("diurnal amplitude must be in [0, 1]")

    def weights(self, client_ids: np.ndarray, round_index: int) -> np.ndarray:
        if self.kind == "uniform":
            return np.ones(client_ids.shape[0], dtype=np.float64)
        # Golden-ratio hash spreads phases evenly and is independent of any
        # run seed: availability is a property of the world, not the run.
        phases = (client_ids.astype(np.uint64) * np.uint64(2654435761) % np.uint64(2**32)) / 2.0**32
        cycle = 2.0 * math.pi * (round_index / self.period + phases)
        return 1.0 + self.amplitude * np.sin(cycle)


@dataclass(frozen=True)
class CohortConfig:
    """Population-side selection parameters."""

    report_goal: int
    timer_rounds: int
    availability: AvailabilityModel = AvailabilityModel()

    def __post_init__(self) -> None:
        if self.report_goal < 1:
            raise ValueError("report_goal must be >= 1")
        if self.timer_rounds < 1:
            raise ValueError("timer_rounds must be >= 1")


def cohort_update(
    model: NextTokenBOW,
    params: np.ndarray,
    contexts: np.ndarray,
    labels: np.ndarray,
    eta_c: float,
    clip_active: float,
    clip_quantile: float,
    batch_size: int = 16,
    epochs: int = 1,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local SGD of a whole cohort from the current model, as one stacked
    step per minibatch; returns the (cohort, d) clipped deltas, the
    below-quantile indicators, and each client's mean minibatch loss.

    Client c's data is ``contexts[c]`` (n, window) and ``labels[c]`` (n,).
    The indicator compares the *unclipped* delta norm against clip_quantile
    (the server's current estimate); clipping itself uses clip_active.
    Each epoch shuffles every client's batch order from ``rng``, one row
    of ``rng.permuted`` per client; pass None for sequential order.
    """
    cohort, n = labels.shape
    if n == 0:
        raise ValueError("client datasets are empty")
    if not eta_c > 0:
        raise ValueError("eta_c must be > 0")
    if not clip_active > 0:
        raise ValueError("clip_active must be > 0")
    if batch_size < 1 or epochs < 1:
        raise ValueError("batch_size and epochs must be >= 1")
    params = as_param_vector(params, model.num_params)
    stack = np.tile(params, (cohort, 1))
    orders = np.tile(np.arange(n), (cohort, 1))
    rows = np.arange(cohort)[:, None]
    losses = np.zeros(cohort)
    steps = 0
    for _ in range(epochs):
        if rng is not None:
            rng.permuted(orders, axis=1, out=orders)
        for start in range(0, n, batch_size):
            batch = orders[:, start : start + batch_size]
            losses += model.sgd_step(stack, contexts[rows, batch], labels[rows, batch], eta_c)
            steps += 1
    stack -= params
    norms = np.sqrt(np.einsum("ij,ij->i", stack, stack))
    indicators = (norms <= clip_quantile).astype(np.int64)
    if math.isfinite(clip_active):
        stack *= (clip_active / np.maximum(norms, clip_active))[:, None]
    return stack, indicators, losses / steps


def select_cohort(
    next_eligible: np.ndarray,
    cfg: CohortConfig,
    round_index: int,
    seed: SeedPath,
) -> list[int]:
    """Draw exactly report_goal eligible clients and start their timers.

    ``next_eligible[i]`` (int64, set in place for the chosen) is the first
    round client i may report in.  Sampling is uniform, or
    availability-weighted via exponential-race keys, and deterministic in
    (seed, round).  Returns the ids in ascending (aggregation) order.
    """
    if round_index < 0:
        raise ValueError("round_index must be >= 0")
    ids = np.flatnonzero(next_eligible <= round_index)
    if ids.shape[0] < cfg.report_goal:
        raise CohortExhausted(
            f"population exhausted at round {round_index}: {ids.shape[0]} eligible "
            f"clients for report_goal {cfg.report_goal}; lower timer_rounds or raise population"
        )
    weights = np.maximum(cfg.availability.weights(ids, round_index), 1e-12)
    rng = seed.child("cohort", round_index).generator()
    # Weighted sampling without replacement: top-m exponential-race keys
    # (with uniform weights this reduces to a uniform m-subset).
    keys = np.log(rng.random(ids.shape[0])) / weights
    chosen = np.argpartition(keys, -cfg.report_goal)[-cfg.report_goal :]
    selected = np.sort(ids[chosen])
    next_eligible[selected] = round_index + cfg.timer_rounds
    return selected.tolist()


@dataclass
class ServerState:
    """Mutable training-loop state (Algorithm state plus run knobs)."""

    model: NextTokenBOW
    theta0: np.ndarray
    eta_s: float
    beta: float
    report_goal: int
    delta_tree: TreeState
    clip: ClipState | None
    fixed_clip: float
    restart_schedule: RestartSchedule
    seed: SeedPath
    eta_c: float = 0.1
    batch_size: int = 16
    epochs: int = 1
    secagg: SecAggConfig | None = None
    round: int = 0
    theta: np.ndarray = field(default=None)  # type: ignore[assignment]
    momentum: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.theta0 = as_param_vector(self.theta0, self.model.num_params)
        if self.theta is None:
            self.theta = self.theta0.copy()
        if self.momentum is None:
            self.momentum = np.zeros_like(self.theta0)
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if not self.eta_s > 0:
            raise ValueError("eta_s must be > 0")
        if self.report_goal < 1:
            raise ValueError("report_goal must be >= 1")
        if self.secagg is not None and self.clip is not None:
            raise ValueError("secure aggregation requires a fixed clip norm")
        if self.secagg is not None and self.secagg.cohort_size != self.report_goal:
            raise ValueError("secagg cohort_size must equal report_goal")

    @property
    def active_clip(self) -> float:
        return self.clip.active if self.clip is not None else self.fixed_clip

    @property
    def quantile_estimate(self) -> float:
        return self.clip.estimate if self.clip is not None else self.fixed_clip


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round scalars the harness logs."""

    round: int
    train_loss: float
    cohort_size: int
    active_clip: float
    quantile_estimate: float
    bits_per_update: int = 0
    secagg_residual: float = 0.0
    secagg_clamp_fraction: float = 0.0


def run_round(server: ServerState, cohort_ids: Sequence[int], data: TokenDataset) -> RoundMetrics:
    """Advance one round: local updates, aggregation, tree noise, anchored
    momentum step, clip-estimate update, and scheduled restarts.  The cohort
    is its client ids (Python ints), rows of the population's ``data``."""
    if len(cohort_ids) != server.report_goal:
        raise ValueError("cohort size must equal the report goal")
    t = server.round
    active = server.active_clip
    quantile = server.clip.estimate if server.clip is not None else math.inf

    deltas, indicators, losses = cohort_update(
        server.model,
        server.theta,
        data.contexts[cohort_ids],
        data.labels[cohort_ids],
        server.eta_c,
        active,
        quantile,
        server.batch_size,
        server.epochs,
        server.seed.child("local-order", t).generator(),
    )

    plain_sum = deltas.sum(axis=0)
    bits = 0
    residual = 0.0
    clamp_fraction = 0.0
    if server.secagg is not None:
        cfg = server.secagg
        signs = sign_vector(server.seed.child("rotation", t), cfg.padded_dim)
        encoded = np.empty((len(cohort_ids), cfg.padded_dim), dtype=np.int64)
        clamped = 0
        for i, (client_id, delta) in enumerate(zip(cohort_ids, deltas)):
            encoded[i], clamped_count = encode_client(
                delta, cfg, signs, server.seed.child("rounding", t).child("client", client_id)
            )
            clamped += clamped_count
        total = modular_sum(encoded, cfg.modulus)
        round_sum = decode(total, cfg, signs, len(cohort_ids), server.model.num_params)
        bits = bits_per_update(cfg)
        residual = float(np.linalg.norm(round_sum - plain_sum))
        clamp_fraction = clamped / (len(cohort_ids) * cfg.padded_dim)
    else:
        round_sum = plain_sum

    noised_cumulative = server.delta_tree.add_round(round_sum)
    server.momentum = server.beta * server.momentum + noised_cumulative / server.report_goal
    server.theta = server.theta0 + server.eta_s * server.momentum

    if server.clip is not None:
        server.clip.add_round(float(indicators.sum()))

    train_loss = float(losses.mean())
    if not math.isfinite(train_loss) or not np.isfinite(server.theta).all():
        raise TrainingDiverged(f"non-finite loss or parameters at round {t}")

    server.round = t + 1
    if server.round in server.restart_schedule.rounds:
        new_clip = server.clip.restart() if server.clip is not None else server.fixed_clip
        server.delta_tree.restart(new_clip)

    return RoundMetrics(
        round=t,
        train_loss=train_loss,
        cohort_size=len(cohort_ids),
        active_clip=active,
        quantile_estimate=server.quantile_estimate,
        bits_per_update=bits,
        secagg_residual=residual,
        secagg_clamp_fraction=clamp_fraction,
    )


def observed_limits(
    client_ids: np.ndarray, rounds: np.ndarray, total_rounds: int
) -> tuple[int, int]:
    """Post-hoc participation statistics for the accountant.

    The log is (client_id, round) pair arrays in any order, as in
    participation.csv.  Returns (max participations of any client, minimum
    gap between any client's consecutive participations).  When no client
    participated twice the separation is reported as total_rounds.
    """
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    client_ids = np.asarray(client_ids, dtype=np.int64)
    rounds = np.asarray(rounds, dtype=np.int64)
    if client_ids.ndim != 1 or client_ids.shape != rounds.shape:
        raise ValueError("client_ids and rounds must be 1-d arrays of equal length")
    order = np.lexsort((rounds, client_ids))
    client_ids = client_ids[order]
    repeat = client_ids[1:] == client_ids[:-1]
    min_sep = int(np.diff(rounds[order])[repeat].min(initial=total_rounds))
    max_part = int(np.unique(client_ids, return_counts=True)[1].max(initial=0))
    return max_part, min_sep
