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
privacy accountant consumes post hoc.  Every knob is read from the run's
ExperimentConfig; RunState holds what a round changes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from fpsim.clipping import ClipState
from fpsim.data import TokenDataset
from fpsim.models import NextTokenBOW
from fpsim.secagg import bits_per_update, decode, encode_client, modular_sum
from fpsim.seeds import SeedPath, sign_vector
from fpsim.tree import TreeState
from fpsim.vectors import as_param_vector

if TYPE_CHECKING:
    from fpsim.config import ExperimentConfig, PrivacyTerms

__all__ = [
    "RunState",
    "RoundMetrics",
    "CohortExhausted",
    "TrainingDiverged",
    "availability_weights",
    "cohort_update",
    "select_cohort",
    "run_round",
    "observed_limits",
]


class CohortExhausted(RuntimeError):
    """Fewer eligible clients than the report goal requires."""


class TrainingDiverged(RuntimeError):
    """Training loss or parameters became non-finite."""


def availability_weights(
    config: ExperimentConfig, client_ids: np.ndarray, round_index: int
) -> np.ndarray:
    """Selection weights of ``client_ids`` at a round: uniform, or a
    sinusoidal day/night cycle (``availability.kind = diurnal``) where each
    client's phase is a fixed hash of its id."""
    if config.availability_kind == "uniform":
        return np.ones(client_ids.shape[0], dtype=np.float64)
    # Golden-ratio hash spreads phases evenly and is independent of any
    # run seed: availability is a property of the world, not the run.
    phases = (client_ids.astype(np.uint64) * np.uint64(2654435761) % np.uint64(2**32)) / 2.0**32
    cycle = 2.0 * math.pi * (round_index / config.availability_period + phases)
    return 1.0 + config.availability_amplitude * np.sin(cycle)


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
    config: ExperimentConfig,
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
    goal = config.report_goal
    ids = np.flatnonzero(next_eligible <= round_index)
    if ids.shape[0] < goal:
        raise CohortExhausted(
            f"population exhausted at round {round_index}: {ids.shape[0]} eligible "
            f"clients for report_goal {goal}; lower timer_rounds or raise population"
        )
    weights = np.maximum(availability_weights(config, ids, round_index), 1e-12)
    rng = seed.child("cohort", round_index).generator()
    # Weighted sampling without replacement: top-m exponential-race keys
    # (with uniform weights this reduces to a uniform m-subset).
    keys = np.log(rng.random(ids.shape[0])) / weights
    chosen = np.argpartition(keys, -goal)[-goal:]
    selected = np.sort(ids[chosen])
    next_eligible[selected] = round_index + config.timer_rounds
    return selected.tolist()


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


@dataclass
class RunState:
    """One run in progress: its config, data and model, and the training
    state that run_round advances.

    The knobs (learning rates, momentum, batch shape, report goal, fixed
    clip norm) are read from ``config``; ``terms`` are its privacy terms
    (the SecAgg encoding and the restart rounds among them).  ``seed`` is
    the round loop's seed path.  ``log`` row t holds round t's cohort (the
    participation log) and ``history`` one (eval accuracy, RoundMetrics)
    pair per round, both filled by the caller's loop.
    """

    config: ExperimentConfig
    terms: PrivacyTerms
    model: NextTokenBOW
    data: TokenDataset
    eval_set: TokenDataset
    seed: SeedPath
    theta0: np.ndarray
    delta_tree: TreeState
    clip: ClipState | None
    theta: np.ndarray = field(init=False)
    momentum: np.ndarray = field(init=False)
    next_eligible: np.ndarray = field(init=False)
    round: int = field(init=False, default=0)
    log: np.ndarray = field(init=False, repr=False)
    history: list[tuple[float, RoundMetrics]] = field(
        init=False, repr=False, default_factory=list
    )

    def __post_init__(self) -> None:
        self.theta0 = as_param_vector(self.theta0, self.model.num_params)
        self.theta = self.theta0.copy()
        self.momentum = np.zeros_like(self.theta0)
        self.next_eligible = np.zeros(self.config.population, dtype=np.int64)
        self.log = np.empty((self.config.rounds, self.config.report_goal), dtype=np.int64)
        secagg = self.terms.secagg
        if secagg is not None and self.clip is not None:
            raise ValueError("secure aggregation requires a fixed clip norm")
        if secagg is not None and secagg.cohort_size != self.config.report_goal:
            raise ValueError("secagg cohort_size must equal report_goal")

    @property
    def active_clip(self) -> float:
        return self.clip.active if self.clip is not None else self.config.clip_c0

    @property
    def quantile_estimate(self) -> float:
        return self.clip.estimate if self.clip is not None else self.config.clip_c0


def run_round(state: RunState, cohort_ids: Sequence[int]) -> RoundMetrics:
    """Advance one round: local updates, aggregation, tree noise, anchored
    momentum step, clip-estimate update, and scheduled restarts.  The cohort
    is its client ids (Python ints), rows of ``state.data``."""
    config = state.config
    if len(cohort_ids) != config.report_goal:
        raise ValueError("cohort size must equal the report goal")
    t = state.round
    active = state.active_clip
    quantile = state.clip.estimate if state.clip is not None else math.inf

    deltas, indicators, losses = cohort_update(
        state.model,
        state.theta,
        state.data.contexts[cohort_ids],
        state.data.labels[cohort_ids],
        config.eta_c,
        active,
        quantile,
        config.batch_size,
        config.epochs,
        state.seed.child("local-order", t).generator(),
    )

    plain_sum = deltas.sum(axis=0)
    bits = 0
    residual = 0.0
    clamp_fraction = 0.0
    cfg = state.terms.secagg
    if cfg is not None:
        signs = sign_vector(state.seed.child("rotation", t), cfg.padded_dim)
        encoded = np.empty((len(cohort_ids), cfg.padded_dim), dtype=np.int64)
        clamped = 0
        for i, (client_id, delta) in enumerate(zip(cohort_ids, deltas)):
            encoded[i], clamped_count = encode_client(
                delta, cfg, signs, state.seed.child("rounding", t).child("client", client_id)
            )
            clamped += clamped_count
        total = modular_sum(encoded, cfg.modulus)
        round_sum = decode(total, cfg, signs, len(cohort_ids), state.model.num_params)
        bits = bits_per_update(cfg)
        residual = float(np.linalg.norm(round_sum - plain_sum))
        clamp_fraction = clamped / (len(cohort_ids) * cfg.padded_dim)
    else:
        round_sum = plain_sum

    noised_cumulative = state.delta_tree.add_round(round_sum)
    state.momentum = config.beta * state.momentum + noised_cumulative / config.report_goal
    state.theta = state.theta0 + config.eta_s * state.momentum

    if state.clip is not None:
        state.clip.add_round(float(indicators.sum()))

    train_loss = float(losses.mean())
    if not math.isfinite(train_loss) or not np.isfinite(state.theta).all():
        raise TrainingDiverged(f"non-finite loss or parameters at round {t}")

    state.round = t + 1
    _, _, _, restart_rounds = state.terms.timer_schema
    if state.round in restart_rounds:
        new_clip = state.clip.restart() if state.clip is not None else config.clip_c0
        state.delta_tree.restart(new_clip)

    return RoundMetrics(
        round=t,
        train_loss=train_loss,
        cohort_size=len(cohort_ids),
        active_clip=active,
        quantile_estimate=state.quantile_estimate,
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
