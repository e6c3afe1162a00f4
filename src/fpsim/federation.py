"""The federated training round loop.

Each round the server selects a cohort of exactly ``report_goal`` clients
among those whose re-participation timer has expired, runs the cohort's
local SGD in blocks of clients, one stacked step per block and minibatch,
aggregates each block's clipped updates as they are made (plainly, and
under secure aggregation also into the round's SecAggRound, one running
modular total), feeds the round's un-normalized sum to the noise tree, and
applies the anchored momentum update

    momentum <- beta * momentum + (noised cumulative sum) / report_goal
    theta    <- theta0 + eta_s * momentum

which keeps the model a deterministic function of the released cumulative
sums (theta0 is the fixed anchor; restarts do not move it).  Timers make
participation limits structural: a timer of w rounds enforces a minimum
separation of w between any client's participations, which is what the
privacy accountant consumes post hoc.  RunState derives a run's model,
seeds and noise trees from its ExperimentConfig and holds what a round changes.

A block holds _BLOCK_BYTES (1 MB) of deltas, whatever the report goal, so
a round's memory is a few blocks and the model, not the cohort times the
model; its outputs are byte-identical to those of one whole-cohort block.
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
from fpsim.secagg import SecAggRound
from fpsim.seeds import SeedPath
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
    "batch_orders",
    "cohort_update",
    "select_cohort",
    "run_round",
    "observed_limits",
]


# Bytes of float64 deltas that run_round trains, sums and encodes at once:
# half a core's L2, so a block's stacked step stays in cache, and a round's
# memory no longer grows with the report goal.
_BLOCK_BYTES = 1 << 20


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


def batch_orders(
    rng: np.random.Generator | None, cohort: int, n: int, epochs: int
) -> np.ndarray:
    """The cohort's local batch orders, (epochs, cohort, n): every epoch
    shuffles each client's order of its n examples from ``rng``, one row
    of ``rng.permuted`` per client, starting from the last epoch's order;
    None gives sequential order."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    orders = np.empty((epochs, cohort, n), dtype=np.intp)
    orders[0] = np.arange(n)
    for epoch in range(epochs):
        current = orders[epoch]
        if epoch:
            current[...] = orders[epoch - 1]
        if rng is not None:
            rng.permuted(current, axis=1, out=current)
    return orders


def cohort_update(
    model: NextTokenBOW,
    params: np.ndarray,
    contexts: np.ndarray,
    labels: np.ndarray,
    orders: np.ndarray,
    eta_c: float,
    clip_active: float,
    batch_size: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local SGD of a block of clients from the current model
    (NextTokenBOW.local_sgd, one row per client); returns the (rows, d)
    deltas clipped to clip_active, each delta's *unclipped* norm (what the
    clip estimate's indicators compare), and each client's mean minibatch
    loss.

    Client c's data is ``contexts[c]`` (n, window) and ``labels[c]`` (n,);
    ``orders[e, c]`` is its batch order in epoch e (see batch_orders), so
    a block of a cohort takes its rows of the cohort's orders.
    """
    if not eta_c > 0:
        raise ValueError("eta_c must be > 0")
    if not clip_active > 0:
        raise ValueError("clip_active must be > 0")
    params = as_param_vector(params, model.num_params)
    stack = np.empty((labels.shape[0], params.shape[0]))
    stack[...] = params
    losses = model.local_sgd(stack, contexts, labels, orders, eta_c, batch_size)
    stack -= params
    norms = np.sqrt(np.einsum("ij,ij->i", stack, stack))
    if math.isfinite(clip_active):
        stack *= (clip_active / np.maximum(norms, clip_active))[:, None]
    return stack, norms, losses


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
    """One run in progress.  ``data``, ``eval_set`` and the anchor ``theta0``
    are given; the model, the privacy ``terms``, the round loop's ``seed``,
    the update tree and, under adaptive clipping, the ClipState are derived
    from ``config`` here.  ``log`` row t holds round t's cohort (the
    participation log) and ``history`` one (eval accuracy, RoundMetrics)
    pair per round, both filled by the caller's loop."""

    config: ExperimentConfig
    data: TokenDataset
    eval_set: TokenDataset
    theta0: np.ndarray
    terms: PrivacyTerms = field(init=False)
    model: NextTokenBOW = field(init=False)
    seed: SeedPath = field(init=False)
    delta_tree: TreeState = field(init=False)
    clip: ClipState | None = field(init=False)
    theta: np.ndarray = field(init=False)
    momentum: np.ndarray = field(init=False)
    next_eligible: np.ndarray = field(init=False)
    round: int = field(init=False, default=0)
    log: np.ndarray = field(init=False, repr=False)
    history: list[tuple[float, RoundMetrics]] = field(
        init=False, repr=False, default_factory=list
    )

    def __post_init__(self) -> None:
        config = self.config
        self.terms = terms = config.privacy_terms()
        root = SeedPath(config.seed)
        self.model = NextTokenBOW(vocab_size=config.vocab_size, window=config.window)
        self.seed = root.child("federation")
        d = self.model.num_params
        self.delta_tree = TreeState(terms.z_delta, config.clip_c0, d, root.child("delta-tree"))
        self.clip = None
        if config.clip_mode == "adaptive":
            self.clip = ClipState(
                initial_estimate=config.clip_c0,
                target_quantile=config.clip_gamma,
                learning_rate=config.clip_eta_gamma,
                sigma_b=terms.sigma_b,
                cohort_size=config.report_goal,
                seed=root.child("clip"),
            )
        self.theta0 = as_param_vector(self.theta0, d)
        self.theta = self.theta0.copy()
        self.momentum = np.zeros_like(self.theta0)
        self.next_eligible = np.zeros(config.population, dtype=np.int64)
        self.log = np.empty((config.rounds, config.report_goal), dtype=np.int64)

    @property
    def active_clip(self) -> float:
        """The clip norm applied to updates: the one the tree's noise is
        calibrated to, replaced only at restarts."""
        return self.delta_tree.clip_norm

    @property
    def quantile_estimate(self) -> float:
        return self.clip.estimate if self.clip is not None else self.config.clip_c0


def run_round(state: RunState, cohort_ids: Sequence[int]) -> RoundMetrics:
    """Advance one round: local updates, aggregation, tree noise, anchored
    momentum step, clip-estimate update, and scheduled restarts.  The cohort
    is its client ids (Python ints), rows of ``state.data``.

    The cohort is trained, summed and (under SecAgg) encoded in blocks of
    _BLOCK_BYTES of deltas.  The outputs equal one whole-cohort block's, to
    the byte: the batch orders are drawn for the whole cohort before any
    block, each client's row is computed alone, the plain sum adds the rows
    in cohort order as numpy's axis-0 sum does, and the SecAgg total is an
    exact sum of residues mod M.  A client whose delta norm is not finite
    stops the run with TrainingDiverged, naming the round, before its block
    is summed: clipping would scale an overflowed delta to zero, and while
    every norm is finite so is every entry and every sum of them.
    """
    config = state.config
    if len(cohort_ids) != config.report_goal:
        raise ValueError("cohort size must equal the report goal")
    t = state.round
    active = state.active_clip
    quantile = state.clip.estimate if state.clip is not None else math.inf
    cohort = len(cohort_ids)
    d = state.model.num_params
    block = max(1, _BLOCK_BYTES // (8 * d))
    orders = batch_orders(
        state.seed.child("local-order", t).generator(),
        cohort,
        state.data.labels.shape[1],
        config.epochs,
    )
    indicators = np.empty(cohort, dtype=np.int64)
    losses = np.empty(cohort)
    plain_sum = None
    cfg = state.terms.secagg
    secagg = None if cfg is None else SecAggRound(cfg, state.seed, t)
    for lo in range(0, cohort, block):
        ids = cohort_ids[lo : lo + block]
        hi = lo + len(ids)
        deltas, norms, losses[lo:hi] = cohort_update(
            state.model,
            state.theta,
            state.data.contexts[ids],
            state.data.labels[ids],
            orders[:, lo:hi],
            config.eta_c,
            active,
            config.batch_size,
        )
        if not np.isfinite(norms).all():
            raise TrainingDiverged(f"non-finite client updates at round {t}")
        indicators[lo:hi] = norms <= quantile
        # Each block is summed and encoded as soon as it exists, so no array
        # of the whole cohort's deltas is ever built, and the SecAgg round
        # adds its clients' codes straight into its total.  The rows are
        # added in cohort order: numpy's axis-0 sum of the first block is
        # its rows added one by one into a copy of its first row.
        if plain_sum is None:
            plain_sum = deltas.sum(axis=0)
        else:
            for i in range(hi - lo):
                plain_sum += deltas[i]
        if secagg is not None:
            secagg.add(deltas, ids)
        del deltas  # freed before the next block is trained

    bits = 0
    residual = 0.0
    clamp_fraction = 0.0
    if secagg is not None:
        round_sum = secagg.decode()
        bits = cfg.bits_per_update
        residual = float(np.linalg.norm(round_sum - plain_sum))
        clamp_fraction = secagg.clamped / (cohort * cfg.padded_dim)
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
    if state.round in state.terms.timer_schema.restart_rounds:
        new_clip = state.clip.restart() if state.clip is not None else config.clip_c0
        state.delta_tree.restart(new_clip)

    return RoundMetrics(
        round=t,
        train_loss=train_loss,
        cohort_size=cohort,
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
