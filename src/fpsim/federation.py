"""The federated training round loop.

Each round the server selects a cohort of exactly ``report_goal`` clients
among those whose re-participation timer has expired, and run_round plays
DP-FTRL's stages over the RunState.  _aggregate runs the cohort's local SGD
in blocks of clients and sums each block's clipped updates as they are
made (plainly, and under secure aggregation also into the round's
SecAggRound).  _release feeds the round's un-normalized sum to the update
tree and its count of norms below the clip estimate to the ClipState's
count tree, and applies the anchored momentum update

    momentum <- beta * momentum + (noised cumulative sum) / report_goal
    theta    <- theta0 + eta_s * momentum

which keeps the model a deterministic function of the released cumulative
sums (theta0 is the fixed anchor; restarts do not move it).  On a restart
round both trees restart, in every clip mode, and the update tree takes the
clip estimate: a fixed clip is the estimate at learning rate 0, c0 for good.
Timers make participation limits structural: a timer of w rounds enforces
a minimum separation of w between any client's participations, which is
what the privacy accountant consumes post hoc.  RunState derives a run's
model, seeds and noise trees from its ExperimentConfig and holds what a
round changes.

A block holds _BLOCK_BYTES (1 MB) of deltas, whatever the report goal, so
a round's memory is a few blocks and the model, not the cohort times the
model; its outputs are byte-identical to those of one whole-cohort block.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from fpsim.clipping import ClipState
from fpsim.config import ExperimentConfig, PrivacyTerms
from fpsim.data import TokenDataset
from fpsim.models import NextTokenBOW
from fpsim.secagg import SecAggRound
from fpsim.seeds import SeedPath
from fpsim.tree import TreeState

__all__ = [
    "RunState",
    "RoundMetrics",
    "CohortExhausted",
    "TrainingDiverged",
    "availability_weights",
    "batch_orders",
    "cohort_update",
    "select_cohort",
    "check_exhaustion",
    "run_round",
]


# Bytes of float64 deltas that run_round trains, sums and encodes at once:
# half a core's L2, so a block's stacked step stays in cache, and a round's
# memory no longer grows with the report goal.
_BLOCK_BYTES = 1 << 20


class CohortExhausted(RuntimeError):
    """Fewer eligible clients than the report goal requires."""

    def __init__(self, round_index: int, eligible: int, goal: int) -> None:
        super().__init__(
            f"population exhausted at round {round_index}: {eligible} eligible "
            f"clients for report_goal {goal}; lower timer_rounds or raise population"
        )


class TrainingDiverged(RuntimeError):
    """Training loss or parameters became non-finite."""


def availability_weights(
    config: ExperimentConfig, client_ids: np.ndarray, round_index: int
) -> np.ndarray:
    """Diurnal selection weights of ``client_ids`` at a round
    (``availability.kind = diurnal``): a sinusoidal day/night cycle where
    each client's phase is a fixed hash of its id."""
    # Golden-ratio hash spreads phases evenly and is independent of any
    # run seed: availability is a property of the world, not the run.
    phases = (client_ids.astype(np.uint64) * np.uint64(2654435761) % np.uint64(2**32)) / 2.0**32
    cycle = 2.0 * math.pi * (round_index / config.availability_period + phases)
    return 1.0 + config.availability_amplitude * np.sin(cycle)


def batch_orders(rng: np.random.Generator, cohort: int, n: int, epochs: int) -> np.ndarray:
    """The cohort's local batch orders, (epochs, cohort, n): every epoch
    shuffles each client's order of its n examples from ``rng``, one row
    of ``rng.permuted`` per client, starting from the last epoch's order."""
    orders = np.empty((epochs, cohort, n), dtype=np.intp)
    previous = np.arange(n)
    for current in orders:
        current[...] = previous
        rng.permuted(current, axis=1, out=current)
        previous = current
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
    a block of a cohort takes its rows of the cohort's orders.  The
    arguments are the run's: its validated config's eta_c and batch size,
    its clip norm, and a finite ``params``, which run_round checks at the
    end of each round.
    """
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
    goal = config.report_goal
    ids = np.flatnonzero(next_eligible <= round_index)
    if ids.shape[0] < goal:
        raise CohortExhausted(round_index, ids.shape[0], goal)
    rng = seed.child("cohort", round_index).generator()
    # Top-m exponential-race keys: weighted sampling without replacement, or
    # under uniform availability the logs alone (a uniform m-subset).
    keys = np.log(rng.random(ids.shape[0]))
    if config.availability_kind == "diurnal":
        keys /= np.maximum(availability_weights(config, ids, round_index), 1e-12)
    chosen = np.argpartition(keys, -goal)[-goal:]
    selected = np.sort(ids[chosen])
    next_eligible[selected] = round_index + config.timer_rounds
    return selected.tolist()


def check_exhaustion(config: ExperimentConfig) -> None:
    """Raise, before a run of ``config``, the CohortExhausted its selection
    would raise.  Round t's pool lacks the last min(t, timer_rounds - 1)
    cohorts, whoever they were; availability only weights the draw."""
    goal = config.report_goal
    spare = (config.population - goal) // goal
    if min(config.rounds, config.timer_rounds) - 1 > spare:
        raise CohortExhausted(spare + 1, config.population - (spare + 1) * goal, goal)


@dataclass(frozen=True)
class RoundMetrics:
    """What one round measures.  The harness adds the round index, the
    cohort size (report_goal) and the run's SecAgg bits per update."""

    train_loss: float
    active_clip: float
    quantile_estimate: float
    secagg_residual: float = 0.0
    secagg_clamp_fraction: float = 0.0


@dataclass
class RunState:
    """One run in progress.  ``data``, ``eval_set`` and the anchor ``theta0``
    (finite float64 of the model's width; start_run checks a warm start) are
    given; the model, the privacy ``terms``, the round loop's ``seed``, the
    update tree, the ClipState and the set of restart rounds are derived
    from ``config`` here; a round changes only theta, momentum, the round,
    the trees and the ClipState."""

    config: ExperimentConfig
    data: TokenDataset
    eval_set: TokenDataset
    theta0: np.ndarray
    terms: PrivacyTerms = field(init=False)
    model: NextTokenBOW = field(init=False)
    seed: SeedPath = field(init=False)
    delta_tree: TreeState = field(init=False)
    clip: ClipState = field(init=False)
    restarts: frozenset[int] = field(init=False)
    theta: np.ndarray = field(init=False)
    momentum: np.ndarray = field(init=False)
    round: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        config = self.config
        self.terms = terms = config.privacy_terms()
        root = SeedPath(config.seed)
        self.model = NextTokenBOW(vocab_size=config.vocab_size, window=config.window)
        self.seed = root.child("federation")
        d = self.model.num_params
        self.delta_tree = TreeState(terms.z_delta, config.clip_c0, d, root.child("delta-tree"))
        # A fixed clip is the estimate at rate 0 (and sigma_b 0): c0 for good.
        self.clip = ClipState(
            initial_estimate=config.clip_c0,
            target_quantile=config.clip_gamma,
            learning_rate=config.clip_eta_gamma if config.clip_mode == "adaptive" else 0.0,
            sigma_b=terms.sigma_b,
            cohort_size=config.report_goal,
            seed=root.child("clip"),
        )
        self.restarts = frozenset(terms.timer_schema.restart_rounds)
        self.theta = self.theta0.copy()
        self.momentum = np.zeros_like(self.theta0)

    @property
    def active_clip(self) -> float:
        """The clip norm applied to updates: the one the tree's noise is
        calibrated to, replaced only at restarts."""
        return self.delta_tree.clip_norm


def _aggregate(
    state: RunState, cohort_ids: Sequence[int], orders: np.ndarray
) -> tuple[np.ndarray, int, float, float, float]:
    """Train, check and sum the cohort in blocks, in its batch ``orders``
    (see batch_orders): returns the round's sum (SecAgg's decode under
    SecAgg), how many delta norms were at most the clip estimate, the mean
    client loss, and SecAgg's roundtrip residual and clamp fraction (0
    without SecAgg).

    A block holds _BLOCK_BYTES of deltas.  The outputs equal one
    whole-cohort block's, to the byte: the batch orders are drawn for the
    whole cohort before any block, each client's row is computed alone, the
    plain sum adds the rows in cohort order, and the SecAgg total is an
    exact sum of residues mod M.  A client whose delta norm is not finite
    stops the run with TrainingDiverged, naming the round, before its block
    is summed: clipping would scale an overflowed delta to zero, and while
    every norm is finite so is every entry and every sum of them.
    """
    config, t = state.config, state.round
    cohort = len(cohort_ids)
    block = max(1, _BLOCK_BYTES // (8 * state.model.num_params))
    below = 0
    losses = np.empty(cohort)
    plain_sum = np.zeros(state.model.num_params)
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
            state.active_clip,
            config.batch_size,
        )
        if not np.isfinite(norms).all():
            raise TrainingDiverged(f"non-finite client updates at round {t}")
        below += int(np.count_nonzero(norms <= state.clip.estimate))
        # Each block is summed and encoded as soon as it exists, so no array
        # of the whole cohort's deltas is ever built, and the SecAgg round
        # adds its clients' codes straight into its total.  Rows are indexed,
        # as a loop variable's view would keep the block past the del below.
        for i in range(hi - lo):
            plain_sum += deltas[i]
        if secagg is not None:
            secagg.add(deltas, ids)
        del deltas  # freed before the next block is trained

    train_loss = float(losses.mean())
    if secagg is None:
        return plain_sum, below, train_loss, 0.0, 0.0
    round_sum = secagg.decode()
    plain_sum -= round_sum
    residual = math.sqrt(np.einsum("i,i->", plain_sum, plain_sum))
    return round_sum, below, train_loss, residual, secagg.clamped / (cohort * cfg.padded_dim)


def _release(state: RunState, round_sum: np.ndarray, below: int) -> None:
    """Feed the round's sum and its below-estimate count to their noise
    trees, and take the anchored momentum step from the released sum."""
    config = state.config
    noised_cumulative = state.delta_tree.add_round(round_sum)
    state.clip.add_round(float(below))
    state.momentum = config.beta * state.momentum + noised_cumulative / config.report_goal
    state.theta = state.theta0 + config.eta_s * state.momentum


def run_round(state: RunState, cohort_ids: Sequence[int]) -> RoundMetrics:
    """Advance one round: draw the cohort's batch orders, aggregate its
    clipped local updates (_aggregate), release them through the noise trees
    and take the server step (_release), then restart both trees on a
    restart round.  The cohort is its client ids (Python ints), rows of
    ``state.data``.  A non-finite loss or θ stops the run with
    TrainingDiverged, naming the round."""
    t, active = state.round, state.active_clip
    rng = state.seed.child("local-order", t).generator()
    orders = batch_orders(rng, len(cohort_ids), state.data.labels.shape[1], state.config.epochs)
    round_sum, below, train_loss, residual, clamp_fraction = _aggregate(state, cohort_ids, orders)
    _release(state, round_sum, below)
    if not math.isfinite(train_loss) or not np.isfinite(state.theta).all():
        raise TrainingDiverged(f"non-finite loss or parameters at round {t}")
    state.round = t + 1
    if state.round in state.restarts:
        state.delta_tree.restart(state.clip.restart())
    return RoundMetrics(train_loss, active, state.clip.estimate, residual, clamp_fraction)
