"""Reference implementations the tests compare the shipped code against.

They are kept simple rather than fast, and are not part of the package.
"""

import math
from types import SimpleNamespace

import numpy as np

from fpsim.accounting import ParticipationSchema, _StepRows, loose_eps
from fpsim.harness import cohorts
from fpsim.secagg import ROUNDING_NORM_ALPHA, SecAggConfig
from fpsim.seeds import SeedPath, gaussian_vector
from fpsim.tree import _node_seed
from fpsim._kernels import stochastic_round


# The dense tables and fold states below mark an infeasible entry with this
# value; a sum with it stays negative while every feasible value is below
# 2^30, and every negative entry is infeasible.
INFEASIBLE = -(1 << 30)


def clip_l2(v: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``v`` by min(1, clip_norm / ||v||_2).

    Direction is preserved and the output norm never exceeds clip_norm.
    clip_norm = inf disables clipping.  Idempotent.  ||v||_2 is summed by
    the one einsum that cohort_update and SecAggRound.add use, so the
    clipped bytes match theirs.
    """
    if not clip_norm > 0:
        raise ValueError("clip_norm must be > 0")
    v = np.asarray(v, dtype=np.float64)
    norm = math.sqrt(np.einsum("i,i->", v, v))
    if norm <= clip_norm:
        return v.copy()
    return v * (clip_norm / norm)


def randomized_hadamard(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The normalized Hadamard rotation (1/sqrt(d)) * H_d * diag(signs) v
    of a float64 copy of ``v``: the sign flip, reference_fwht and the
    scale."""
    out = np.asarray(v, dtype=np.float64) * signs
    reference_fwht(out)
    out *= 1.0 / np.sqrt(out.shape[0])
    return out


def accuracy(model, params: np.ndarray, contexts: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``model.predict`` on (n, window) contexts, scored
    example by example."""
    return float((model.predict(params, contexts) == np.asarray(labels)).mean())


def reference_restart_rounds(config) -> tuple[int, ...]:
    """The restart rounds of an ExperimentConfig by its restart.mode:
    periodic from restart.first every restart.period rounds, the explicit
    restart.rounds inside the run, or none."""
    if config.restart_mode == "none":
        return ()
    if config.restart_mode == "explicit":
        return tuple(int(r) for r in config.restart_rounds if r < config.rounds)
    rounds, restart = [], config.restart_first
    while restart < config.rounds:
        rounds.append(restart)
        restart += config.restart_period
    return tuple(rounds)


def reference_sgd_step(
    vocab: int, window: int, stack: np.ndarray, contexts: np.ndarray, labels: np.ndarray, lr: float
) -> np.ndarray:
    """One minibatch step of NextTokenBOW.local_sgd in its plain
    formulation, in place on ``stack``: every window token's (rows, batch,
    window, V) flat column index built whole, the gathered columns'
    ``mean(axis=2)``, an out-of-place softmax, the labels' probabilities read and written with
    ``take_along_axis``/``put_along_axis``, and the loss as ``.mean(axis=1)``.
    Returns each row's mean cross-entropy before the step."""
    row_offsets = np.arange(stack.shape[0]) * (vocab * vocab)
    columns = row_offsets[:, None, None, None] + np.arange(vocab) * vocab + contexts[..., None]
    flat = stack.reshape(-1)
    logits = flat[columns].mean(axis=2)
    probs = logits - logits.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(probs, labels[..., None], axis=2)
    losses = -np.log(np.maximum(picked[..., 0], 1e-300)).mean(axis=1)
    np.put_along_axis(probs, labels[..., None], picked - 1.0, axis=2)
    probs *= -lr / (labels.shape[1] * window)
    scatter = np.broadcast_to(probs[:, :, None, :], columns.shape)
    np.add.at(flat, columns.ravel(), scatter.ravel())
    return losses


def reference_logits(vocab: int, stack: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """NextTokenBOW.logits as the ``mean(axis=2)`` of every window token's
    gathered weight column."""
    row_offsets = np.arange(stack.shape[0]) * (vocab * vocab)
    columns = row_offsets[:, None, None, None] + np.arange(vocab) * vocab + contexts[..., None]
    return stack.reshape(-1)[columns].mean(axis=2)


def reference_local_sgd(
    vocab: int,
    window: int,
    stack: np.ndarray,
    contexts: np.ndarray,
    labels: np.ndarray,
    orders: np.ndarray,
    lr: float,
    batch_size: int,
) -> np.ndarray:
    """NextTokenBOW.local_sgd in place on ``stack``, as one
    reference_sgd_step per minibatch on that minibatch's own fancy-index
    gather of contexts and labels.  Returns each row's mean loss."""
    rows, n = labels.shape
    row_index = np.arange(rows)[:, None]
    losses = np.zeros(rows)
    steps = 0
    for epoch_orders in orders:
        for start in range(0, n, batch_size):
            batch = epoch_orders[:, start : start + batch_size]
            losses += reference_sgd_step(
                vocab, window, stack, contexts[row_index, batch], labels[row_index, batch], lr
            )
            steps += 1
    return losses / steps


def reference_cohort_update(
    vocab: int,
    window: int,
    params: np.ndarray,
    contexts: np.ndarray,
    labels: np.ndarray,
    orders: np.ndarray,
    lr: float,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """federation.cohort_update's local SGD before clipping: the block's
    rows tiled from ``params`` and trained by reference_local_sgd.
    Returns the unclipped (rows, d) deltas and each row's mean loss."""
    stack = np.tile(params, (labels.shape[0], 1))
    losses = reference_local_sgd(vocab, window, stack, contexts, labels, orders, lr, batch_size)
    stack -= params
    return stack, losses


def reference_fwht(x: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard transform, in place: one radix-2
    pass per level, lowest bit first, each pass copying both halves of its
    blocks before writing ``a + b`` and ``a - b`` back."""
    n = x.shape[0]
    h = 1
    while h < n:
        view = x.reshape(-1, 2 * h)
        left = view[:, :h].copy()
        right = view[:, h:].copy()
        view[:, :h] = left + right
        view[:, h:] = left - right
        h *= 2


def rounded_norm_bound_sq(config: SecAggConfig) -> float:
    """The squared L2 bound an accepted rounding must meet, from its
    formula: (s C)^2 + d/4 + sqrt(2 ln(1/alpha)) * (s C + sqrt(d)/2) at the
    padded width d and alpha = ROUNDING_NORM_ALPHA."""
    s_c = config.scale * config.clip_norm
    d = float(config.padded_dim)
    slack = math.sqrt(2.0 * math.log(1.0 / ROUNDING_NORM_ALPHA))
    return s_c**2 + d / 4.0 + slack * (s_c + math.sqrt(d) / 2.0)


def reference_encode(
    delta: np.ndarray, config: SecAggConfig, signs: np.ndarray, seed: SeedPath
) -> tuple[np.ndarray, int, np.ndarray]:
    """The SecAgg client encode as separate steps on fresh arrays: clip_l2
    of the scaled update, zero padding, the sign flip and reference_fwht,
    np.clip, then conditional stochastic rounding and the shift.

    Returns the row's int64 codes and clamp count, as encode_block writes
    and returns them, and the clamped float row that was rounded.  Rounding hides a last-bit difference in that row, so only the
    row shows a change in the transform's float arithmetic.
    """
    padded = np.zeros(config.padded_dim)
    padded[: delta.shape[0]] = clip_l2(delta * config.scale, config.scale * config.clip_norm)
    rotated = padded * signs
    reference_fwht(rotated)
    rotated *= 1.0 / np.sqrt(config.padded_dim)
    bound = float(config.infinity_bound)
    clamped_count = int(np.count_nonzero(np.abs(rotated) > bound))
    clamped = np.clip(rotated, -bound, bound)
    for attempt in range(config.retry_cap):
        uniforms = seed.child("round-attempt", attempt).generator().random(config.padded_dim)
        rounded = np.empty(config.padded_dim)
        stochastic_round(clamped, uniforms, rounded)
        if np.einsum("i,i->", rounded, rounded) <= rounded_norm_bound_sq(config):
            return (rounded + bound).astype(np.int64), clamped_count, clamped
    raise AssertionError("rounding retries exhausted")


def reference_chains(
    global_cdf: np.ndarray,
    concentration: float,
    population: int,
    length: int,
    heterogeneity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """data._chains as a searchsorted over the keys in population order
    and a Pólya urn whose state is a bool mask of the local draws: each
    step marks the local rows, then finds their balls as the earlier local
    draws whose preceding token equals this step's context, by two
    gathers, a compare and an ``&``."""
    vocab = global_cdf.shape[0]
    # Row r's CDF shifted by r: one sorted array inverts every row's CDF.
    shifted_cdf = (global_cdf + np.arange(vocab)[:, None]).ravel()
    tokens = np.empty((population, length + 1), dtype=np.int64)
    local = np.zeros((population, length + 1), dtype=bool)
    tokens[:, 0] = rng.integers(vocab, size=population)
    for s in range(1, length + 1):
        prev = tokens[:, s - 1]
        draws = np.searchsorted(shifted_cdf, prev + rng.random(population), side="right")
        np.clip(draws - prev * vocab, 0, vocab - 1, out=tokens[:, s])
        if heterogeneity == 0.0:
            continue
        rows = np.flatnonzero(rng.random(population) < heterogeneity)
        local[rows, s] = True
        # The urn's balls: each client's earlier local draws at this context.
        balls = local[rows, 1:s] & (tokens[rows, : s - 1] == prev[rows, None])
        count = balls.sum(axis=1)
        pick = rng.random(rows.shape[0]) * (vocab * concentration + count)
        fresh = rng.integers(vocab, size=rows.shape[0])
        copy = pick < count
        if copy.any():
            # floor(pick) indexes the copied ball among the row's balls.
            ball = (balls[copy].cumsum(axis=1) > pick[copy, None]).argmax(axis=1)
            fresh[copy] = tokens[rows[copy], 1 + ball]
        tokens[rows, s] = fresh
    return tokens[:, 1:]


def reference_limits(client_ids, rounds, total_rounds):
    """(max_part, min_sep) of (client_id, round) pairs in any order, by
    per-client sort-and-gap: group the pairs by client, sort each client's
    rounds, and take the largest count and the smallest gap (total_rounds
    when no client repeats)."""
    by_client = {}
    for client_id, r in zip(client_ids, rounds):
        by_client.setdefault(client_id, []).append(r)
    max_part = 0
    min_sep = total_rounds
    for history in by_client.values():
        history = sorted(history)
        max_part = max(max_part, len(history))
        for a, b in zip(history, history[1:]):
            min_sep = min(min_sep, b - a)
    return max_part, min_sep


def reference_participation_csv(client_ids: np.ndarray, rounds: np.ndarray) -> str:
    """participation.csv as one string: a ``client_id,round`` header, then
    every (client_id, round) pair sorted by client and then round, one
    joined f-string over the whole log."""
    order = np.lexsort((rounds, client_ids))
    pairs = zip(client_ids[order].tolist(), rounds[order].tolist())
    return "client_id,round\n" + "".join(f"{c},{r}\n" for c, r in pairs)


def reference_zcdp_to_delta(rho: float, eps: float) -> float:
    """accounting.zcdp_to_delta with all 200 golden-section steps run.

    Tightest delta at a given epsilon for rho-zCDP.

        delta(eps) = inf_{alpha > 1} exp((alpha-1)(alpha rho - eps))
                     * (1 - 1/alpha)^alpha / (alpha - 1)

    minimized by golden-section search on the (convex) log of the
    objective.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if math.isinf(rho):
        return 1.0
    if rho == 0:
        return 0.0 if eps > 0 else 1.0

    def log_objective(alpha: float) -> float:
        return (
            (alpha - 1.0) * (alpha * rho - eps)
            + alpha * math.log1p(-1.0 / alpha)
            - math.log(alpha - 1.0)
        )

    lo = 1.0 + 1e-12
    hi = max(2.0, (eps + rho) / rho)
    while log_objective(hi * 2.0) < log_objective(hi) and hi < 1e15:
        hi *= 2.0
    hi *= 2.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = log_objective(c), log_objective(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = log_objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = log_objective(d)
    # A rho too large for any delta below 1 would overflow exp.
    return math.exp(min(fc, fd, 0.0))


def reference_zcdp_to_eps(rho: float, delta: float) -> float:
    """accounting.zcdp_to_eps with all 200 bisection steps run, each
    through reference_zcdp_to_delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    if math.isinf(rho):
        return math.inf
    if rho == 0 or reference_zcdp_to_delta(rho, 0.0) <= delta:
        return 0.0
    lo, hi = 0.0, loose_eps(rho, delta)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reference_zcdp_to_delta(rho, mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


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


def segment_bounds(total_rounds: int, restart_rounds: tuple[int, ...]) -> list[int]:
    """0, the restart rounds that fire, and total_rounds: segment s spans
    rounds [bounds[s], bounds[s + 1])."""
    return [0, *(int(r) for r in restart_rounds if r < total_rounds), total_rounds]


def forest_trees(schema: ParticipationSchema) -> list[tuple[int, int]]:
    """The forest's complete trees as (start_round, end_round) half-open
    spans: each segment is tiled by its length's binary-counter
    decomposition, largest tree first."""
    bounds = segment_bounds(schema.total_rounds, schema.restart_rounds)
    return [
        (start + index * (1 << level), start + (index + 1) * (1 << level))
        for start, end in zip(bounds, bounds[1:])
        for level, index in prefix_decomposition(end - start)
    ]


def forest_nodes(schema: ParticipationSchema) -> list[tuple[int, int]]:
    """All forest nodes as (start_round, end_round) half-open spans."""
    nodes = []
    for start, end in forest_trees(schema):
        width = end - start
        while width:
            nodes.extend((lo, lo + width) for lo in range(start, end, width))
            width //= 2
    return nodes


def pattern_sensitivity_sq(schema: ParticipationSchema, rounds: tuple[int, ...]) -> float:
    """Sum over forest nodes of (participations inside the node's span)^2.

    ``rounds`` is one client's participation pattern; the value is in units
    of the squared clip norm.  Does not check min_sep/max_part.
    """
    pattern = np.asarray(sorted(rounds), dtype=np.int64)
    if pattern.size and not (0 <= pattern[0] and pattern[-1] < schema.total_rounds):
        raise ValueError("participation rounds must lie in [0, total_rounds)")
    if pattern.size != np.unique(pattern).size:
        raise ValueError("participation rounds must be distinct")
    total = 0.0
    for start, end in forest_nodes(schema):
        count = int(np.searchsorted(pattern, end) - np.searchsorted(pattern, start))
        total += count * count
    return total


BRUTE_FORCE_MAX_ROUNDS = 24


def brute_force_sensitivity_sq(
    total_rounds: int,
    min_sep: int,
    max_part: int,
    restart_rounds: tuple[int, ...] = (),
) -> float:
    """Exhaustive worst-case sensitivity; the oracle for the fast solver.

    Enumerates every pattern with gaps >= min_sep and size <= max_part by
    depth-first search, maintaining node counts incrementally.
    """
    if total_rounds > BRUTE_FORCE_MAX_ROUNDS:
        raise ValueError(
            f"brute force is exponential; total_rounds must be <= {BRUTE_FORCE_MAX_ROUNDS}"
        )
    schema = ParticipationSchema(total_rounds, min_sep, max_part, restart_rounds)
    nodes = forest_nodes(schema)
    covering = [
        [i for i, (start, end) in enumerate(nodes) if start <= r < end]
        for r in range(total_rounds)
    ]
    counts = [0] * len(nodes)
    max_part = schema.max_part
    best = 0.0

    def visit(next_round: int, remaining: int, running: float) -> None:
        nonlocal best
        if running > best:
            best = running
        if remaining == 0:
            return
        for r in range(next_round, total_rounds):
            delta = 0
            for v in covering[r]:
                delta += 2 * counts[v] + 1
                counts[v] += 1
            visit(r + min_sep, remaining - 1, running + delta)
            for v in covering[r]:
                counts[v] -= 1

    visit(0, max_part, 0.0)
    return best


class ReferenceTables:
    """The dense table build the solver's step-end tables are checked
    against: F[k][p] as a (min_sep, min_sep) int32 array over the (a, b)
    margin grid, infeasible entries exactly the sentinel.

    The recursion of accounting._SensitivitySolver, one memoised table at a
    time: the p = 1 tables from their closed form, the all-in-one-half max
    on shifted margins, and each split's max-plus product taken over every
    midline margin u < min(min_sep, half size), not only the step ends.
    """

    def __init__(self, min_sep: int) -> None:
        self.min_sep = min_sep
        self._tables: dict[tuple[int, int], np.ndarray] = {}

    def capacity(self, k: int) -> int:
        return 1 + ((1 << k) - 1) // self.min_sep

    def table(self, k: int, p: int) -> np.ndarray:
        key = (k, p)
        if key not in self._tables:
            self._tables[key] = self._build(k, p)
        return self._tables[key]

    def _build(self, k: int, p: int) -> np.ndarray:
        assert 1 <= p <= self.capacity(k)
        margins = np.arange(self.min_sep)
        if p == 1:
            feasible = margins[:, None] + margins[None, :] <= (1 << k) - 1
            return np.where(feasible, k + 1, INFEASIBLE).astype(np.int32)
        half = 1 << (k - 1)
        half_cap = self.capacity(k - 1)
        table = np.full((self.min_sep, self.min_sep), INFEASIBLE, dtype=np.int64)
        if p <= half_cap:
            shifted = np.maximum(margins - half, 0)
            same = self.table(k - 1, p)
            table = np.maximum(table, np.maximum(same[:, shifted], same[shifted, :]))
        u_count = min(self.min_sep, half)
        complement = self.min_sep - 1 - np.arange(u_count)
        for i in range(max(1, p - half_cap), min(p - 1, half_cap) + 1):
            left = self.table(k - 1, i)[:, :u_count].astype(np.int64)
            right = self.table(k - 1, p - i)[complement, :]
            table = np.maximum(table, (left[:, :, None] + right[None, :, :]).max(axis=1))
        return np.where(table < 0, INFEASIBLE, table + p * p).astype(np.int32)


def dense_step_rows(rows: _StepRows, width: int) -> np.ndarray:
    """Every row of a step-row store as a dense (rows, width) int32 array,
    entry by entry: each value fills the columns after the previous end
    through its own end, and the sentinel fills the columns after the last."""
    dense = np.full((rows.offsets.size - 1, width), INFEASIBLE, dtype=np.int32)
    for r in range(dense.shape[0]):
        start = 0
        for j in range(rows.offsets[r], rows.offsets[r + 1]):
            dense[r, start : rows.ends[j] + 1] = rows.values[j]
            start = rows.ends[j] + 1
    return dense


def dense_fold(
    tables: ReferenceTables, state: np.ndarray, k: int, end: int, max_part: int
) -> np.ndarray:
    """The fold of accounting._SensitivitySolver on dense states: one tree
    of 2^k leaves, ending at round ``end``, onto ``state``.

    ``state[p, b]`` is the best total with exactly p placements and right
    margin >= b, over b < length = min(min_sep, total_rounds + 1), with the
    sentinel where infeasible; a margin past length - 1 reads column
    length - 1.  The state of no trees is zeros((1, length)).  The new
    state has a row for each p up to the most participations rounds
    [0, end) can hold, capped at ``max_part``: each p either skips the tree
    (the earlier right margin grows by 2^k) or puts q >= 1 placements in
    it after u empty leaves, max over u of F[k][q][b, u] + state[p - q,
    min_sep - 1 - u], every u < min(min_sep, 2^k) tried.
    """
    size = 1 << k
    count, length = state.shape
    min_sep = tables.min_sep
    cap = min(max_part, 1 + (end - 1) // min_sep)
    u = np.arange(min(min_sep, size))
    rest = state[:, np.minimum(min_sep - 1 - u, length - 1)].astype(np.int64)
    inside = np.full((cap + 1, min_sep), INFEASIBLE, dtype=np.int64)
    for q in range(1, min(tables.capacity(k), cap) + 1):
        table = tables.table(k, q)[:, : u.size].astype(np.int64)
        for r in range(min(count, cap - q + 1)):
            best = (table + rest[r]).max(axis=1)
            inside[q + r] = np.maximum(inside[q + r], best)
    margins = np.arange(length)
    new = inside[:, :length]
    kept = min(count, cap + 1)
    new[:kept] = np.maximum(new[:kept], state[:kept, np.maximum(margins - size, 0)])
    return np.where(new < 0, INFEASIBLE, new)


def naive_private_sum(
    history: list[np.ndarray],
    z: float,
    clip_norm: float,
    seed: SeedPath,
    restart_rounds: tuple[int, ...] = (),
    clip_norms_per_segment: list[float] | None = None,
) -> np.ndarray:
    """Tree aggregation replayed over a whole run, materializing every node.

    Returns an array of shape (len(history), d) holding the reported
    cumulative total after every round.  Node noises are derived from the
    same seeds as the efficient implementation, so results agree exactly.
    Unlike TreeState, this keeps every node of every segment in memory and
    recomputes each round's report from scratch.
    """
    if len(history) == 0:
        raise ValueError("history must be nonempty")
    total_rounds = len(history)
    bounds = segment_bounds(total_rounds, restart_rounds)
    seg_lengths = [b - a for a, b in zip(bounds, bounds[1:])]
    if clip_norms_per_segment is None:
        clip_norms_per_segment = [float(clip_norm)] * len(seg_lengths)
    if len(clip_norms_per_segment) != len(seg_lengths):
        raise ValueError("need one clip norm per segment")

    d = np.asarray(history[0], dtype=np.float64).shape[0]
    reports = np.zeros((total_rounds, d), dtype=np.float64)
    frozen = np.zeros(d, dtype=np.float64)
    t_global = 0
    for segment, seg_len in enumerate(seg_lengths):
        sigma = 0.0 if z == 0 else float(z) * float(clip_norms_per_segment[segment])
        # Materialize every node this segment will ever use.
        node_noise = {}
        for level in range(seg_len.bit_length()):
            for index in range((seg_len >> level) + 1):
                node_noise[(level, index)] = gaussian_vector(
                    _node_seed(seed, segment, level, index), sigma, d
                )
        true_prefix = np.zeros(d, dtype=np.float64)
        last = np.zeros(d, dtype=np.float64)
        for t_seg in range(seg_len):
            true_prefix = true_prefix + np.asarray(history[t_global], dtype=np.float64)
            last = np.zeros(d, dtype=np.float64)
            for level, index in prefix_decomposition(t_seg + 1):
                last += node_noise[(level, index)]
            reports[t_global] = frozen + true_prefix + last
            t_global += 1
        frozen = frozen + true_prefix + last
    return reports


def reference_secagg_encoding(config) -> SimpleNamespace:
    """The SecAgg encoding of an ExperimentConfig from its formulas, with
    the fields reference_encode reads: the padded width (the power of two at
    or above d = V^2), the L-infinity bound ceil(2 s C ln(d) / sqrt(d)) (at
    least 1) at that width, the modulus 2 * bound * report_goal + 1 and the
    bits per update, width * ceil(log2(modulus))."""
    padded_dim = 1 << (config.vocab_size**2 - 1).bit_length()
    s, c = config.secagg_scale, config.clip_c0
    bound = max(1, math.ceil(2.0 * s * c * math.log(padded_dim) / math.sqrt(padded_dim)))
    modulus = 2 * bound * config.report_goal + 1
    return SimpleNamespace(
        clip_norm=c,
        scale=s,
        padded_dim=padded_dim,
        infinity_bound=bound,
        modulus=modulus,
        retry_cap=config.secagg_retry_cap,
        bits_per_update=padded_dim * math.ceil(math.log2(modulus)),
    )


def reference_secagg_sum(updates, client_ids, encoding, seed: SeedPath, t: int) -> np.ndarray:
    """Round t's SecAgg sum of the clipped ``updates``: reference_encode's
    codes of each client, summed mod M, then decoded by dropping the
    clients' shifts, rotating back by reference_fwht and the signs, and
    undoing the scale and the padding.  The round's signs are drawn from
    seed/rotation/t, client c's roundings from seed/rounding/t/client/c."""
    width = encoding.padded_dim
    bits = seed.child("rotation", t).generator().integers(0, 2, size=width, dtype=np.int64)
    signs = 2.0 * bits - 1.0
    total = np.zeros(width, dtype=np.int64)
    for update, client in zip(updates, client_ids):
        client_seed = seed.child("rounding", t).child("client", client)
        codes, _, _ = reference_encode(update, encoding, signs, client_seed)
        total = (total + codes) % encoding.modulus
    out = total.astype(np.float64) - float(len(client_ids) * encoding.infinity_bound)
    reference_fwht(out)
    out *= 1.0 / np.sqrt(width)
    out *= signs
    return out[: updates[0].shape[0]] / encoding.scale


def reference_population(config, seed: SeedPath):
    """A run's clients and eval set as (contexts, labels) pairs, from the
    seeds data.synthesize_clients and data.synthesize_eval_set read: the
    global chain's CDF rows are Dirichlet(concentration) draws from
    seed/global-table, summed along each row; the clients are
    reference_chains of examples_per_client + window tokens from
    seed/client-streams, and the eval stream is its one client at
    heterogeneity 0 from seed/eval-stream.  Example i of a token row has
    the context tokens[i : i + window] and the label tokens[i + window]."""
    vocab, window = config.vocab_size, config.window
    rows = seed.child("global-table").generator().dirichlet(
        np.full(vocab, config.concentration), size=vocab
    )
    cdf = rows.cumsum(axis=1)

    def examples(tokens, n):
        contexts = np.stack([tokens[:, i : i + window] for i in range(n)], axis=1)
        return contexts, tokens[:, window:]

    n, e = config.examples_per_client, config.eval_examples
    clients = reference_chains(
        cdf,
        config.concentration,
        config.population,
        n + window,
        config.heterogeneity,
        seed.child("client-streams").generator(),
    )
    stream = reference_chains(
        cdf, config.concentration, 1, e + window, 0.0, seed.child("eval-stream").generator()
    )
    return examples(clients, n), examples(stream, e)


def reference_run(config) -> tuple[np.ndarray, list[dict[str, float]]]:
    """A whole run of ``config`` as straight-line DP-FTRL, round by round:
    θ after every round, (rounds, V^2), and each round's metrics.csv row
    but the accountant's cumulative_zcdp column.

    The cohorts are harness.cohorts'; θ starts at zero (no warm start).
    The rest is written here from its formula or taken from the oracles
    above: the population by reference_population, the batch orders drawn
    per epoch from federation/local-order/t, reference_cohort_update and
    clip_l2 for the updates, the plain sum or reference_secagg_sum, both
    noise trees replayed whole every round by naive_private_sum over
    reference_restart_rounds, and the momentum step on the released sum
    over report_goal.
    """
    vocab, m = config.vocab_size, config.report_goal
    d = vocab * vocab
    root = SeedPath(config.seed)
    federation = root.child("federation")
    (contexts, labels), (eval_contexts, eval_labels) = reference_population(config, root)
    restarts = reference_restart_rounds(config)
    # The noise split (Andrew et al. 2021): the sum at z_delta and the count
    # at sigma_b release as one sum at z, z^-2 = z_delta^-2 + (2 sigma_b)^-2.
    z = config.noise_multiplier
    adaptive = config.clip_mode == "adaptive"
    sigma_b = m * config.clip_sigma_b_fraction if adaptive and z > 0 else 0.0
    z_delta = (z**-2 - (2.0 * sigma_b) ** -2) ** -0.5 if sigma_b > 0 else z
    # A fixed clip is the quantile estimate at learning rate 0.
    eta = config.clip_eta_gamma if adaptive else 0.0
    encoding = reference_secagg_encoding(config) if config.secagg_enabled else None
    theta0 = np.zeros(d)
    theta, momentum = theta0, np.zeros(d)
    estimate, clips = config.clip_c0, [config.clip_c0]  # one clip a segment
    sums, counts, thetas, rows = [], [], [], []
    for t, ids in enumerate(cohorts(config)):
        rng = federation.child("local-order", t).generator()
        order = np.tile(np.arange(config.examples_per_client), (m, 1))
        orders = []
        for _ in range(config.epochs):
            rng.permuted(order, axis=1, out=order)
            orders.append(order.copy())
        deltas, losses = reference_cohort_update(
            vocab,
            config.window,
            theta,
            contexts[ids],
            labels[ids],
            np.array(orders),
            config.eta_c,
            config.batch_size,
        )
        below = sum(math.sqrt(np.einsum("i,i->", delta, delta)) <= estimate for delta in deltas)
        updates = [clip_l2(delta, clips[-1]) for delta in deltas]
        if encoding is None:
            sums.append(np.sum(updates, axis=0))
        else:
            sums.append(reference_secagg_sum(updates, ids, encoding, federation, t))
        counts.append(np.array([float(below)]))
        delta_tree = root.child("delta-tree")
        released = naive_private_sum(sums, z_delta, clips[0], delta_tree, restarts, clips)[-1]
        count_tree = root.child("clip").child("clip-count")
        count = naive_private_sum(counts, sigma_b, 1.0, count_tree, restarts)[-1, 0]
        # The geometric quantile update in fpsim's cumulative form
        # (clipping.py): the noised count of the t + 1 rounds 0..t over m,
        # against gamma * (t + 1), floored at 1e-6 * c0 and with its exponent
        # capped at 700.
        exponent = -eta * (count / m - config.clip_gamma * (t + 1))
        estimate = max(config.clip_c0 * math.exp(min(exponent, 700.0)), 1e-6 * config.clip_c0)
        momentum = config.beta * momentum + released / m
        theta = theta0 + config.eta_s * momentum
        logits = reference_logits(vocab, theta[None], eval_contexts)
        rows.append(
            {
                "round": t,
                "eval_acc": float((logits.argmax(axis=-1) == eval_labels).mean()),
                "train_loss": float(losses.mean()),
                "active_clip": clips[-1],
                "quantile_estimate": estimate,
                "cohort_size": m,
                "bits_per_update": 0 if encoding is None else encoding.bits_per_update,
            }
        )
        thetas.append(theta)
        if t + 1 in restarts:
            clips.append(estimate)
    return np.array(thetas), rows
