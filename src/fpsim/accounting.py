"""Participation-aware zCDP accounting for tree-aggregated releases.

One client's influence on the released noise-free statistics is bounded by
the tree nodes its participations touch: if a client participates in rounds
P, the squared L2 sensitivity of the whole release (in units of the clip
norm) is sum over forest nodes v of |P intersect span(v)|^2, where the
forest contains every node of each segment's binary-counter trees.  The
accountant maximizes this quantity over all participation patterns allowed
by the scheduler's limits:

  max_part  - at most this many participations per client over the run,
  min_sep   - at least this many rounds between consecutive participations,

and converts it to rho-zCDP via rho = sensitivity^2 / (2 z^2) and on to
(epsilon, delta) via the optimal Gaussian-style conversion.

Two solvers compute the worst-case sensitivity: an exponential brute force
over patterns (the test oracle, capped at 24 rounds) and an exact dynamic
program over subtrees that shares tables across trees and scales to the
production-sized schedules this simulator models.  The dynamic program
folds the forest's trees left to right, and the fold state after each tree
answers for the forest up to that tree.  ``prefix_sensitivity_sq`` (and
``prefix_zcdp`` on top of it) keeps those states on a stack, one per tree,
and so returns the value of every prefix of a run in one pass: each new
round pops the trees it changes and refolds only those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fpsim.tree import RestartSchedule

__all__ = [
    "ParticipationSchema",
    "PrivacyLedger",
    "pattern_sensitivity_sq",
    "brute_force_sensitivity_sq",
    "worst_case_sensitivity_sq",
    "prefix_sensitivity_sq",
    "zcdp",
    "prefix_zcdp",
    "zcdp_to_eps",
    "zcdp_to_delta",
    "loose_eps",
    "sweep",
    "SWEEP_COLUMNS",
]

# The solver's tables and fold states mark an infeasible entry with this
# value (see _SensitivitySolver); every negative entry is infeasible.
_INFEASIBLE = -(1 << 30)

BRUTE_FORCE_MAX_ROUNDS = 24


@dataclass(frozen=True)
class ParticipationSchema:
    """What the accountant needs to know about a finished or planned run."""

    total_rounds: int
    min_sep: int
    max_part: int
    restart_rounds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.total_rounds < 1:
            raise ValueError("total_rounds must be >= 1")
        if self.min_sep < 1:
            raise ValueError("min_sep must be >= 1")
        if self.max_part < 1:
            raise ValueError("max_part must be >= 1")
        # No client can participate more often than once per min_sep rounds,
        # so cap the declared budget at that ceiling.
        cap = -(-self.total_rounds // self.min_sep)
        object.__setattr__(self, "max_part", min(self.max_part, cap))
        # Normalizes/validates ordering; rounds >= total_rounds are legal in
        # a schedule object and simply never fire.
        schedule = RestartSchedule(self.restart_rounds)
        object.__setattr__(self, "restart_rounds", schedule.rounds)

    def segment_lengths(self) -> tuple[int, ...]:
        return RestartSchedule(self.restart_rounds).segment_lengths(self.total_rounds)

    def tree_levels(self) -> tuple[int, ...]:
        """Level (log2 size) of each complete tree, segments concatenated.

        A segment of n rounds instantiates one complete tree per set bit of
        n, largest first, exactly mirroring the noise mechanism.
        """
        levels = []
        for seg_len in self.segment_lengths():
            levels.extend(
                level for level in range(seg_len.bit_length() - 1, -1, -1) if seg_len >> level & 1
            )
        return tuple(levels)


def _forest_nodes(schema: ParticipationSchema) -> list[tuple[int, int]]:
    """All forest nodes as (start_round, end_round) half-open spans."""
    nodes = []
    offset = 0
    for k in schema.tree_levels():
        size = 1 << k
        for level in range(k + 1):
            width = 1 << level
            for index in range(size >> level):
                start = offset + index * width
                nodes.append((start, start + width))
        offset += size
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
    for start, end in _forest_nodes(schema):
        count = int(np.searchsorted(pattern, end) - np.searchsorted(pattern, start))
        total += count * count
    return total


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
    nodes = _forest_nodes(schema)
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


class _SensitivitySolver:
    """Exact worst-case sensitivity via dynamic programming over subtrees.

    For one complete tree of 2^k leaves, F[k][p][a, b] is the maximum of
    sum-of-squared node counts when placing exactly p participations in the
    tree's leaves with at least ``a`` empty leaves before the first one, at
    least ``b`` after the last one, and gaps >= min_sep.  The recursion
    splits at the root: either all p land in one half, or they split i /
    p - i with complementary margin requirements u and min_sep - 1 - u
    around the midline; the root itself always contributes p^2.

    Margins only matter up to ``width`` = min(min_sep, tallest tree size +
    1), past which every margin is equally infeasible: tables are clamped
    there and serve every tree that fits.  The inner maximization over the
    midline margin u is a max-plus matrix product, batched over the split
    i.  Every table is non-increasing in both margins (a larger requirement
    only removes patterns), so a left row F[k-1][i][a, u] is non-increasing
    in u while the right side, F[k-1][p-i] read at row min_sep - 1 - u, is
    non-decreasing in u: only the last u of each constant step of a left row
    can attain the max.  Tables hold few distinct values (one or two per row
    at min_sep 1000), so reading step ends only turns the O(width^3) product
    into roughly O(width^2) work with the same sums, which is what makes
    production-sized schedules (min_sep in the hundreds to thousands) fast.

    Every feasible value is an integer (a sum of squared node counts), and
    tables and fold states share one encoding: an entry >= 0 is feasible,
    a negative one infeasible, stored as exactly ``_INFEASIBLE`` = -2^30.
    Tables are int32, 4 bytes per cell (two sentinels still add inside
    int32); the build refuses a value of 2^30 or more.  The p = 1 tables
    are never stored: one placement is covered by its root path, so
    F[k][1][a, b] is k + 1 where a + b <= 2^k - 1 and infeasible elsewhere,
    built only where the table build stacks it with other halves and used
    in closed form by the fold.

    A forest (trees left to right, adjacent in time) is folded left to
    right: H[j][p][b] is the best total over trees 0..j with exactly p
    placements and right margin >= b (empty leaves after the last one, up
    to the end of tree j), choosing per tree to skip it, fill it, or split
    with the same complementary-margin coupling across tree boundaries.
    The fold state is int64, one row per p, its infeasible entries reset
    to the sentinel after each tree.  Its rows are non-increasing in b, so
    a split (a table read at margin u, the state read at min_sep - 1 - u)
    goes through the table build's max-plus.  A sum with a sentinel stays
    negative while every state value is below 2^30, which ``_best``
    checks, so every sum is exact.  The fold state after each tree is a
    complete answer for the forest so far, which is what lets
    ``prefix_sensitivity_sq`` keep one state per tree and refold only the
    trees a new round changes.
    """

    def __init__(self, min_sep: int, width: int) -> None:
        self.min_sep = min_sep
        self.width = width
        self._tables: dict[tuple[int, int], np.ndarray] = {}

    def empty_state(self, total_rounds: int) -> np.ndarray:
        """Fold state of an empty forest, for forests of at most total_rounds.

        The fold's right-margin axis stops at min(min_sep, total_rounds + 1):
        requirements beyond min_sep - 1 never arise, and past total_rounds
        every requirement is equally infeasible, so ``fold`` reads the last
        entry for any larger one.
        """
        return np.zeros((1, min(self.min_sep, total_rounds + 1)), dtype=np.int64)

    def capacity(self, k: int) -> int:
        """Most participations 2^k adjacent rounds can hold at this min_sep."""
        return 1 + ((1 << k) - 1) // self.min_sep

    def _table(self, k: int, p: int) -> np.ndarray:
        """F[k][p] over the (a, b) margin grid, as int32; memoized for p >= 2.

        Only feasible tables are built (1 <= p <= capacity(k)): a split that
        puts more than a half's capacity on one side is skipped, not read
        from an all-infeasible table.
        """
        key = (k, p)
        cached = self._tables.get(key)
        if cached is not None:
            return cached
        assert 1 <= p <= self.capacity(k)
        width = self.width
        margins = np.arange(width)
        if p == 1:
            # One placement covered by its root path: k + 1 nodes of count 1.
            feasible = margins[:, None] <= (1 << k) - 1 - margins[None, :]
            return np.where(feasible, np.int32(k + 1), np.int32(_INFEASIBLE))
        half = 1 << (k - 1)
        half_cap = self.capacity(k - 1)
        if p <= half_cap:
            # All p in the left half (right margin shrinks by the half
            # width) or all in the right half (left margin shrinks).
            shifted = np.maximum(margins - half, 0)
            prev_same = self._table(k - 1, p)
            table = np.maximum(prev_same[:, shifted], prev_same[shifted, :])
        else:
            table = np.full((width, width), _INFEASIBLE, dtype=np.int32)
        u_count = min(self.min_sep, half)
        complement = np.minimum(np.maximum(self.min_sep - 1 - np.arange(u_count), 0), width - 1)
        splits = range(max(1, p - half_cap), min(p - 1, half_cap) + 1)
        if splits:
            # The splits' right-half counts p - i are their left-half
            # counts reversed, so one stack serves both sides.
            halves = np.stack([self._table(k - 1, i) for i in splits])
            right = halves[::-1][:, complement, :]
            _step_end_maxplus(halves[:, :, :u_count], right, table)
        if int(table.max()) + p * p >= -_INFEASIBLE:
            raise OverflowError(f"table F[{k}][{p}] exceeds the int32 range, 2^30")
        # Infeasible sums lie in [-2^30, 0); reset them before adding p^2,
        # which could lift one near 0 to a feasible-looking value.
        table[table < 0] = _INFEASIBLE - p * p
        table += p * p
        self._tables[key] = table
        return table

    def fold(self, state: np.ndarray, k: int, end: int, max_part: int) -> np.ndarray:
        """Fold one tree of 2^k leaves, ending at round ``end``, onto the
        state of the trees before it.

        ``state[p]`` is H[p] over the right-margin requirement; p past the
        last row is infeasible.  The new state stops at the most
        participations rounds [0, end) can hold, capped at ``max_part``.
        """
        if self.width < min(self.min_sep, (1 << k) + 1):
            raise ValueError("tree is wider than this solver's margin axis")
        size = 1 << k
        count, length = state.shape
        margins = np.arange(length)
        tree_cap = self.capacity(k)
        new_cap = min(max_part, 1 + (end - 1) // self.min_sep)
        u_count = min(self.min_sep, size)
        # With u empty leaves before this tree's first placement, the earlier
        # trees need right margin min_sep - 1 - u for a gap of min_sep.
        complement = np.minimum(self.min_sep - 1 - np.arange(u_count), length - 1)
        rest = state[:, complement]
        # inside[p, b]: the best total with p placements, at least one of
        # them in this tree, and right margin b in it (by table row b; the
        # tree-side column u is its left margin, by symmetry of the tables).
        inside = np.full((new_cap + 1, self.width), _INFEASIBLE, dtype=np.int64)
        # One placement here and p - 1 before (none for p = 1: rest[0] is 0).
        top = min(new_cap, count)
        inside[1 : top + 1] = _one_placement(rest[:top], k, self.width)
        for q in range(2, min(tree_cap, new_cap) + 1):
            table = self._table(k, q)
            np.maximum(inside[q], table[:, 0], out=inside[q])  # all q here
            # q here and r = 1 .. r_top before, for p = q + r: inside[q + r,
            # b] is the max over u of table[b, u] + rest[r, u].
            r_top = min(count - 1, new_cap - q)
            if r_top > 0:
                _step_end_maxplus(
                    table[None, :, :u_count],
                    rest[1 : r_top + 1].T[None],
                    inside[q + 1 : q + r_top + 1].T,
                )
        # Margins past width - 1 read the last row.
        new_state = inside[:, np.minimum(margins, self.width - 1)]
        # This tree left empty: the earlier placements' margin shrinks by size.
        kept = min(count, new_cap + 1)
        skipped = np.maximum(margins - size, 0)
        np.maximum(new_state[:kept], state[:kept, skipped], out=new_state[:kept])
        new_state[new_state < 0] = _INFEASIBLE
        return new_state

    def solve(self, tree_levels: tuple[int, ...], max_part: int) -> float:
        state = self.empty_state(sum(1 << k for k in tree_levels))
        end = 0
        for k in tree_levels:
            end += 1 << k
            state = self.fold(state, k, end, max_part)
        return _best(state)


def _one_placement(rest: np.ndarray, k: int, width: int) -> np.ndarray:
    """max over u of F[k][1][b, u] + rest[j, u], for each row j of the int64
    ``rest`` and each table row b < width.

    F[k][1][b, u] is k + 1 where b + u <= 2^k - 1, so the max is k + 1 plus
    a running max of rest up to u = 2^k - 1 - b, since adding a constant
    commutes with max.  Rows b >= 2^k, and rows whose running max is
    infeasible, come out negative while rest stays below 2^30.
    """
    size = 1 << k
    rows = np.arange(width)
    single = np.where(rows < size, k + 1, _INFEASIBLE)
    reach = np.clip(size - 1 - rows, 0, rest.shape[1] - 1)
    return np.maximum.accumulate(rest, axis=1)[:, reach] + single


# Cells gathered per chunk by _step_end_maxplus: 1 MB of int32 in the table
# build, 2 MB of int64 in the fold.
_CANDIDATE_CELLS = 1 << 18


def _step_end_maxplus(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """out[a, b] = max(out[a, b], max over i, u of left[i, a, u] + right[i, u, b]).

    Integer arrays (the fold's right side and ``out``, a view of its state,
    are int64), negative entries infeasible: ``left`` (splits, rows, inner)
    must be non-increasing along u in every row and ``right`` (splits,
    inner, cols) non-decreasing along u in every column.  Then
    within a run of equal left[i, a, u] the last u attains the run's max,
    so only those step ends (with feasible values) are candidates: the same
    sums as the dense product, over far fewer u.  A candidate that meets an
    infeasible right entry sums to a negative value, as the dense product
    would.  Candidates are taken row by row and reduced per row in chunks
    of gathered right rows.
    """
    by_row = left.transpose(1, 0, 2)
    ends = by_row >= 0
    ends[..., :-1] &= by_row[..., :-1] != by_row[..., 1:]
    rows, splits, inner = np.nonzero(ends)
    weights = by_row[rows, splits, inner]
    step = max(1, _CANDIDATE_CELLS // right.shape[2])
    for lo in range(0, rows.size, step):
        hi = min(rows.size, lo + step)
        block = right[splits[lo:hi], inner[lo:hi]]
        block += weights[lo:hi, None]
        chunk_rows = rows[lo:hi]
        starts = np.flatnonzero(np.diff(chunk_rows, prepend=-1))
        targets = chunk_rows[starts]
        reduced = np.maximum.reduceat(block, starts, axis=0)
        out[targets] = np.maximum(out[targets], reduced, out=reduced)


def _best(state: np.ndarray) -> float:
    """Forest answer from a fold state: the best p at right margin 0."""
    value = int(state[:, 0].max())
    if value >= -_INFEASIBLE:
        # Past 2^30 a table sentinel plus a state value could read as
        # feasible in the fold.
        raise OverflowError("worst-case sensitivity^2 exceeds the fold's range, 2^30")
    return float(value)


_SOLVER_CACHE: dict[tuple[int, int], _SensitivitySolver] = {}


def _solver_for(schema: ParticipationSchema) -> _SensitivitySolver:
    max_level = max(schema.tree_levels(), default=0)
    key = (schema.min_sep, min(schema.min_sep, (1 << max_level) + 1))
    solver = _SOLVER_CACHE.get(key)
    if solver is None:
        solver = _SensitivitySolver(*key)
        if len(_SOLVER_CACHE) > 32:
            _SOLVER_CACHE.clear()
        _SOLVER_CACHE[key] = solver
    return solver


def worst_case_sensitivity_sq(schema: ParticipationSchema) -> float:
    """Maximum squared sensitivity over all allowed participation patterns.

    Exact (agrees with brute_force_sensitivity_sq wherever that runs) and
    fast enough for multi-thousand-round schedules.
    """
    return _solver_for(schema).solve(schema.tree_levels(), schema.max_part)


def prefix_sensitivity_sq(schema: ParticipationSchema) -> list[float]:
    """worst_case_sensitivity_sq of every prefix of ``schema``, in one pass.

    Entry n - 1 equals worst_case_sensitivity_sq(ParticipationSchema(n,
    schema.min_sep, schema.max_part, schema.restart_rounds)).  Going from
    n - 1 rounds to n replaces only the open segment's trees below the
    lowest set bit of its new length by one tree, so the fold state after
    each tree of the prefix is kept on a stack: each round pops the
    replaced trees and folds the new one, about two tree folds per round
    amortised.
    """
    solver = _solver_for(schema)
    restarts = set(schema.restart_rounds)
    stack: list[tuple[int, np.ndarray]] = []  # (level, state after it)
    segment_start = segment_base = 0
    values = []
    for n in range(1, schema.total_rounds + 1):
        if n - 1 in restarts:
            segment_start, segment_base = n - 1, len(stack)
        length = n - segment_start
        level = (length & -length).bit_length() - 1
        while len(stack) > segment_base and stack[-1][0] < level:
            stack.pop()
        state = stack[-1][1] if stack else solver.empty_state(schema.total_rounds)
        state = solver.fold(state, level, n, schema.max_part)
        stack.append((level, state))
        values.append(_best(state))
    return values


def zcdp(z: float, schema: ParticipationSchema) -> float:
    """rho-zCDP of the full tree release at noise multiplier z.

    The clip norm cancels: node noise has std z * clip, sensitivity is in
    clip units.  z = 0 means no noise: rho is infinite (non-private).
    """
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0:
        return math.inf
    return worst_case_sensitivity_sq(schema) / (2.0 * z * z)


def prefix_zcdp(z: float, schema: ParticipationSchema) -> list[float]:
    """rho-zCDP after every round: entry n - 1 equals zcdp(z, the n-round
    prefix of ``schema``), from one prefix_sensitivity_sq pass."""
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0:
        return [math.inf] * schema.total_rounds
    return [value / (2.0 * z * z) for value in prefix_sensitivity_sq(schema)]


def zcdp_to_delta(rho: float, eps: float) -> float:
    """Tightest delta at a given epsilon for rho-zCDP.

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


def zcdp_to_eps(rho: float, delta: float) -> float:
    """Smallest epsilon such that rho-zCDP implies (epsilon, delta)-DP,
    under the tight conversion (bisecting zcdp_to_delta in epsilon)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    if math.isinf(rho):
        return math.inf
    if rho == 0 or zcdp_to_delta(rho, 0.0) <= delta:
        return 0.0
    lo, hi = 0.0, loose_eps(rho, delta)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if zcdp_to_delta(rho, mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def loose_eps(rho: float, delta: float) -> float:
    """Classical closed-form upper bound rho + 2 sqrt(rho ln(1/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


@dataclass
class PrivacyLedger:
    """Privacy position of one run: schema, equivalent noise multiplier,
    rho, and its (epsilon, delta) conversions.

    ``sensitivity_scale`` multiplies the per-participation sensitivity (in
    clip units); secure-aggregation runs pass inflated_clip / clip to
    account for the rounding inflation.
    """

    schema: ParticipationSchema
    z: float
    sensitivity_scale: float = 1.0
    rho: float = field(init=False)

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ValueError("z must be >= 0")
        if not self.sensitivity_scale > 0:
            raise ValueError("sensitivity_scale must be > 0")
        self.rho = (
            math.inf
            if self.z == 0
            else zcdp(self.z, self.schema) * self.sensitivity_scale**2
        )

    @property
    def non_private(self) -> bool:
        return math.isinf(self.rho)

    def epsilon(self, delta: float) -> float:
        return zcdp_to_eps(self.rho, delta)

    def loose_epsilon(self, delta: float) -> float:
        return math.inf if self.non_private else loose_eps(self.rho, delta)


SWEEP_COLUMNS = ("total_rounds", "report_goal", "z", "min_sep", "max_part", "rho")


def sweep(
    z: float,
    report_goal: int,
    population: int,
    total_rounds_range: tuple[int, ...],
    scaling: tuple[float, ...] = (1.0,),
) -> list[tuple[int, int, float, int, int, float]]:
    """Privacy-vs-schedule table over run lengths and report-goal scalings.

    For each run length and each scale factor f, the report goal and the
    noise multiplier are scaled together by f (larger cohorts can carry
    proportionally more noise at the same utility); min_sep is the best a
    timer can enforce at that cohort size, floor(population / report_goal),
    and max_part the worst case ceil(total_rounds / min_sep).  Rows are
    (total_rounds, report_goal, z, min_sep, max_part, rho), single-segment
    schedules.
    """
    if report_goal < 1:
        raise ValueError("report_goal must be >= 1")
    if population < report_goal:
        raise ValueError("population must be at least the report goal")
    if not z > 0:
        raise ValueError("z must be > 0")
    rows = []
    for total_rounds in total_rounds_range:
        for factor in scaling:
            if not factor > 0:
                raise ValueError("scale factors must be > 0")
            goal = int(round(report_goal * factor))
            if goal < 1 or goal > population:
                raise ValueError(
                    f"scaled report goal {goal} outside [1, population]"
                )
            scaled_z = z * factor
            min_sep = population // goal
            max_part = -(-total_rounds // min_sep)
            schema = ParticipationSchema(total_rounds, min_sep, max_part)
            rows.append(
                (total_rounds, goal, scaled_z, min_sep, max_part, zcdp(scaled_z, schema))
            )
    return rows
