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

and converts it to rho-zCDP via rho = sensitivity^2 / (2 z^2), in
``gaussian_zcdp``, and on to (epsilon, delta) via the optimal Gaussian-style
conversion.

The worst-case sensitivity comes from an exact dynamic program over
subtrees that shares tables across trees and scales to the
production-sized schedules this simulator models (the tests hold it to a
brute-force enumeration of patterns wherever that runs).  The program
folds the forest's trees left to right, and the fold state after each tree
answers for the forest up to that tree.  ``prefix_sensitivity_sq`` (and
``prefix_zcdp`` on top of it) keeps those states on a stack, one per tree,
and so returns the value of every prefix of a run in one pass: each new
round pops the trees its closing node replaces and folds that one tree,
the same ``tree.closing_node`` step the noise mechanism takes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fpsim.tree import closing_node

__all__ = [
    "ParticipationSchema",
    "worst_case_sensitivity_sq",
    "prefix_sensitivity_sq",
    "gaussian_zcdp",
    "zcdp",
    "prefix_zcdp",
    "zcdp_to_eps",
    "zcdp_to_delta",
    "loose_eps",
]

# Every table and fold-state value (a sum of squared node counts) stays
# below this, so that a table fits int32; the solver refuses the rest.
_RANGE = 1 << 30

@dataclass(frozen=True)
class ParticipationSchema:
    """What the accountant needs to know about a finished or planned run.

    max_part is capped at ceil(total_rounds / min_sep), the most any client
    can participate, so passing total_rounds asks for that worst case.  A
    restart round r ends one segment after rounds 0..r-1 and opens the
    next at round r.  The restart rounds must be strictly increasing from
    1 or later; rounds >= total_rounds are legal and never fire.
    """

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
        try:
            restarts = tuple(operator.index(r) for r in self.restart_rounds)
        except TypeError as exc:
            raise ValueError(f"restart rounds must be integers: {exc}") from None
        object.__setattr__(self, "restart_rounds", restarts)
        if restarts and restarts[0] < 1:
            raise ValueError("first restart round must be >= 1")
        if any(b <= a for a, b in zip(restarts, restarts[1:])):
            raise ValueError("restart rounds must be strictly increasing")

    def segment_lengths(self) -> tuple[int, ...]:
        """Lengths of the segments the restarts split the run into."""
        inside = [r for r in self.restart_rounds if r < self.total_rounds]
        bounds = [0, *inside, self.total_rounds]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    def tree_levels(self) -> tuple[int, ...]:
        """Level (log2 size) of each complete tree, segments concatenated.

        A segment of n rounds instantiates one complete tree per set bit of
        n, largest first: the nodes ``tree.closing_node`` leaves open after
        the segment's last round.
        """
        return tuple(
            level
            for n in self.segment_lengths()
            for level in range(n.bit_length() - 1, -1, -1)
            if n >> level & 1
        )

    def sensitivity_sq_bound(self) -> int:
        """An upper bound on worst_case_sensitivity_sq (clip units): each
        tree node counts at most max_part participations, and each round
        lies in at most total_rounds.bit_length() nodes."""
        return self.max_part**2 * self.total_rounds.bit_length()


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
    there and serve every tree that fits.  Every table is non-increasing in
    both margins (a larger requirement only removes patterns), so a left
    row F[k-1][i][a, u] is non-increasing in u while the right side,
    F[k-1][p-i] read at row min_sep - 1 - u, is non-decreasing in u: only
    the last u of each constant step of a left row can attain the max.

    Tables are stored as those step ends (_StepRows), never dense: a row
    holds few distinct values (at most three at min_sep 1000).  One store
    per level k holds F[k][p] row a at row (p - 2) * width + a, for p up to
    the largest max_part asked so far.  A table row is the max of step
    functions (the two all-in-one-half terms, and per split and left step
    end the right row lifted by the left value), so the build finds its
    step ends from theirs alone, in chunks of rows.  Tables with p >= 2
    exist only where 2^k > min_sep, so every midline margin u < width <=
    min_sep is a row.  F[k][1] is k + 1 where a + b <= 2^k - 1 (one
    placement is covered by its root path): never stored, it is written
    out to build the level above and used in closed form by the fold.
    Values (sums of squared node counts) are int32; the build refuses 2^30.

    A forest (trees left to right, adjacent in time) is folded left to
    right: H[j][p][b] is the best total over trees 0..j with exactly p
    placements and right margin >= b (empty leaves after the last one, up
    to the end of tree j).  H[j][p] is non-increasing in b, so a fold
    state is step ends too: flat (rows, ends, values), sorted by p, then
    by end, its margin axis stopping at min_sep - 1, where an end covers
    every larger margin (no split asks for more).  The new state is the
    ``_envelope`` (the routine that also builds the tables) of candidates
    from each old entry (p, b, v):

      skip the tree    (p, min(b + 2^k, min_sep - 1), v);
      q placements     after u = min_sep - 1 - b empty leaves, the fewest
                       b allows and the best, as tables are non-increasing
                       in u: F[k][q] row u's step ends (its right margins,
                       by symmetry) lifted by v, at row p + q; for q = 1
                       the closed form (2^k - 1 - u, k + 1) if u < 2^k.

    Every value is an exact int64 total of some pattern, so the forest's
    answer is the state's largest value, and the fold refuses 2^30.  The
    state after each tree answers for the forest so far, which lets
    ``prefix_sensitivity_sq`` keep one state per tree and fold one tree a
    round.
    """

    def __init__(self, min_sep: int, width: int) -> None:
        self.min_sep = min_sep
        self.width = width
        self._levels: list[_StepRows] = []
        # The fold state of no trees: no placement, at any right margin.
        self.empty = (np.zeros(1, np.int64), np.full(1, min_sep - 1), np.zeros(1, np.int64))

    def capacity(self, k: int) -> int:
        """Most participations 2^k adjacent rounds can hold at this min_sep."""
        return 1 + ((1 << k) - 1) // self.min_sep

    def _level(self, k: int, max_part: int) -> _StepRows:
        """The store of level k, with F[k][p] for 2 <= p <= min(max_part,
        capacity(k)): only feasible tables are built, so a split that puts
        more than a half's capacity on one side is skipped."""
        self._levels.extend(_StepRows.concat([]) for _ in range(len(self._levels), k + 1))
        built = 1 + (self._levels[k].offsets.size - 1) // self.width
        wanted = min(max_part, self.capacity(k))
        if built < wanted:
            # F[k-1][1]: row a <= 2^(k-1) - 1 is k up to b = 2^(k-1) - 1 - a.
            a = np.arange(min(self.width, 1 << (k - 1)))
            ends = np.minimum((1 << (k - 1)) - 1 - a, self.width - 1)
            single = _StepRows.upper(self.width, self.width, a, ends, np.full(a.size, k))
            below = _StepRows.concat([single, self._level(k - 1, wanted)])
            new = self._build(k, built + 1, wanted, below)
            self._levels[k] = _StepRows.concat([self._levels[k], new])
        return self._levels[k]

    def _build(self, k: int, p_lo: int, p_hi: int, below: _StepRows) -> _StepRows:
        """F[k][p] for 2 <= p_lo <= p <= p_hi at row (p - p_lo) * width + a,
        from ``below``, F[k-1][p] at row (p - 1) * width + a for p >= 1."""
        width, half, half_cap = self.width, 1 << (k - 1), self.capacity(k - 1)
        shifted = np.maximum(np.arange(width) - half, 0)
        total = (p_hi - p_lo + 1) * width
        step = max(1, _CHUNK_SPLITS // (1 + min(p_hi - 1, half_cap)))
        parts = []
        for lo in range(0, total, step):
            chunk = np.arange(lo, min(total, lo + step))
            p, a = p_lo + chunk // width, chunk % width
            # All p in the left half, F[k-1][p][a, b - half] (each end moves
            # right by half), or all in the right half, F[k-1][p][a - half, b].
            same = (p[: np.searchsorted(p, half_cap, side="right")] - 1) * width
            left_row, left_end, left_value = below.entries(same + a[: same.size])
            right_row, right_end, right_value = below.entries(same + shifted[a[: same.size]])
            # Split i / p - i: each step end (u, value) of F[k-1][i] row a
            # lifts F[k-1][p-i] row min_sep - 1 - u by that value.
            first = np.maximum(p - half_cap, 1)
            pair, i = _ragged(first, np.maximum(np.minimum(p - 1, half_cap) - first + 1, 0))
            cand, u, lift = below.entries((i - 1) * width + a[pair])
            complement = np.minimum(self.min_sep - 1 - u, width - 1)
            lifted, split_end, split_value = below.entries(
                (p[pair[cand]] - i[cand] - 1) * width + complement
            )
            rows = np.concatenate([left_row, right_row, pair[cand[lifted]]])
            values = np.concatenate([left_value, right_value, lift[lifted] + split_value])
            values = values + p[rows] ** 2  # int64, so an overflow shows
            if values.size and values.max() >= _RANGE:
                worst = p[rows[values.argmax()]]
                raise OverflowError(f"table F[{k}][{worst}] exceeds the int32 range, 2^30")
            ends = np.concatenate([np.minimum(left_end + half, width - 1), right_end, split_end])
            parts.append(_StepRows.upper(chunk.size, width, rows, ends, values))
        return _StepRows.concat(parts)

    def fold(self, state: tuple, k: int, end: int, max_part: int) -> tuple:
        """Fold one tree of 2^k leaves, ending at round ``end``, onto the
        state of the trees before it.  The new state stops at the most
        participations rounds [0, end) can hold, capped at ``max_part``.
        The tree is no taller than the one _solver_for sized the tables for."""
        rows, ends, values = state
        size, top = 1 << k, self.min_sep - 1
        cap = min(max_part, 1 + (end - 1) // self.min_sep)
        u = top - ends
        one = (u < size) & (rows < cap)
        new = self._merge(
            (rows, np.minimum(ends + size, top), values),
            (rows[one] + 1, np.minimum(size - 1 - u[one], top), values[one] + k + 1),
        )
        q_top = min(self.capacity(k), cap)
        if q_top < 2:
            return new
        # Tables exist only where 2^k > min_sep, so width is min_sep and every
        # u is a row.  F[k][q] is at row (q - 2) * width + u.  The (entry, q)
        # pairs are merged in chunks, so memory stays flat in max_part.
        tables = self._level(k, q_top)
        step = max(1, _CHUNK_SPLITS // rows.size)
        for q_lo in range(2, q_top + 1, step):
            qs = np.arange(q_lo, min(q_lo + step, q_top + 1))
            entry, column = np.nonzero(rows[:, None] + qs <= cap)
            q = qs[column]
            owner, table_end, table_value = tables.entries((q - 2) * self.width + u[entry])
            entry = entry[owner]
            new = self._merge(new, (rows[entry] + q[owner], table_end, values[entry] + table_value))
        return new

    def _merge(self, *parts: tuple) -> tuple:
        """The fold state that is the _envelope of the candidate sets
        ``parts``; a value of 2^30 or more is refused."""
        rows, ends, values = (np.concatenate(column) for column in zip(*parts))
        if values.max() >= _RANGE:
            raise OverflowError("worst-case sensitivity^2 exceeds the int32 range, 2^30")
        return _envelope(rows, ends, values, self.min_sep)

    def solve(self, tree_levels: tuple[int, ...], max_part: int) -> float:
        state, end = self.empty, 0
        for k in tree_levels:
            end += 1 << k
            state = self.fold(state, k, end, max_part)
        return float(state[2].max())


# (row, split) pairs per chunk of the table build, in-half terms counting as
# one, and (state entry, q) pairs per chunk of the fold.
_CHUNK_SPLITS = 1 << 14


class _StepRows(NamedTuple):
    """Rows of non-increasing tables, each stored as its step ends.

    Row r is entries offsets[r] .. offsets[r + 1] - 1 by increasing end: it
    reads values[j] from just after the previous entry's end (from column 0
    for its first) through ends[j], and is infeasible after its last end.
    """

    offsets: np.ndarray
    ends: np.ndarray
    values: np.ndarray

    @classmethod
    def upper(
        cls, n_rows: int, width: int, rows: np.ndarray, ends: np.ndarray, values: np.ndarray
    ) -> _StepRows:
        """Rows 0 .. n_rows - 1 of the _envelope of (rows, ends, values)."""
        row, end, value = _envelope(rows, ends, values, width)
        offsets = np.cumsum(np.bincount(row + 1, minlength=n_rows + 1))
        return cls(offsets, end.astype(np.int32), value.astype(np.int32))

    @classmethod
    def concat(cls, parts: list[_StepRows]) -> _StepRows:
        """The rows of ``parts`` one after another."""
        shifts = np.cumsum([0] + [part.offsets[-1] for part in parts])
        return cls(
            np.concatenate([shifts[:1], *(p.offsets[1:] + s for p, s in zip(parts, shifts))]),
            np.concatenate([np.zeros(0, dtype=np.int32), *(part.ends for part in parts)]),
            np.concatenate([np.zeros(0, dtype=np.int32), *(part.values for part in parts)]),
        )

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry of the rows ``rows``, row by row: (the index into
        ``rows`` of its row, its end, its value)."""
        starts = self.offsets[rows]
        owner, entry = _ragged(starts, self.offsets[rows + 1] - starts)
        return owner, self.ends[entry], self.values[entry]


def _ragged(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs starts[j] .. starts[j] + counts[j] - 1 one after another,
    as (the j of each element, the element)."""
    owner = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return owner, starts[owner] + (np.arange(owner.size) - first[owner])


def _envelope(
    rows: np.ndarray, ends: np.ndarray, values: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step ends of the rows whose row r at column b < width is the
    largest values[j] with rows[j] == r and ends[j] >= b (infeasible if
    none), as (rows, ends, values) sorted by row, then by end: read from
    the right, a row steps up at each end that passes every value right
    of it.  Values lie in [0, 2^32)."""
    key = rows * width + ends
    order = np.argsort(key)[::-1]  # by row, then by end, from the last
    key, values = key[order], values[order]
    group = _changes(key)  # one (row, end) each
    best = np.maximum.reduceat(values, group) if key.size else values
    row, end = np.divmod(key[group], width)
    # Lifted above the rows after it in this order, a row's running max
    # is the max of its values at or right of each end.
    running = np.maximum.accumulate(best + ((row[:1] + 1 - row) << 32))
    steps = _changes(running)[::-1]
    return row[steps], end[steps], best[steps]


def _changes(a: np.ndarray) -> np.ndarray:
    """The indices where ``a`` differs from the entry before, 0 included."""
    changed = np.empty(a.size, dtype=bool)
    changed[:1] = True
    np.not_equal(a[1:], a[:-1], out=changed[1:])
    return changed.nonzero()[0]


def _spread_sensitivity_sq(schema: ParticipationSchema) -> int:
    """sensitivity^2 of the allowed pattern of max_part rounds 0, min_sep,
    2 min_sep, ...: a lower bound on the worst case, in closed form.  The
    level-l nodes of a segment of n rounds tile its first n >> l << l
    rounds, and a node [s, e) holds min(ceil(e / min_sep), max_part) -
    min(ceil(s / min_sep), max_part) of the pattern's rounds."""
    lengths = np.array(schema.segment_lengths())
    firsts = np.cumsum(lengths) - lengths
    total = 0
    for level in range(int(lengths.max()).bit_length()):
        owner, index = _ragged(np.zeros_like(lengths), lengths >> level)
        starts = firsts[owner] + (index << level)
        edges = np.stack([starts, starts + (1 << level)])
        held = np.minimum(-(-edges // schema.min_sep), schema.max_part)
        counts = held[1] - held[0]
        total += int(counts @ counts)
    return total


_SOLVER_CACHE: dict[tuple[int, int], _SensitivitySolver] = {}


def _solver_for(schema: ParticipationSchema) -> _SensitivitySolver:
    """The cached solver for ``schema``.  Where the loose bound reaches
    2^30, a schema whose spread pattern already does is refused at once,
    before any table is built."""
    bound = schema.sensitivity_sq_bound()
    if bound >= _RANGE and (spread := _spread_sensitivity_sq(schema)) >= _RANGE:
        raise OverflowError(
            f"worst-case sensitivity^2 exceeds the int32 range, 2^30: participating "
            f"every {schema.min_sep} rounds from round 0 already gives {spread}"
        )
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

    Exact (the tests hold it equal to a brute-force enumeration of patterns
    wherever that runs) and fast enough for multi-thousand-round schedules.
    """
    return _solver_for(schema).solve(schema.tree_levels(), schema.max_part)


def check_range(schema: ParticipationSchema) -> None:
    """Raise the OverflowError accounting ``schema``, or a schema below it,
    would raise: solve it only where its loose bound reaches 2^30 (refused
    at once where one allowed pattern passes the range)."""
    if schema.sensitivity_sq_bound() >= _RANGE:
        worst_case_sensitivity_sq(schema)


def prefix_sensitivity_sq(schema: ParticipationSchema) -> list[float]:
    """worst_case_sensitivity_sq of every prefix of ``schema``, in one pass.

    Entry n - 1 equals worst_case_sensitivity_sq(ParticipationSchema(n,
    schema.min_sep, schema.max_part, schema.restart_rounds)).  Going from
    n - 1 rounds to n replaces the open segment's trees below the node its
    new length closes (``tree.closing_node``) by that one tree, so the fold
    state after each tree of the prefix is kept on a stack: each round pops
    the replaced trees and folds the new one: one fold per round.
    """
    solver = _solver_for(schema)
    restarts = set(schema.restart_rounds)
    stack = [(-1, solver.empty)]  # (level, state after it), over no trees
    segment_start, segment_base = 0, 1
    values = []
    for n in range(1, schema.total_rounds + 1):
        if n - 1 in restarts:
            segment_start, segment_base = n - 1, len(stack)
        level, _ = closing_node(n - segment_start)
        while len(stack) > segment_base and stack[-1][0] < level:
            stack.pop()
        state = solver.fold(stack[-1][1], level, n, schema.max_part)
        stack.append((level, state))
        values.append(float(state[2].max()))
    return values


def _check_rho_inputs(z: float, scale: float) -> None:
    """Refuse a z that is not a finite number >= 0, or a sensitivity scale
    that is not a finite number > 0 with a finite square."""
    if not (math.isfinite(z) and z >= 0):
        raise ValueError(f"z must be a finite number >= 0, not {z!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"sensitivity_scale must be a finite number > 0, not {scale!r}")
    if not math.isfinite(scale * scale):
        raise ValueError(f"sensitivity_scale must have a finite square, not {scale!r}")


def gaussian_zcdp(sensitivity_sq: float, z: float, scale: float = 1.0) -> float:
    """rho = sensitivity^2 * scale^2 / (2 z^2), the rho-zCDP of Gaussian
    noise of std z at squared sensitivity ``sensitivity_sq`` (both in clip
    units) times ``scale``^2 (SecAgg runs pass inflated_clip / clip).  rho
    is infinite only through z: z = 0, or a z whose 2 z^2 underflows to 0
    (non-private); a rho that overflows at any other z is refused, naming
    the sensitivity scale.
    """
    _check_rho_inputs(z, scale)
    if 2.0 * z * z == 0:
        return math.inf
    rho = sensitivity_sq / (2.0 * z * z) * scale**2
    if math.isinf(rho):
        raise ValueError(
            f"sensitivity_scale {scale!r} overflows rho at z {z!r}: "
            "sensitivity^2 * sensitivity_scale^2 / (2 z^2) is not finite"
        )
    return rho


def zcdp(z: float, schema: ParticipationSchema, scale: float = 1.0) -> float:
    """gaussian_zcdp of the full tree release at noise multiplier z.

    The clip norm cancels: node noise has std z * clip, sensitivity is in
    clip units.  z = 0 means no noise: rho is infinite (non-private), and
    the solver does not run, nor for a z or scale gaussian_zcdp refuses.
    """
    _check_rho_inputs(z, scale)
    if z == 0:
        return math.inf
    return gaussian_zcdp(worst_case_sensitivity_sq(schema), z, scale)


def prefix_zcdp(z: float, schema: ParticipationSchema, scale: float = 1.0) -> list[float]:
    """rho-zCDP after every round: entry n - 1 equals zcdp(z, the n-round
    prefix of ``schema``, scale), from one prefix_sensitivity_sq pass."""
    _check_rho_inputs(z, scale)
    if z == 0:
        return [math.inf] * schema.total_rounds
    return [gaussian_zcdp(value, z, scale) for value in prefix_sensitivity_sq(schema)]


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
        # mid equals lo or hi only once they are adjacent floats.  Then no
        # later step moves hi: a mid equal to hi leaves it in place, and one
        # equal to lo fails the test below (lo is 0, checked above, or a mid
        # that failed it).
        if mid == lo or mid == hi:
            break
        if zcdp_to_delta(rho, mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def loose_eps(rho: float, delta: float) -> float:
    """Classical closed-form upper bound rho + 2 sqrt(rho ln(1/delta)).

    Where the product rho ln(1/delta) overflows, the root is taken factor by
    factor, so a finite rho keeps a finite bound; every other result is
    the one-root value.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    log_term = math.log(1.0 / delta)
    product = rho * log_term
    root = math.sqrt(product) if math.isfinite(product) else math.sqrt(rho) * math.sqrt(log_term)
    return rho + 2.0 * root
