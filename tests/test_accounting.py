"""Tests for participation-aware sensitivity accounting and zCDP conversion.

The scalable sensitivity solver is held to *exact* equality with a
brute-force pattern enumerator wherever the enumerator can run: the solver
is an optimization, never an approximation. Conversion to (epsilon, delta)
is checked against an independent dense grid search over the same objective
plus the standard loose closed form as an upper bound, and against the
fixed-count searches in oracles.py that the early-stopping ones must equal.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpsim import (
    ParticipationSchema,
    PrivacyLedger,
    SweepConfig,
    gaussian_zcdp,
    loose_eps,
    prefix_sensitivity_sq,
    prefix_zcdp,
    sweep_privacy,
    worst_case_sensitivity_sq,
    zcdp,
    zcdp_to_delta,
    zcdp_to_eps,
)
from fpsim.harness import SWEEP_COLUMNS
from fpsim import accounting
from fpsim.accounting import (
    _solver_for,
    _step_end_maxplus,
    _StepRows,
)
from oracles import (
    ReferenceTables,
    brute_force_sensitivity_sq,
    dense_step_rows,
    pattern_sensitivity_sq,
    reference_zcdp_to_delta,
    reference_zcdp_to_eps,
)


def _schema(t, min_sep=1, max_part=None, restarts=()):
    if max_part is None:
        max_part = math.ceil(t / min_sep)
    return ParticipationSchema(t, min_sep, max_part, restarts)


class TestBruteForce:
    def test_single_participant_four_rounds(self):
        """One participation in a 4-round full tree touches leaf, parent and
        root: 1^2 + 1^2 + 1^2 = 3."""
        assert brute_force_sensitivity_sq(4, 1, 1) == 3.0

    def test_every_round_four_rounds(self):
        """All four rounds: root 4^2 + two internals 2^2+2^2 + four leaves."""
        assert brute_force_sensitivity_sq(4, 1, 4) == 28.0

    def test_single_participant_two_rounds(self):
        assert brute_force_sensitivity_sq(2, 1, 1) == 2.0

    def test_enumeration_limit(self):
        with pytest.raises(ValueError):
            brute_force_sensitivity_sq(25, 1, 1)

    def test_min_sep_blocks_adjacent_rounds(self):
        """T=2, MinS=2 allows only singleton patterns even with MaxP=2."""
        assert brute_force_sensitivity_sq(2, 2, 2) == brute_force_sensitivity_sq(2, 2, 1)


class TestSolverExactness:
    def test_matches_oracle_on_sampled_grid(self):
        """Spot-check of the exhaustive grid (the acceptance suite runs all of
        it): several (T, MinS, MaxP, restart) corners, exact equality."""
        cases = [
            (1, 1, 1, ()),
            (7, 1, 4, ()),
            (8, 3, 2, ()),
            (12, 2, 4, (8,)),
            (16, 1, 4, ()),
            (16, 8, 2, (8,)),
            (13, 5, 3, ()),
            (15, 4, 4, (8,)),
            # The fold's split with exactly one placement before the tree.
            (7, 2, 3, (3,)),
            (15, 1, 9, (7,)),
        ]
        for t, min_sep, max_part, restarts in cases:
            oracle = brute_force_sensitivity_sq(t, min_sep, max_part, restarts)
            solver = worst_case_sensitivity_sq(ParticipationSchema(t, min_sep, max_part, restarts))
            assert solver == oracle, (t, min_sep, max_part, restarts)

    def test_single_participation_closed_form(self):
        """MaxP=1 on a power-of-two horizon: the best pattern rides one
        root-to-leaf path, contributing (log2 T + 1) ones."""
        for k in range(7):
            t = 2**k
            got = worst_case_sensitivity_sq(_schema(t, max_part=1))
            assert got == k + 1

    def test_scales_beyond_oracle_reach(self):
        """The solver must handle production-sized horizons the enumerator
        cannot; value for a full binary tree with every round hit is known:
        sum over levels of (count * width^2)."""
        t = 1024
        expected = sum((t >> level) * (2**level) ** 2 for level in range(11))
        got = worst_case_sensitivity_sq(_schema(t, min_sep=1))
        assert got == expected

    def test_min_sep_past_the_horizon_costs_no_memory(self):
        """Every min_sep at or past the horizon gives the same value, and a
        huge one allocates no margin axis of that size."""
        values = {
            min_sep: worst_case_sensitivity_sq(ParticipationSchema(64, min_sep, 1))
            for min_sep in (64, 65, 1000, 2_000_000)
        }
        assert set(values.values()) == {7.0}
        tracemalloc.start()
        try:
            worst_case_sensitivity_sq(ParticipationSchema(64, 2_000_001, 1))
            prefix_sensitivity_sq(ParticipationSchema(64, 2_000_001, 1, (16,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_wide_solve_stores_little(self):
        """At min_sep 1000 the solve stores three tables as step ends and no
        p = 1 table: under 200 KB (one dense int32 table would take 4 MB)."""
        accounting._SOLVER_CACHE.clear()
        worst_case_sensitivity_sq(ParticipationSchema(2048, 1000, 3))
        (solver,) = accounting._SOLVER_CACHE.values()
        for k, level in enumerate(solver._levels):
            stored_p = min(3, solver.capacity(k)) - 1  # p = 2 .. 3
            assert level.offsets.size - 1 == stored_p * solver.width, k
        stored = sum(array.nbytes for level in solver._levels for array in level)
        assert stored <= 200_000

    def test_wide_solve_peaks_low(self):
        """A cold min_sep 1000 solve builds its tables without any dense
        width x width array: its traced allocations peak under 10 MB (a
        1000 x 1000 int32 array is 4 MB)."""
        accounting._SOLVER_CACHE.clear()
        tracemalloc.start()
        try:
            worst_case_sensitivity_sq(ParticipationSchema(2048, 1000, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_values_past_the_int32_range_are_refused(self):
        """With the sentinel lowered to -64, a table value or a forest
        total of 64 or more raises instead of being read wrongly."""
        accounting._SOLVER_CACHE.clear()
        try:
            with mock.patch.object(accounting, "_INFEASIBLE", -(1 << 6)):
                # F[3][8] at min_sep 1 is 8 * 15 = 120.
                with pytest.raises(OverflowError, match="table F"):
                    worst_case_sensitivity_sq(ParticipationSchema(16, 1, 16))
                accounting._SOLVER_CACHE.clear()
                # Four 4-round segments: each tree is 28, the forest 112.
                with pytest.raises(OverflowError, match="worst-case"):
                    worst_case_sensitivity_sq(ParticipationSchema(16, 1, 16, (4, 8, 12)))
        finally:
            accounting._SOLVER_CACHE.clear()
        assert worst_case_sensitivity_sq(ParticipationSchema(16, 1, 16, (4, 8, 12))) == 112.0

    def test_restart_splits_the_horizon(self):
        """With a restart, patterns confined to one segment accumulate only
        that segment's tree, so splitting shrinks the single-shot worst case."""
        whole = worst_case_sensitivity_sq(_schema(16, max_part=1))
        split = worst_case_sensitivity_sq(_schema(16, max_part=1, restarts=(8,)))
        assert whole == 5.0  # 16-round tree: depth 4 path -> 5 nodes
        assert split == 4.0  # best segment is an 8-round tree: 4 nodes


_STEPS = st.sampled_from([0, 0, 0, 1, 3, 250])
_INFEASIBLE = accounting._INFEASIBLE
_TOP = (1 << 30) - 1  # the largest value a table may store


def _feasible_or_sentinel(values):
    """Map every negative (infeasible) entry to the sentinel, as int32."""
    return np.where(values < 0, _INFEASIBLE, values).astype(np.int32)


@st.composite
def _monotone_stacks(draw):
    """(left, right, out) stacks with every left row non-increasing and
    every right column non-decreasing along the shared axis u: random
    integer steps (many zero, so ties) from a base that is 0, small, or at
    the top of the stored range (left rows floored at the feasible 0), a
    sentinel tail on left rows and a sentinel head on right columns, 1-4
    stacked splits, sides 1-40.  All int32 as in the table build, or, as
    in the fold, one split with an int64 right side and ``out`` an int64
    transposed view."""
    splits = draw(st.integers(1, 4))
    rows, inner, cols = (draw(st.integers(1, 40)) for _ in range(3))
    u = np.arange(inner)
    left_top = draw(st.sampled_from([0, 300, 10_000, _TOP]))
    left_steps = draw(arrays(np.int64, (splits, rows, inner), elements=_STEPS))
    left_ends = draw(arrays(np.int64, (splits, rows, 1), elements=st.integers(0, inner)))
    left_values = np.maximum(left_top - np.cumsum(left_steps, axis=2), 0)
    left = np.where(u < left_ends, left_values, _INFEASIBLE)
    right_base = draw(st.sampled_from([0, _TOP - 250 * 40]))
    right_steps = draw(arrays(np.int64, (splits, inner, cols), elements=_STEPS))
    right_starts = draw(arrays(np.int64, (splits, 1, cols), elements=st.integers(0, inner)))
    right = np.where(
        u[:, None] >= right_starts, right_base + np.cumsum(right_steps, axis=1), _INFEASIBLE
    )
    out = draw(
        arrays(np.int64, (rows, cols), elements=st.sampled_from([_INFEASIBLE, 0, 9_500, _TOP]))
    )
    if draw(st.booleans()):  # the fold's call shape
        return left[:1].astype(np.int32), right[:1], out.T.copy().T
    return left.astype(np.int32), right.astype(np.int32), out.astype(np.int32)


def _step_ends(left):
    """A (splits, rows, inner) left stack in the step-end form the fold
    reads from a table: per row a and split i, (u, left[i, a, u]) at the
    last u of each run of equal feasible values, row a by row a.  Returned
    as _step_end_maxplus's (row a, weight, right source i * inner + u)."""
    splits, rows, inner = left.shape
    a, i, u = np.nonzero(left.transpose(1, 0, 2) >= 0)
    store = _StepRows.upper(rows * splits, inner, a * splits + i, u, left[i, a, u].astype(np.int64))
    row, end, value = store.entries(np.arange(rows * splits))
    return row // splits, value, row % splits * inner + end


def _tables(solver):
    """Every table a solver stores, as ((k, p), dense int32 table)."""
    width = solver.width
    for k, level in enumerate(solver._levels):
        dense = dense_step_rows(level, width)
        for p in range(2, 2 + dense.shape[0] // width):
            yield (k, p), dense[(p - 2) * width : (p - 1) * width]


class TestStepEndMaxplus:
    """Tables are kept as the step ends of their rows, and the fold's
    max-plus reads only those; the product must equal the dense one bit for
    bit, every infeasible (negative) entry read as the sentinel, and every
    table must equal the dense build."""

    @settings(max_examples=150, deadline=None)
    @given(_monotone_stacks())
    def test_matches_dense_maxplus(self, case):
        left, right, out = case
        wide = left[:, :, :, None].astype(np.int64) + right[:, None, :, :]
        expected = _feasible_or_sentinel(np.maximum(out, wide.max(axis=(0, 2))))
        chunked = out.copy(order="K")  # a transposed view stays one
        dtype = out.dtype
        rows, weights, sources = _step_ends(left)
        flat_right = right.reshape(-1, right.shape[2])
        _step_end_maxplus(rows, weights, sources, flat_right, out)
        assert out.dtype == dtype
        assert _feasible_or_sentinel(out).tobytes() == expected.tobytes()
        # Chunks of a few candidate rows split one row's candidates across
        # chunks; the result must not change.
        with mock.patch.object(accounting, "_CANDIDATE_CELLS", 3 * right.shape[2]):
            _step_end_maxplus(rows, weights, sources, flat_right, chunked)
        assert _feasible_or_sentinel(chunked).tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        min_sep=st.integers(1, 40),
        k=st.integers(1, 7),
        taller=st.integers(0, 3),
        data=st.data(),
    )
    def test_step_tables_match_the_dense_build(self, min_sep, k, taller, data):
        """Every table of a level, densified, equals the dense reference
        build byte for byte, also after the level grew from a smaller
        max_part; no p = 1 table is stored."""
        width = min(min_sep, (1 << min(k + taller, 7)) + 1)
        solver = accounting._SensitivitySolver(min_sep, width)
        capacity = solver.capacity(k)
        solver._level(k, data.draw(st.integers(1, capacity)))
        level = solver._level(k, capacity)
        assert level.offsets.size - 1 == (capacity - 1) * width
        reference = ReferenceTables(min_sep, width)
        for (level_k, p), table in _tables(solver):
            expected = reference.table(level_k, p)
            assert table.tobytes() == expected.tobytes(), (min_sep, width, level_k, p)

    @pytest.mark.parametrize(
        "schema",
        [
            ParticipationSchema(256, 1, 256, (128,)),
            ParticipationSchema(512, 3, 171),
            ParticipationSchema(1024, 20, 52, (128,)),
            ParticipationSchema(2048, 313, 7),
        ],
        ids=lambda schema: f"min_sep{schema.min_sep}",
    )
    def test_tables_nonincreasing_in_both_margins(self, schema):
        """The monotonicity the step ends rest on holds for every table a
        solver builds; every table is int32, stores infeasible entries as
        exactly the sentinel, and is not all infeasible (infeasible p is
        skipped)."""
        worst_case_sensitivity_sq(schema)
        solver = _solver_for(schema)
        tables = list(_tables(solver))
        assert tables
        for key, table in tables:
            assert table.dtype == np.int32, key
            assert np.all(table[1:, :] <= table[:-1, :]), key
            assert np.all(table[:, 1:] <= table[:, :-1]), key
            assert np.all((table >= 0) | (table == _INFEASIBLE)), key
            assert (table >= 0).any(), key
        # Only step ends are stored: int32 values >= 0, and within a row
        # ends rising and values falling from entry to entry.
        for level in solver._levels:
            assert level.ends.dtype == level.values.dtype == np.int32
            assert np.all(level.values >= 0) and np.all(level.ends < solver.width)
            row = np.repeat(np.arange(level.offsets.size - 1), np.diff(level.offsets))
            same_row = row[1:] == row[:-1]
            assert np.all(np.diff(level.ends)[same_row] > 0)
            assert np.all(np.diff(level.values)[same_row] < 0)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(0, 6),
        extra_rows=st.integers(0, 4),
        data=st.data(),
    )
    def test_one_placement_matches_dense(self, k, extra_rows, data):
        """The fold's closed-form q = 1 term equals the dense max over u of
        the p = 1 table plus rest, bit for bit, on any int64 rest (sentinel
        entries included, not necessarily monotone), every negative entry
        read as the sentinel."""
        size = 1 << k
        width = data.draw(st.integers(1, size + extra_rows))
        u_count = data.draw(st.integers(1, size))
        count = data.draw(st.integers(1, 5))
        rest = data.draw(
            arrays(
                np.int64,
                (count, u_count),
                elements=st.one_of(st.just(_INFEASIBLE), st.integers(0, _TOP - k - 1)),
            )
        )
        b = np.arange(width)[:, None]
        u = np.arange(u_count)[None, :]
        single = np.where(b + u <= size - 1, k + 1, _INFEASIBLE)
        dense = (single[None, :, :] + rest[:, None, :]).max(axis=2)
        closed = accounting._one_placement(rest, k, width)
        assert closed.dtype == np.int64
        assert closed.shape == dense.shape
        assert _feasible_or_sentinel(closed).tobytes() == _feasible_or_sentinel(dense).tobytes()


@st.composite
def _schemas(draw, max_rounds, max_sep, max_part):
    """Random schemas; restarts may fall past the horizon (they never fire)."""
    total_rounds = draw(st.integers(1, max_rounds))
    restarts = draw(st.sets(st.integers(1, max_rounds + 20), max_size=3))
    return ParticipationSchema(
        total_rounds,
        draw(st.integers(1, max_sep)),
        draw(st.integers(1, max_part)),
        tuple(sorted(restarts)),
    )


class TestPrefixAccounting:
    """The one-pass prefix column must equal a fresh solve of every prefix
    exactly, and brute force wherever that runs."""

    @settings(max_examples=40, deadline=None)
    @given(_schemas(max_rounds=200, max_sep=45, max_part=12))
    def test_every_prefix_matches_a_fresh_solve(self, schema):
        values = prefix_sensitivity_sq(schema)
        assert len(values) == schema.total_rounds
        for n, value in enumerate(values, start=1):
            prefix = ParticipationSchema(n, schema.min_sep, schema.max_part, schema.restart_rounds)
            assert value == worst_case_sensitivity_sq(prefix), n

    @settings(max_examples=40, deadline=None)
    @given(_schemas(max_rounds=16, max_sep=6, max_part=5))
    def test_short_prefixes_match_brute_force(self, schema):
        for n, value in enumerate(prefix_sensitivity_sq(schema), start=1):
            oracle = brute_force_sensitivity_sq(
                n, schema.min_sep, schema.max_part, schema.restart_rounds
            )
            assert value == oracle, n

    def test_zcdp_column_matches_zcdp(self):
        schema = _schema(40, min_sep=3, restarts=(16,))
        column = prefix_zcdp(2.0, schema)
        for n, rho in enumerate(column, start=1):
            assert rho == zcdp(2.0, _schema(n, min_sep=3, max_part=schema.max_part, restarts=(16,)))
        assert prefix_zcdp(0.0, schema) == [math.inf] * 40

    def test_taller_schedule_keeps_built_tables(self):
        """Tables depend on (min_sep, width, level, p) alone: a longer
        schedule at the same min_sep reuses the solver and its tables."""
        accounting._SOLVER_CACHE.clear()
        short, tall = _schema(64, min_sep=5), _schema(128, min_sep=5)
        worst_case_sensitivity_sq(short)
        solver = _solver_for(short)
        built = list(solver._levels)
        worst_case_sensitivity_sq(tall)
        assert _solver_for(tall) is solver
        assert all(solver._levels[k] is level for k, level in enumerate(built))


class TestPatternSensitivity:
    def test_explicit_pattern_value(self):
        """Pattern {0} in a 4-round tree is counted in nodes [0,0], [0,1], [0,3]."""
        assert pattern_sensitivity_sq(_schema(4), (0,)) == 3.0

    def test_pattern_additivity_across_restarts(self):
        """A pattern confined to segments accumulates per-segment totals:
        sensitivity of the union equals the sum of each segment's part."""
        schema = _schema(16, restarts=(8,))
        left = (0, 3)  # inside segment 0
        right = (9, 12)  # inside segment 1
        both = tuple(sorted(left + right))
        a = pattern_sensitivity_sq(schema, left)
        b = pattern_sensitivity_sq(schema, right)
        assert pattern_sensitivity_sq(schema, both) == a + b

    def test_never_exceeds_worst_case(self):
        rng = np.random.default_rng(0)
        schema = _schema(16, min_sep=3, max_part=4)
        worst = worst_case_sensitivity_sq(schema)
        for _ in range(50):
            # Random feasible pattern with gaps >= 3.
            rounds, t = [], int(rng.integers(0, 3))
            while t < 16 and len(rounds) < 4:
                rounds.append(t)
                t += 3 + int(rng.integers(0, 5))
            assert pattern_sensitivity_sq(schema, tuple(rounds)) <= worst


class TestMonotonicity:
    def test_nonincreasing_in_min_sep(self):
        values = [
            worst_case_sensitivity_sq(_schema(16, min_sep=s)) for s in (1, 2, 3, 4, 6, 8, 16)
        ]
        assert values == sorted(values, reverse=True)

    def test_nondecreasing_in_max_part(self):
        values = [
            worst_case_sensitivity_sq(_schema(16, min_sep=2, max_part=p)) for p in (1, 2, 4, 8)
        ]
        assert values == sorted(values)

    def test_nondecreasing_in_rounds(self):
        values = [
            worst_case_sensitivity_sq(_schema(t, min_sep=4)) for t in (4, 8, 12, 16, 32)
        ]
        assert values == sorted(values)


class TestZcdp:
    def test_reference_value(self):
        """rho = sensitivity^2 / (2 z^2): the 4-round single-shot case at z=7."""
        rho = zcdp(7.0, _schema(4, max_part=1))
        assert rho == pytest.approx(3 / 98, rel=1e-12)

    def test_doubling_z_quarters_rho(self):
        schema = _schema(16, min_sep=2)
        assert zcdp(2.0, schema) == pytest.approx(zcdp(1.0, schema) / 4, rel=1e-12)

    def test_zero_z_is_non_private(self):
        assert zcdp(0.0, _schema(4)) == math.inf

    @pytest.mark.parametrize("z", [math.nan, math.inf, -1.0])
    def test_z_not_a_finite_number_at_least_zero_refused(self, z):
        """A NaN z would print rho = nan, and an infinite one rho = 0 for
        noise no run adds."""
        schema = _schema(10, min_sep=2)
        for account in (zcdp, prefix_zcdp, lambda z, schema: PrivacyLedger(schema, z)):
            with pytest.raises(ValueError, match=r"^z must be a finite number >= 0, not "):
                account(z, schema)

    def test_strictly_decreasing_in_z(self):
        schema = _schema(8, min_sep=2)
        rhos = [zcdp(z, schema) for z in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_one_rho_formula(self):
        """zcdp, its per-round column and the ledger all give
        sensitivity^2 / (2 z^2) * scale^2 with the same float steps."""
        schema = _schema(24, min_sep=3, restarts=(10,))
        sensitivity_sq = worst_case_sensitivity_sq(schema)
        expected = sensitivity_sq / (2.0 * 0.7 * 0.7) * 1.3**2
        assert gaussian_zcdp(sensitivity_sq, 0.7, 1.3) == expected
        assert zcdp(0.7, schema, 1.3) == expected
        assert prefix_zcdp(0.7, schema, 1.3)[-1] == expected
        assert PrivacyLedger(schema, 0.7, 1.3).rho == expected
        assert gaussian_zcdp(sensitivity_sq, 0.7) == sensitivity_sq / (2.0 * 0.7 * 0.7)
        assert gaussian_zcdp(sensitivity_sq, 0.0, 1.3) == math.inf
        # 2 z^2 underflows to 0: rho is past the float range, not a crash.
        assert gaussian_zcdp(sensitivity_sq, 1e-200) == math.inf
        assert zcdp(1e-200, schema) == math.inf


class TestConversion:
    def test_matches_dense_grid_search(self):
        """Independent oracle: evaluate the delta(eps) objective on a dense
        alpha grid and compare with the optimizer's minimum."""
        for rho in (0.1, 0.25, 1.0, 3.0):
            for eps in (0.5, 2.0, 8.0):
                alphas = np.linspace(1.0 + 1e-9, 200.0, 400_000)
                log_obj = (
                    (alphas - 1) * (alphas * rho - eps)
                    + alphas * np.log1p(-1 / alphas)
                    - np.log(alphas - 1)
                )
                grid_delta = math.exp(float(log_obj.min()))
                got = zcdp_to_delta(rho, eps)
                assert got == pytest.approx(grid_delta, rel=1e-6), (rho, eps)

    def test_eps_inverts_delta(self):
        for rho in (0.25, 0.9, 2.0):
            eps = zcdp_to_eps(rho, 1e-10)
            assert zcdp_to_delta(rho, eps) == pytest.approx(1e-10, rel=1e-6)

    def test_zero_rho_gives_zero_eps(self):
        assert zcdp_to_eps(0.0, 1e-10) == 0.0

    def test_strictly_increasing_in_rho(self):
        eps = [zcdp_to_eps(r, 1e-10) for r in (0.1, 0.25, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_decreasing_in_delta(self):
        eps = [zcdp_to_eps(1.0, d) for d in (1e-6, 1e-8, 1e-10, 1e-12)]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_never_exceeds_loose_closed_form(self):
        """eps <= rho + 2 sqrt(rho ln(1/delta)) everywhere."""
        for rho in (0.05, 0.25, 1.0, 5.0):
            for delta in (1e-6, 1e-10):
                assert zcdp_to_eps(rho, delta) <= loose_eps(rho, delta) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(log_rho=st.floats(-6.0, 4.0), log_delta=st.floats(-15.0, math.log10(0.5)))
    def test_stops_where_all_200_steps_end(self, log_rho, log_delta):
        """The epsilon bisection stops once a step no longer moves it, and
        the delta search runs its 200 steps; epsilon and delta must equal,
        with ==, what all 200 steps of each give."""
        rho, delta = 10.0**log_rho, 10.0**log_delta
        eps = zcdp_to_eps(rho, delta)
        assert eps == reference_zcdp_to_eps(rho, delta)
        assert zcdp_to_delta(rho, eps) == reference_zcdp_to_delta(rho, eps)

    def test_delta_bounds(self):
        assert 0.0 < zcdp_to_delta(1.0, 5.0) < 1.0
        # Very generous epsilon drives delta toward zero.
        assert zcdp_to_delta(0.1, 50.0) < 1e-30

    def test_public_conversions_check_their_arguments(self):
        """The exported conversions refuse a negative rho or epsilon and a
        delta outside (0, 1), and answer an infinite or a zero rho exactly."""
        refused = [
            (zcdp_to_delta, -1.0, 1.0, "rho must be >= 0"),
            (zcdp_to_delta, 1.0, -1.0, "eps must be >= 0"),
            (zcdp_to_eps, -1.0, 1e-5, "rho must be >= 0"),
            (loose_eps, 1.0, 1.0, "delta must be in"),
            (loose_eps, -1.0, 1e-5, "rho must be >= 0"),
        ]
        for convert, rho, other, why in refused:
            with pytest.raises(ValueError, match=why):
                convert(rho, other)
        assert zcdp_to_delta(math.inf, 1.0) == 1.0
        assert (zcdp_to_delta(0.0, 1.0), zcdp_to_delta(0.0, 0.0)) == (0.0, 1.0)


class TestPrivacyLedger:
    def test_rho_matches_direct_computation(self):
        schema = _schema(16, min_sep=4)
        ledger = PrivacyLedger(schema, z=2.0)
        assert ledger.rho == pytest.approx(zcdp(2.0, schema), rel=1e-12)

    def test_sensitivity_scale_is_squared(self):
        schema = _schema(16, min_sep=4)
        plain = PrivacyLedger(schema, z=2.0)
        inflated = PrivacyLedger(schema, z=2.0, sensitivity_scale=1.5)
        assert inflated.rho == pytest.approx(plain.rho * 1.5**2, rel=1e-12)

    def test_epsilon_consistent_with_rho(self):
        ledger = PrivacyLedger(_schema(8, min_sep=2), z=3.0)
        assert ledger.epsilon(1e-10) == pytest.approx(zcdp_to_eps(ledger.rho, 1e-10), rel=1e-12)

    def test_huge_rho_has_finite_epsilon(self):
        """A tiny z on a many-participation schema gives rho ~ 2e15, where
        the delta conversion's exp overflows unless its exponent is capped
        at 0; every finite rho has a finite epsilon."""
        ledger = PrivacyLedger(ParticipationSchema(200, 50, 4), 1e-7)
        assert math.isfinite(ledger.epsilon(1e-10))
        assert zcdp_to_delta(1e300, 0.0) == 1.0

    def test_rho_past_the_loose_products_overflow_has_finite_epsilon(self):
        """At z = 1e-153 the run's rho is finite but rho * ln(1/delta) is
        not; the loose bound, and the tight epsilon bisected below it, stay
        finite."""
        ledger = PrivacyLedger(ParticipationSchema(200, 50, 4, (128,)), 1e-153)
        log_term = math.log(1e10)
        assert math.isfinite(ledger.rho) and math.isinf(ledger.rho * log_term)
        loose = ledger.loose_epsilon(1e-10)
        assert loose == ledger.rho + 2.0 * math.sqrt(ledger.rho) * math.sqrt(log_term)
        assert ledger.rho <= ledger.epsilon(1e-10) <= loose < math.inf
        # Where the product is finite the bound is the one-root value.
        for rho in (0.0, 0.5, 1e300):
            assert loose_eps(rho, 1e-10) == rho + 2.0 * math.sqrt(rho * log_term)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_sensitivity_scale_not_a_finite_positive_number_refused(self, scale):
        with pytest.raises(ValueError, match=r"^sensitivity_scale must be a finite number > 0, "):
            PrivacyLedger(_schema(8), z=1.0, sensitivity_scale=scale)

    def test_non_private_marker(self):
        ledger = PrivacyLedger(_schema(8), z=0.0)
        assert ledger.non_private
        assert ledger.rho == math.inf


class TestSchemaValidation:
    def test_max_part_clamped_to_feasible(self):
        """No feasible pattern can exceed ceil(T / MinS) participations."""
        schema = ParticipationSchema(10, 3, 100)
        assert schema.max_part == 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ParticipationSchema(0, 1, 1)
        with pytest.raises(ValueError):
            ParticipationSchema(4, 0, 1)
        with pytest.raises(ValueError):
            ParticipationSchema(4, 1, 0)

    def test_restart_rounds_validated(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ParticipationSchema(8, 1, 8, restart_rounds=(3, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            ParticipationSchema(8, 1, 8, restart_rounds=(5, 3))
        with pytest.raises(ValueError, match="first restart round must be >= 1"):
            ParticipationSchema(8, 1, 8, restart_rounds=(0,))  # before any round ran

    def test_non_integral_restart_rounds_refused(self):
        """A float restart round is an error, never truncated to an int;
        numpy integers are rounds like any other."""
        for rounds in ((2.5,), (np.float64(3.9),), (2, 4.0)):
            with pytest.raises(ValueError, match="restart rounds must be integers"):
                ParticipationSchema(8, 1, 8, restart_rounds=rounds)
        schema = ParticipationSchema(8, 1, 8, restart_rounds=(np.int64(3), np.int32(5)))
        assert schema.restart_rounds == (3, 5)
        assert all(type(r) is int for r in schema.restart_rounds)

    def test_segment_lengths_tile_the_run(self):
        schema = ParticipationSchema(20, 1, 20, (5, 11, 17))
        assert schema.segment_lengths() == (5, 6, 6, 3)
        assert ParticipationSchema(20, 1, 20).segment_lengths() == (20,)

    def test_restarts_at_or_past_the_end_never_fire(self):
        """Rounds >= total_rounds are legal and kept, but split nothing."""
        schema = ParticipationSchema(20, 1, 20, (5, 20, 31))
        assert schema.restart_rounds == (5, 20, 31)
        assert schema.segment_lengths() == (5, 15)
        assert schema.tree_levels() == ParticipationSchema(20, 1, 20, (5,)).tree_levels()


def _sweep(tmp_path, **grid):
    """The rows harness.sweep_privacy writes for one SweepConfig grid."""
    return sweep_privacy(SweepConfig(**grid), tmp_path / "sweep.csv")


class TestSweep:
    def test_row_shape_and_columns(self, tmp_path):
        rows = _sweep(tmp_path, z=7.0, report_goal=100, population=10_000, rounds=(128, 256))
        assert len(rows) == 2
        assert len(SWEEP_COLUMNS) == len(rows[0]) == 6

    def test_rho_nondecreasing_in_rounds(self, tmp_path):
        rows = _sweep(
            tmp_path, z=7.0, report_goal=100, population=10_000, rounds=(128, 256, 512, 1024)
        )
        rhos = [r[-1] for r in rows]
        assert rhos == sorted(rhos)

    def test_larger_population_lowers_rho(self, tmp_path):
        """More population at the same report goal raises min separation."""
        small = _sweep(tmp_path, z=7.0, report_goal=100, population=5_000, rounds=(512,))
        large = _sweep(tmp_path, z=7.0, report_goal=100, population=50_000, rounds=(512,))
        assert large[0][-1] < small[0][-1]

    def test_scaling_reported_per_factor(self, tmp_path):
        rows = _sweep(
            tmp_path,
            z=7.0,
            report_goal=100,
            population=20_000,
            rounds=(512,),
            scaling=(1.0, 2.0),
        )
        assert len(rows) == 2
        assert rows[1][1] == 200  # report goal doubled
        assert rows[1][2] == pytest.approx(14.0)  # z doubled with it
