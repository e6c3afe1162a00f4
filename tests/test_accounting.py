"""Tests for participation-aware sensitivity accounting and zCDP conversion.

The scalable sensitivity solver is held to *exact* equality with a
brute-force pattern enumerator wherever the enumerator can run: the solver
is an optimization, never an approximation. Conversion to (epsilon, delta)
is checked against an independent dense grid search over the same objective
plus the standard loose closed form as an upper bound, and against the
fixed-count searches in oracles.py that the early-stopping ones must equal.
"""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpsim import (
    ParticipationSchema,
    SweepConfig,
    gaussian_zcdp,
    loose_eps,
    prefix_sensitivity_sq,
    prefix_zcdp,
    privacy_report,
    sweep_privacy,
    worst_case_sensitivity_sq,
    zcdp,
    zcdp_to_delta,
    zcdp_to_eps,
)
from fpsim.harness import SWEEP_COLUMNS
from fpsim import accounting
from fpsim.accounting import _solver_for, _StepRows
from oracles import (
    INFEASIBLE,
    ReferenceTables,
    brute_force_sensitivity_sq,
    dense_fold,
    dense_step_rows,
    pattern_sensitivity_sq,
    reference_zcdp_to_delta,
    reference_zcdp_to_eps,
)


def _schema(t, min_sep=1, max_part=None, restarts=()):
    if max_part is None:
        max_part = math.ceil(t / min_sep)
    return ParticipationSchema(t, min_sep, max_part, restarts)


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
        """With the range lowered to 64, a spread pattern, a table value or
        a forest total of 64 or more raises instead of being read wrongly."""
        accounting._SOLVER_CACHE.clear()
        try:
            with mock.patch.object(accounting, "_RANGE", 1 << 6):
                # Every one of 16 rounds gives 16 * (1 + 2 + 4 + 8 + 16), and
                # the bound 16^2 * 5 passes 64: refused before any table.
                with pytest.raises(OverflowError, match="already gives 496$"):
                    worst_case_sensitivity_sq(ParticipationSchema(16, 1, 16))
                assert not accounting._SOLVER_CACHE
                # F[3][8] at min_sep 1 is 8 * 15 = 120.
                with pytest.raises(OverflowError, match="table F"):
                    accounting._SensitivitySolver(1, 1).solve((4,), 16)
                # Four 4-round trees: each is 28, the forest 112.
                with pytest.raises(OverflowError, match="worst-case .* 2\\^30$"):
                    accounting._SensitivitySolver(1, 1).solve((2, 2, 2, 2), 16)
        finally:
            accounting._SOLVER_CACHE.clear()
        assert worst_case_sensitivity_sq(ParticipationSchema(16, 1, 16, (4, 8, 12))) == 112.0

    def test_refuses_past_the_range_before_building(self):
        """33000 rounds at min_sep 1: one participation a round already
        gives 2147493784 >= 2^30, so the column and the solve are refused
        before any table is built."""
        accounting._SOLVER_CACHE.clear()
        schema = ParticipationSchema(33000, 1, 33000)
        for call in (worst_case_sensitivity_sq, prefix_sensitivity_sq):
            with pytest.raises(OverflowError, match="int32 range, 2\\^30: .* 2147493784$"):
                call(schema)
        assert not accounting._SOLVER_CACHE

    @settings(max_examples=100, deadline=None)
    @given(_schemas(max_rounds=200, max_sep=45, max_part=12))
    def test_spread_pattern_bounds_the_worst_case(self, schema):
        """The closed-form lower bound is the sensitivity^2 of the pattern
        0, min_sep, 2 min_sep, ... (max_part rounds), and at most the worst
        case."""
        rounds = tuple(range(0, schema.min_sep * schema.max_part, schema.min_sep))
        spread = accounting._spread_sensitivity_sq(schema)
        assert spread == pattern_sensitivity_sq(schema, rounds)
        assert spread <= worst_case_sensitivity_sq(schema)

    def test_restart_splits_the_horizon(self):
        """With a restart, patterns confined to one segment accumulate only
        that segment's tree, so splitting shrinks the single-shot worst case."""
        whole = worst_case_sensitivity_sq(_schema(16, max_part=1))
        split = worst_case_sensitivity_sq(_schema(16, max_part=1, restarts=(8,)))
        assert whole == 5.0  # 16-round tree: depth 4 path -> 5 nodes
        assert split == 4.0  # best segment is an 8-round tree: 4 nodes


def _tables(solver):
    """Every table a solver stores, as ((k, p), dense int32 table)."""
    width = solver.width
    for k, level in enumerate(solver._levels):
        dense = dense_step_rows(level, width)
        for p in range(2, 2 + dense.shape[0] // width):
            yield (k, p), dense[(p - 2) * width : (p - 1) * width]


class TestStepEndMaxplus:
    """Tables are kept as the step ends of their rows, and the build and
    the fold read only those; every table must equal the dense build."""

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
            assert np.all((table >= 0) | (table == INFEASIBLE)), key
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


def _densify(state, n_rows, length):
    """A step-end fold state as an (n_rows, length) int64 array with the
    reference's sentinel; an end past length - 1 fills the row."""
    rows, ends, values = state
    offsets = np.cumsum(np.bincount(rows + 1, minlength=n_rows + 1))
    return dense_step_rows(_StepRows(offsets, ends, values), length).astype(np.int64)


class TestStepEndFold:
    """The fold keeps its states as step ends: each state, densified, must
    equal the dense reference fold's, and the forest's answer is the
    largest state value."""

    @settings(max_examples=150, deadline=None)
    @given(schema=_schemas(max_rounds=48, max_sep=60, max_part=12), chunked=st.booleans())
    # width = tallest + 1 < min_sep
    @example(schema=ParticipationSchema(24, 20, 2, (16,)), chunked=False)
    # T + 1 < min_sep: row 0 ends past length - 1
    @example(schema=ParticipationSchema(10, 40, 1), chunked=False)
    # max_part caps a tree's capacity
    @example(schema=ParticipationSchema(48, 3, 5, (32,)), chunked=True)
    def test_states_match_the_dense_fold(self, schema, chunked):
        """Also with the fold's (entry, q) pairs merged one at a time."""
        solver = _solver_for(schema)
        reference = ReferenceTables(solver.min_sep, solver.width)
        state, end = solver.empty, 0
        dense = np.zeros((1, min(schema.min_sep, schema.total_rounds + 1)), dtype=np.int64)
        for k in schema.tree_levels():
            end += 1 << k
            chunk = 1 if chunked else accounting._CHUNK_SPLITS
            with mock.patch.object(accounting, "_CHUNK_SPLITS", chunk):
                state = solver.fold(state, k, end, schema.max_part)
            dense = dense_fold(reference, dense, k, end, schema.max_part)
            rows, ends, values = state
            # Sorted by p, then by end; within a row ends rise and values fall.
            same_row = rows[1:] == rows[:-1]
            assert np.all(np.diff(rows) >= 0) and np.all(values >= 0)
            assert np.all(np.diff(ends)[same_row] > 0)
            assert np.all(np.diff(values)[same_row] < 0)
            assert _densify(state, *dense.shape).tobytes() == dense.tobytes(), end
        assert worst_case_sensitivity_sq(schema) == values.max() == dense[:, 0].max()


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
        noise no run adds.  Every public rho refuses it before any solve."""
        schema = _schema(10, min_sep=2)
        sensitivity_sq = worst_case_sensitivity_sq(schema)
        accounts = (
            lambda z, schema: gaussian_zcdp(sensitivity_sq, z),
            zcdp,
            prefix_zcdp,
            lambda z, schema: privacy_report(schema, z),
        )
        with mock.patch.object(accounting, "_solver_for", wraps=_solver_for) as solver:
            for account in accounts:
                with pytest.raises(ValueError, match=r"^z must be a finite number >= 0, not "):
                    account(z, schema)
        assert not solver.called

    def test_strictly_decreasing_in_z(self):
        schema = _schema(8, min_sep=2)
        rhos = [zcdp(z, schema) for z in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_one_rho_formula(self):
        """zcdp, its per-round column and the report all give
        sensitivity^2 / (2 z^2) * scale^2 with the same float steps."""
        schema = _schema(24, min_sep=3, restarts=(10,))
        sensitivity_sq = worst_case_sensitivity_sq(schema)
        expected = sensitivity_sq / (2.0 * 0.7 * 0.7) * 1.3**2
        assert gaussian_zcdp(sensitivity_sq, 0.7, 1.3) == expected
        assert zcdp(0.7, schema, 1.3) == expected
        assert prefix_zcdp(0.7, schema, 1.3)[-1] == expected
        assert privacy_report(schema, 0.7, 1.3)["rho"] == expected
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


class TestPrivacyReport:
    def test_rho_matches_direct_computation(self):
        schema = _schema(16, min_sep=4)
        report = privacy_report(schema, 2.0)
        assert report["rho"] == pytest.approx(zcdp(2.0, schema), rel=1e-12)

    def test_sensitivity_scale_is_squared(self):
        schema = _schema(16, min_sep=4)
        plain = privacy_report(schema, 2.0)
        inflated = privacy_report(schema, 2.0, sensitivity_scale=1.5)
        assert inflated["rho"] == pytest.approx(plain["rho"] * 1.5**2, rel=1e-12)

    def test_epsilon_consistent_with_rho(self):
        report = privacy_report(_schema(8, min_sep=2), 3.0, delta=1e-10)
        assert report["epsilon"] == pytest.approx(zcdp_to_eps(report["rho"], 1e-10), rel=1e-12)

    def test_huge_rho_has_finite_epsilon(self):
        """A tiny z on a many-participation schema gives rho ~ 2e15, where
        the delta conversion's exp overflows unless its exponent is capped
        at 0; every finite rho has a finite epsilon."""
        report = privacy_report(ParticipationSchema(200, 50, 4), 1e-7, delta=1e-10)
        assert math.isfinite(report["epsilon"])
        assert zcdp_to_delta(1e300, 0.0) == 1.0

    def test_rho_past_the_loose_products_overflow_has_finite_epsilon(self):
        """At z = 1e-153 the run's rho is finite but rho * ln(1/delta) is
        not; the loose bound, and the tight epsilon bisected below it, stay
        finite."""
        report = privacy_report(ParticipationSchema(200, 50, 4, (128,)), 1e-153, delta=1e-10)
        rho, loose, log_term = report["rho"], report["epsilon_loose"], math.log(1e10)
        assert math.isfinite(rho) and math.isinf(rho * log_term)
        assert loose == rho + 2.0 * math.sqrt(rho) * math.sqrt(log_term)
        assert rho <= report["epsilon"] <= loose < math.inf
        # Where the product is finite the bound is the one-root value.
        for rho in (0.0, 0.5, 1e300):
            assert loose_eps(rho, 1e-10) == rho + 2.0 * math.sqrt(rho * log_term)

    @pytest.mark.parametrize(
        "scale, why",
        [
            (math.nan, "must be a finite number > 0, not nan"),
            (math.inf, "must be a finite number > 0, not inf"),
            (0.0, "must be a finite number > 0, not 0.0"),
            (-2.0, "must be a finite number > 0, not -2.0"),
            (1e200, "must have a finite square, not 1e+200"),
            (1e154, "1e+154 overflows rho at z 1.0: "),
        ],
    )
    def test_sensitivity_scale_not_a_finite_positive_number_refused(self, scale, why):
        """rho = 0 would read as perfectly private, a negative scale squares
        to a positive rho, and NaN or infinity passes through; every public
        rho refuses such a scale before any solve.  A finite scale whose rho
        overflows at a nonzero z is refused once its sensitivity is known."""
        schema = _schema(8)
        sensitivity_sq = worst_case_sensitivity_sq(schema)
        accounts = (
            lambda scale: gaussian_zcdp(sensitivity_sq, 1.0, scale),
            lambda scale: zcdp(1.0, schema, scale),
            lambda scale: prefix_zcdp(1.0, schema, scale),
            lambda scale: privacy_report(schema, 1.0, scale),
        )
        with mock.patch.object(accounting, "_solver_for", wraps=_solver_for) as solver:
            for account in accounts:
                with pytest.raises(ValueError, match="^sensitivity_scale " + re.escape(why)):
                    account(scale)
        assert solver.called == why.startswith("1e+154")

    def test_non_private_marker(self):
        report = privacy_report(_schema(8), 0.0)
        assert report["rho"] == report["epsilon"] == report["epsilon_loose"] == math.inf


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
