"""Tests for tree-structured noisy prefix sums.

Two implementations are kept deliberately: the efficient streaming tree used
for training, and a naive oracle that materializes every interval node from
the same seed derivation. Because both draw node noise by (segment, level,
index) path, agreement is exact, not approximate — any drift in either
implementation breaks equality at machine precision zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpsim.tree
from fpsim import ConfigError, ExperimentConfig, ParticipationSchema
from fpsim.seeds import SeedPath
from fpsim.tree import TreeState, closing_node
from oracles import (
    forest_nodes,
    forest_trees,
    naive_private_sum,
    prefix_decomposition,
    segment_bounds,
)


class TestPrefixDecomposition:
    """The oracle's binary-counter decomposition, and the closing_node step
    that the tree and the accountant walk, which must reproduce it."""

    def test_first_values(self):
        """Binary-counter decomposition: n rounds split into power-of-two blocks;
        round n closes the block at its lowest set bit."""
        assert [closing_node(n) for n in range(1, 9)] == [
            (0, 0), (1, 0), (0, 2), (2, 0), (0, 4), (1, 2), (0, 6), (3, 0)
        ]
        with pytest.raises(ValueError):
            closing_node(0)
        assert prefix_decomposition(1) == [(0, 0)]
        assert prefix_decomposition(2) == [(1, 0)]
        assert prefix_decomposition(3) == [(1, 0), (0, 2)]
        assert prefix_decomposition(7) == [(2, 0), (1, 2), (0, 6)]
        assert prefix_decomposition(8) == [(3, 0)]

    def test_block_sizes_sum_to_n(self):
        for n in range(1, 300):
            nodes = prefix_decomposition(n)
            assert sum(2**level for level, _ in nodes) == n
            # block count equals the binary popcount of n
            assert len(nodes) == bin(n).count("1")

    def test_blocks_are_aligned_and_descending(self):
        """Each node spans [index*2^level, (index+1)*2^level) and levels strictly
        decrease, so blocks tile [0, n) left to right."""
        for n in (5, 100, 255, 256, 1000):
            nodes = prefix_decomposition(n)
            cursor = 0
            last_level = None
            for level, index in nodes:
                assert index * 2**level == cursor
                cursor += 2**level
                if last_level is not None:
                    assert level < last_level
                last_level = level
            assert cursor == n

    def test_closing_node_walk_gives_the_decomposition(self):
        """Pushing each round's closing node after popping the open nodes of
        a lower level leaves, after round n, exactly the decomposition of n."""
        open_nodes = []
        for n in range(1, 4097):
            level, index = closing_node(n)
            while open_nodes and open_nodes[-1][0] < level:
                open_nodes.pop()
            open_nodes.append((level, index))
            assert open_nodes == prefix_decomposition(n), n


class TestRestartSchedule:
    """The rounds at whose start the trees restart: the config writes the
    periodic ones and ParticipationSchema validates them."""

    @staticmethod
    def periodic(text):
        config = ExperimentConfig.from_text("restart.mode = periodic\n" + text)
        return config.privacy_terms().timer_schema.restart_rounds

    def test_periodic_schedule(self):
        assert self.periodic("rounds = 3000\n") == (128, 1152, 2176)

    def test_periodic_with_custom_knobs(self):
        text = "rounds = 20\nrestart.first = 5\nrestart.period = 6\n"
        assert self.periodic(text) == (5, 11, 17)

    def test_no_restart_before_first(self):
        text = "rounds = 100\nrestart.first = 128\nrestart.period = 1024\n"
        assert self.periodic(text) == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="first restart round must be >= 1"):
            ParticipationSchema(20, 1, 20, (0,))  # restart before any round ran
        with pytest.raises(ValueError, match="strictly increasing"):
            ParticipationSchema(20, 1, 20, (3, 3))
        for key in ("restart.first", "restart.period"):
            with pytest.raises(ConfigError, match=f"'{key}': must be >= 1"):
                ExperimentConfig.from_text(f"rounds = 20\nrestart.mode = periodic\n{key} = 0\n")


class TestZeroNoise:
    def test_reports_exact_prefix_sums(self):
        """With a zero noise multiplier the report is the running sum itself."""
        tree = TreeState(0.0, 1.0, 1, SeedPath(0).child("t"))
        total = 0.0
        for x in (1.0, 2.0, 4.0):
            total += x
            report = tree.add_round(np.array([x]))
            np.testing.assert_array_equal(report, np.array([total]))
        assert total == 7.0

    def test_zero_noise_with_unbounded_clip(self):
        """z=0 with an infinite clip level must not poison the sum with NaN."""
        tree = TreeState(0.0, np.inf, 3, SeedPath(1).child("t"))
        out = tree.add_round(np.array([1.0, -2.0, 3.0]))
        np.testing.assert_array_equal(out, np.array([1.0, -2.0, 3.0]))


class TestOracleEquivalence:
    def test_single_segment_exact_match(self):
        rng = np.random.default_rng(10)
        seed = SeedPath(42).child("tree")
        rounds = 33
        history = rng.normal(size=(rounds, 4))
        oracle = naive_private_sum(history, z=0.7, clip_norm=1.3, seed=seed)
        tree = TreeState(0.7, 1.3, 4, seed)
        for t in range(rounds):
            got = tree.add_round(history[t])
            np.testing.assert_array_equal(got, oracle[t])

    def test_with_restarts_and_clip_changes(self):
        rng = np.random.default_rng(11)
        seed = SeedPath(43).child("tree")
        rounds = 20
        restarts = (5, 11, 17)
        clips = (1.0, 0.5, 2.0, 0.25)
        history = rng.normal(size=(rounds, 3))
        oracle = naive_private_sum(
            history,
            z=1.1,
            clip_norm=clips[0],
            seed=seed,
            restart_rounds=restarts,
            clip_norms_per_segment=clips,
        )
        tree = TreeState(1.1, clips[0], 3, seed)
        seg = 0
        for t in range(rounds):
            if t in restarts:
                seg += 1
                tree.restart(clips[seg])
            got = tree.add_round(history[t])
            np.testing.assert_array_equal(got, oracle[t])

    def test_many_random_restart_schedules(self):
        """Equality holds for arbitrary restart placements, not just friendly ones."""
        rng = np.random.default_rng(12)
        for trial in range(5):
            rounds = int(rng.integers(8, 40))
            n_restarts = int(rng.integers(0, 4))
            restarts = tuple(
                sorted(rng.choice(np.arange(1, rounds), size=n_restarts, replace=False))
            )
            seed = SeedPath(100 + trial).child("tree")
            history = rng.normal(size=(rounds, 2))
            oracle = naive_private_sum(
                history, z=0.5, clip_norm=1.0, seed=seed, restart_rounds=restarts
            )
            tree = TreeState(0.5, 1.0, 2, seed)
            for t in range(rounds):
                if t in restarts:
                    tree.restart(1.0)
                np.testing.assert_array_equal(tree.add_round(history[t]), oracle[t])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_restarts_and_clips_match_oracle(self, data):
        """Random restart rounds with a drawn clip norm per segment, any
        noise multiplier and dimension: every report equals the oracle's."""
        rounds = data.draw(st.integers(1, 48), label="rounds")
        if rounds > 1:
            drawn = data.draw(st.sets(st.integers(1, rounds - 1), max_size=6), label="restarts")
        else:
            drawn = set()
        restarts = tuple(sorted(drawn))
        clips = data.draw(
            st.lists(
                st.floats(0.01, 100.0),
                min_size=len(restarts) + 1,
                max_size=len(restarts) + 1,
            ),
            label="clips",
        )
        z = data.draw(st.sampled_from([0.0, 0.3, 1.7]), label="z")
        d = data.draw(st.integers(1, 4), label="d")
        master = data.draw(st.integers(0, 2**16), label="seed")
        seed = SeedPath(master).child("tree")
        history = np.random.default_rng(master).normal(size=(rounds, d)) * 3.0
        oracle = naive_private_sum(
            history,
            z=z,
            clip_norm=clips[0],
            seed=seed,
            restart_rounds=restarts,
            clip_norms_per_segment=clips,
        )
        tree = TreeState(z, clips[0], d, seed)
        segment = 0
        for t in range(rounds):
            if t in restarts:
                segment += 1
                tree.restart(clips[segment])
            np.testing.assert_array_equal(tree.add_round(history[t]), oracle[t])


class TestRestartSemantics:
    def test_totals_frozen_at_restart(self):
        """After a restart the pre-restart contribution to every report is the
        final pre-restart report itself (true segment sum + its last noise),
        so the next segment starts from that exact realization."""
        seed = SeedPath(7).child("tree")
        tree = TreeState(1.0, 1.0, 2, seed)
        last = None
        for t in range(5):
            last = tree.add_round(np.array([1.0, -1.0]))
        tree.restart(1.0)
        np.testing.assert_array_equal(tree.finalized_totals, last)
        # A fresh segment adds on top of the frozen realization.
        nxt = tree.add_round(np.array([2.0, 2.0]))
        fresh_only = nxt - last
        # The fresh part must be 2 + new-segment node noise; replaying an
        # identical single-round segment from the same seed reproduces it.
        twin = TreeState(1.0, 1.0, 2, seed)
        for t in range(5):
            twin.add_round(np.array([0.0, 0.0]))
        twin.restart(1.0)
        twin_next = twin.add_round(np.array([2.0, 2.0]))
        # Subtracting differing frozen baselines cancels to within one ulp.
        np.testing.assert_allclose(
            twin_next - twin.finalized_totals, fresh_only, rtol=0, atol=1e-12
        )

    def test_restart_requires_progress(self):
        tree = TreeState(1.0, 1.0, 1, SeedPath(8).child("t"))
        with pytest.raises(ValueError):
            tree.restart(1.0)
        tree.add_round(np.array([1.0]))
        tree.restart(1.0)  # now legal
        with pytest.raises(ValueError):
            tree.restart(1.0)  # and immediately again is not

    def test_new_segment_uses_new_clip_scale(self):
        """Node noise in segment s is z * C_s; doubling C at restart doubles the
        fresh segment's noise realization."""
        seed = SeedPath(9).child("tree")

        def run(second_clip):
            tree = TreeState(1.0, 1.0, 1, seed)
            tree.add_round(np.array([0.0]))
            tree.restart(second_clip)
            return tree.add_round(np.array([0.0])) - tree.finalized_totals

        one = run(1.0)
        two = run(2.0)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)


class TestNoiseStructure:
    def test_node_noise_reused_within_segment(self):
        """Round 2 (prefix of 3 rounds) reuses the level-1 node drawn at round 1:
        report difference between t=1 and t=2 is input + the new leaf noise only."""
        seed = SeedPath(20).child("tree")
        tree = TreeState(1.0, 1.0, 1, seed)
        tree.add_round(np.array([0.0]))
        r1 = tree.add_round(np.array([0.0]))
        r2 = tree.add_round(np.array([0.0]))
        # prefix(2) = {node(1,0)}; prefix(3) = {node(1,0), node(0,2)}
        # so r2 - r1 is exactly the fresh leaf node's noise, shared with a twin.
        twin = TreeState(1.0, 1.0, 1, seed)
        twin.add_round(np.array([0.0]))
        t1 = twin.add_round(np.array([0.0]))
        t2 = twin.add_round(np.array([0.0]))
        np.testing.assert_array_equal(r2 - r1, t2 - t1)
        assert not np.array_equal(r1, r2)

    def test_variance_follows_popcount_law(self):
        """Per-coordinate variance of the prefix noise at round t is
        popcount(t+1) * (z*C)^2. Checked by Monte Carlo with coordinates of a
        wide tree serving as independent replays."""
        d = 40_000
        z, c = 1.0, 2.0
        tree = TreeState(z, c, d, SeedPath(21).child("mc"))
        zero = np.zeros(d)
        for t in range(8):
            report = tree.add_round(zero)
            expected = bin(t + 1).count("1") * (z * c) ** 2
            observed = report.var()
            assert abs(observed - expected) / expected < 0.05, (t, observed, expected)

    def test_cache_stays_logarithmic(self):
        """The streaming tree keeps only the open nodes, the decomposition
        of the segment so far."""
        tree = TreeState(1.0, 1.0, 1, SeedPath(22).child("t"))
        max_cached = 0
        for t in range(512):
            tree.add_round(np.array([0.0]))
            assert len(tree._open_nodes) == bin(t + 1).count("1")
            max_cached = max(max_cached, len(tree._open_nodes))
        assert max_cached <= 10  # log2(512) + 1

    def test_determinism(self):
        seed = SeedPath(23).child("t")
        a = TreeState(0.9, 1.0, 5, seed)
        b = TreeState(0.9, 1.0, 5, seed)
        x = np.ones(5)
        for _ in range(17):
            np.testing.assert_array_equal(a.add_round(x), b.add_round(x))

    def test_position_is_state_not_an_argument(self):
        """A tree starts at round 0 of segment 0; its position cannot be set."""
        tree = TreeState(1.0, 1.0, 3, SeedPath(25).child("t"))
        assert (tree.segment_index, tree.round_in_segment) == (0, 0)
        for position in ({"segment_index": 1}, {"round_in_segment": 2}):
            with pytest.raises(TypeError):
                TreeState(1.0, 1.0, 3, SeedPath(25).child("t"), **position)


class TestForestAgreement:
    """The forest the accountant charges is the one whose nodes the noise
    mechanism draws, checked against oracle forests that borrow nothing
    from the package."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_drawn_nodes_form_the_accounted_forest(self, data):
        """Every node TreeState draws lies in the oracle forest, and the
        largest drawn nodes are its trees, which are also the trees the
        schema's tree_levels() lists."""
        rounds = data.draw(st.integers(1, 64), label="rounds")
        restarts = tuple(
            sorted(data.draw(st.sets(st.integers(1, 80), max_size=6), label="restarts"))
        )
        schema = ParticipationSchema(rounds, 1, 1, restarts)
        drawn = []

        def recording_seed(seed, segment, level, index):
            drawn.append((segment, level, index))
            return node_seed(seed, segment, level, index)

        node_seed = fpsim.tree._node_seed
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fpsim.tree, "_node_seed", recording_seed)
            tree = TreeState(1.0, 1.0, 1, SeedPath(0).child("forest"))
            for t in range(rounds):
                if t in restarts:
                    tree.restart(1.0)
                tree.add_round(np.zeros(1))
        assert len(drawn) == rounds  # one draw per round

        bounds = segment_bounds(rounds, restarts)
        spans = {
            (bounds[s] + index * (1 << level), bounds[s] + (index + 1) * (1 << level))
            for s, level, index in drawn
        }
        assert spans <= set(forest_nodes(schema))
        largest = sorted(
            (lo, hi)
            for lo, hi in spans
            if not any(a <= lo and hi <= b and (a, b) != (lo, hi) for a, b in spans)
        )
        assert largest == forest_trees(schema)
        ends = np.cumsum([1 << k for k in schema.tree_levels()])
        assert largest == list(zip([0, *ends[:-1].tolist()], ends.tolist()))
