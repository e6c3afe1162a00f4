"""Tests for adaptive clip-norm tracking and the noise-split calibration.

The clip estimate follows a geometric update driven by a privately counted
fraction of below-threshold clients; the calibration functions split one
overall noise multiplier between the model-delta channel and the count
channel so that their combination is exactly the configured multiplier.
"""

import dataclasses
import math

import numpy as np
import pytest

from fpsim import ExperimentConfig, run_experiment
from fpsim.clipping import MIN_ESTIMATE_FRACTION, ClipState, combined_multiplier, noise_split
from fpsim.federation import run_round
from fpsim.harness import cohorts, start_run
from fpsim.seeds import SeedPath
from fpsim.tree import TreeState


class TestNoiseSplit:
    def test_closed_form_value(self):
        """Independent closed form: (z^-2 - (2*sigma_b)^-2)^(-1/2)."""
        z, sigma_b = 7.0, 325.0
        expected = (z**-2 - (2 * sigma_b) ** -2) ** -0.5
        got = noise_split(z, sigma_b)
        assert got == pytest.approx(expected, abs=1e-12)
        # Frozen regression value for the same inputs.
        assert got == pytest.approx(7.00041, abs=1e-4)

    def test_zero_multiplier_passes_through(self):
        assert noise_split(0.0, 10.0) == 0.0

    def test_split_exceeds_input(self):
        """The delta channel must run slightly hotter than the combined target
        because the count channel consumes part of the budget."""
        for z in (0.5, 1.0, 7.0):
            assert noise_split(z, 100 * z) > z

    def test_budget_boundary_rejected(self):
        """2*sigma_b must strictly exceed z for the split to be solvable."""
        with pytest.raises(ValueError, match="clip-count noise too small"):
            noise_split(1.0, 0.5)
        with pytest.raises(ValueError, match="clip-count noise too small"):
            noise_split(1.0, 0.4)

    def test_round_trip_identity(self):
        """combined_multiplier(noise_split(z, s), s) == z across a wide grid."""
        for z in np.geomspace(0.5, 10.0, 13):
            for sigma_b in np.geomspace(z * 0.51, 1e4, 17):
                z_delta = noise_split(z, sigma_b)
                back = combined_multiplier(z_delta, sigma_b)
                assert back == pytest.approx(z, abs=1e-12), (z, sigma_b)

    def test_combined_of_zero_is_zero(self):
        assert combined_multiplier(0.0, 10.0) == 0.0


class TestGeometricUpdate:
    def test_step_down_when_count_exceeds_quantile(self):
        """One round, full count (fraction 1), target 0.5, rate 0.2:
        the estimate shrinks by the factor exp(-0.2 * (1 - 0.5))."""
        state = _plain_state(initial=2.0, gamma=0.5, eta=0.2)
        got = state.update_estimate(noised_mean_count=1.0, t=1)
        assert got == pytest.approx(2.0 * math.exp(-0.1), rel=1e-12)
        assert state.estimate == got

    def test_step_up_when_count_trails_quantile(self):
        state = _plain_state(initial=2.0, gamma=0.5, eta=0.2)
        got = state.update_estimate(noised_mean_count=0.0, t=1)
        assert got == pytest.approx(2.0 * math.exp(0.1), rel=1e-12)

    def test_balanced_count_is_a_fixed_point(self):
        """When the cumulative count sits exactly on the target trajectory the
        estimate returns to its initial value."""
        state = _plain_state(initial=3.0, gamma=0.5, eta=0.2)
        got = state.update_estimate(noised_mean_count=1.5, t=3)
        assert got == pytest.approx(3.0, rel=1e-12)

    def test_update_anchors_to_initial_not_previous(self):
        """The rule is a function of the cumulative count, not a chain of
        per-round multipliers: feeding the same (count, t) twice must give the
        same value, not compound."""
        state = _plain_state(initial=2.0, gamma=0.5, eta=0.2)
        first = state.update_estimate(noised_mean_count=1.0, t=1)
        second = state.update_estimate(noised_mean_count=1.0, t=1)
        assert first == second

    def test_floor_prevents_collapse(self):
        state = _plain_state(initial=2.0, gamma=0.5, eta=0.2)
        got = state.update_estimate(noised_mean_count=1e9, t=1)
        assert got == 2.0 * MIN_ESTIMATE_FRACTION

    def test_huge_negative_count_does_not_overflow(self):
        state = _plain_state(initial=2.0, gamma=0.5, eta=0.2)
        got = state.update_estimate(noised_mean_count=-1e9, t=1)
        assert math.isfinite(got)

    def test_negative_round_index_rejected(self):
        state = _plain_state(initial=2.0, gamma=0.5, eta=0.2)
        with pytest.raises(ValueError):
            state.update_estimate(noised_mean_count=0.0, t=-1)


class TestClipState:
    def test_noiseless_counts_track_exactly(self):
        """With sigma_b = 0 the private count channel is exact, so add_round
        must reproduce the plain cumulative fraction."""
        state = _plain_state(initial=1.0, gamma=0.5, eta=0.2, m=10)
        fractions = []
        running = 0
        for t, indicator_sum in enumerate((10, 5, 0, 7)):
            running += indicator_sum
            got = state.add_round(indicator_sum)
            fractions.append(got)
            assert got == pytest.approx(running / 10, abs=1e-12)
        assert state.rounds_seen == 4

    def test_estimate_decreases_under_all_clipped(self):
        """Every client under the threshold every round pushes the estimate
        down monotonically (count outruns the 0.5 target)."""
        state = _plain_state(initial=1.0, gamma=0.5, eta=0.2, m=4)
        previous = state.estimate
        for _ in range(20):
            state.add_round(4)
            assert state.estimate < previous
            previous = state.estimate

    def test_estimate_increases_under_none_clipped(self):
        """With zero counts the estimate rises from the first round on: one
        round counted puts the target trajectory at gamma, so the estimate
        is exp(eta * gamma), Andrew et al.'s first step."""
        state = _plain_state(initial=1.0, gamma=0.5, eta=0.2, m=4)
        state.add_round(0)
        assert state.estimate == pytest.approx(math.exp(0.2 * 0.5), rel=1e-12)
        previous = state.estimate
        for _ in range(20):
            state.add_round(0)
            assert state.estimate > previous
            previous = state.estimate

    def test_active_norm_frozen_until_restart(self):
        """The tracked estimate only becomes the enforced clip level at a
        restart boundary: restart returns the estimate of that moment, and
        the update tree holds it as its clip norm while the estimate moves
        on."""
        state = _plain_state(initial=1.0, gamma=0.5, eta=0.2, m=4)
        tree = TreeState(0.0, state.estimate, 1, SeedPath(0).child("tree"))
        state.add_round(4)
        tree.add_round(np.zeros(1))
        assert state.estimate < 1.0
        assert tree.clip_norm == 1.0
        tree.restart(state.restart())
        active = tree.clip_norm
        assert active == state.estimate
        state.add_round(4)
        assert state.estimate < active == tree.clip_norm

    def test_round_counter_spans_restarts(self):
        """Restarting the count tree must not reset the time index of the
        geometric rule; the cumulative count keeps its global meaning."""
        state = _plain_state(initial=1.0, gamma=0.5, eta=0.2, m=2)
        for _ in range(3):
            state.add_round(1)
        state.restart()
        state.add_round(1)
        assert state.rounds_seen == 4

    def test_noisy_counts_are_deterministic(self):
        a = _plain_state(initial=1.0, gamma=0.5, eta=0.2, m=10, sigma_b=5.0, seed=9)
        b = _plain_state(initial=1.0, gamma=0.5, eta=0.2, m=10, sigma_b=5.0, seed=9)
        for indicator in (10, 3, 8):
            assert a.add_round(indicator) == b.add_round(indicator)
        assert a.estimate == b.estimate

    def test_indicator_sum_validated(self):
        state = _plain_state(initial=1.0, gamma=0.5, eta=0.2, m=4)
        with pytest.raises(ValueError):
            state.add_round(5)
        with pytest.raises(ValueError):
            state.add_round(-1)

    def test_quantile_convergence_noiseless(self):
        """Driving the counter with indicators from a fixed norm distribution
        steers the estimate to the target quantile of that distribution."""
        rng = np.random.default_rng(17)
        m = 100
        state = _plain_state(initial=0.1, gamma=0.5, eta=0.2, m=m)
        true_median = math.exp(0.3)  # median of LogNormal(0.3, 0.8)
        for _ in range(500):
            norms = rng.lognormal(mean=0.3, sigma=0.8, size=m)
            state.add_round(int((norms <= state.estimate).sum()))
        assert abs(state.estimate - true_median) / true_median < 0.1


    def test_count_tree_segments_follow_the_delta_tree(self):
        """The combined-multiplier argument pairs the count tree's nodes
        with the update tree's, so after every round of an adaptive run
        with restarts both trees sit at the same segment and position."""
        config = ExperimentConfig(
            rounds=12,
            report_goal=4,
            population=24,
            noise_multiplier=0.3,
            vocab_size=6,
            examples_per_client=10,
            eval_examples=20,
            restart_mode="explicit",
            restart_rounds=(3, 5, 9),
        )
        state = start_run(config)
        positions = []
        for cohort_ids in cohorts(config):
            run_round(state, cohort_ids)
            count, delta = state.clip.count_tree, state.delta_tree
            assert (count.segment_index, count.round_in_segment) == (
                delta.segment_index,
                delta.round_in_segment,
            )
            positions.append((delta.segment_index, delta.round_in_segment))
        assert positions[-1] == (3, 3)
        assert [p for p in positions if p[1] == 0] == [(1, 0), (2, 0), (3, 0)]


def test_fixed_clip_is_the_adaptive_estimate_at_rate_zero(tmp_path):
    """At z = 0 a fixed clip and an adaptive one at clip.eta_gamma = 0 are
    one clip path: with restarts at 5 and 9 and a clip that binds
    (c0 = 0.05), both runs write the same metrics.csv and checkpoint.bin."""
    fixed = ExperimentConfig(
        rounds=12,
        report_goal=4,
        population=24,
        noise_multiplier=0.0,
        vocab_size=6,
        examples_per_client=10,
        eval_examples=20,
        clip_mode="fixed",
        clip_c0=0.05,
        restart_mode="explicit",
        restart_rounds=(5, 9),
    )
    adaptive = dataclasses.replace(fixed, clip_mode="adaptive", clip_eta_gamma=0.0)
    written = []
    for name, config in (("fixed", fixed), ("adaptive", adaptive)):
        out = tmp_path / name
        run_experiment(config, out)
        written.append([(out / f).read_bytes() for f in ("metrics.csv", "checkpoint.bin")])
    assert written[0] == written[1]


def _plain_state(initial, gamma, eta, m=10, sigma_b=0.0, seed=0):
    return ClipState(
        initial_estimate=initial,
        target_quantile=gamma,
        learning_rate=eta,
        sigma_b=sigma_b,
        cohort_size=m,
        seed=SeedPath(seed).child("clip"),
    )
