"""Tests for cohort selection, local updates, and the server round loop.

The round loop's anchored momentum update is held to an exact reduction: at
zero noise with clipping disabled it must reproduce, parameter for
parameter, a plainly written federated-averaging-with-momentum loop.  Its
local updates come from a per-client dense reference kept in this file
(one-hot features, softmax, P.T @ F), fed the same per-round batch orders,
so the stacked cohort step is checked against code it shares nothing with.
"""

import dataclasses
import itertools
import math
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from fpsim import (
    CohortExhausted,
    ExperimentConfig,
    RoundingRetriesExhausted,
    TrainingDiverged,
    run_experiment,
)
from fpsim.data import synthesize_clients, synthesize_eval_set
from fpsim.federation import (
    RunState,
    availability_weights,
    batch_orders,
    check_exhaustion,
    cohort_update,
    run_round,
    select_cohort,
)
from fpsim.harness import (
    _by_client,
    _observed_schema,
    _participation_text,
    cohorts,
    read_metrics,
    start_run,
)
from fpsim.models import NextTokenBOW
from fpsim.secagg import SecAggConfig, SecAggRound
from fpsim.seeds import SeedPath
from fpsim import federation, secagg
from fpsim._kernels import stochastic_round
from oracles import (
    clip_l2,
    reference_cohort_update,
    reference_limits,
    reference_participation_csv,
    reference_run,
)


def _config(population=20, vocab=8, examples=30, window=1, **kw):
    """A config of _data's corpus shape for the round loop: no noise, a
    fixed clip norm, no restarts.  ``kw`` overrides any field."""
    fields = dict(
        population=population,
        report_goal=1,
        noise_multiplier=0.0,
        clip_mode="fixed",
        clip_c0=math.inf,
        restart_mode="none",
        vocab_size=vocab,
        window=window,
        examples_per_client=examples,
        heterogeneity=0.3,
        concentration=0.1,
        eval_examples=50,
    )
    fields.update(kw)
    return ExperimentConfig(**fields)


def _data(population=20, vocab=8, examples=30, seed=0, window=1):
    config = _config(population, vocab, examples, window)
    return synthesize_clients(config, SeedPath(seed).child("data"))


def _orders(data, epochs=1, rng=None):
    """Batch orders for every client of ``data``: sequential by default."""
    cohort, n = data.labels.shape
    if rng is None:
        return np.broadcast_to(np.arange(n), (epochs, cohort, n))
    return batch_orders(rng, cohort, n, epochs)


def _population(data):
    """A fresh next_eligible timer array for select_cohort: all eligible."""
    return np.zeros(data.labels.shape[0], dtype=np.int64)


def _dense_loss_grad(theta, contexts, labels, vocab, window):
    """One client's minibatch loss and flat gradient, written densely:
    window-mean one-hot features F, softmax P, gradient (P - Y).T @ F / batch."""
    batch = labels.shape[0]
    features = np.zeros((batch, vocab))
    np.add.at(features, (np.arange(batch)[:, None], contexts), 1.0 / window)
    logits = features @ theta.reshape(vocab, vocab).T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    rows = np.arange(batch)
    loss = float(-np.log(probs[rows, labels]).mean())
    probs[rows, labels] -= 1.0
    return loss, (probs.T @ features).ravel() / batch


def _reference_update(theta, contexts, labels, eta_c, batch_size, epochs, rng, vocab, window):
    """Client-by-client local SGD with the dense gradient.  The batch orders
    are drawn as the round draws them: per epoch, one rng.permuted row per
    client.  Returns the unclipped (cohort, d) deltas and mean losses."""
    cohort, n = labels.shape
    orders = np.tile(np.arange(n), (cohort, 1))
    epoch_orders = []
    for _ in range(epochs):
        if rng is not None:
            rng.permuted(orders, axis=1, out=orders)
        epoch_orders.append(orders.copy())
    deltas, losses = [], []
    for c in range(cohort):
        local = theta.copy()
        batch_losses = []
        for order in epoch_orders:
            for start in range(0, n, batch_size):
                batch = order[c, start : start + batch_size]
                loss, grad = _dense_loss_grad(
                    local, contexts[c, batch], labels[c, batch], vocab, window
                )
                local -= eta_c * grad
                batch_losses.append(loss)
        deltas.append(local - theta)
        losses.append(np.mean(batch_losses))
    return np.array(deltas), np.array(losses)


def _state(config, data):
    """A RunState over ``data`` from the model's plain initial parameters;
    everything else comes from ``config``."""
    theta0 = NextTokenBOW(config.vocab_size, config.window).init_params()
    eval_set = synthesize_eval_set(config, SeedPath(config.seed).child("eval"))
    return RunState(config, data, eval_set, theta0)


def _server(data, z=0.0, clip=math.inf, m=4, beta=0.0, eta_s=1.0, seed=11, **kw):
    """A run over ``data`` with a fixed clip norm and no restarts; ``kw``
    sets more config fields."""
    config = _config(
        data.labels.shape[0],
        report_goal=m,
        noise_multiplier=z,
        clip_c0=clip,
        beta=beta,
        eta_s=eta_s,
        seed=seed,
        **kw,
    )
    return _state(config, data)


class TestAvailabilityModel:
    def test_uniform_selects_as_flat_diurnal(self):
        """Uniform availability takes the exponential-race keys unweighted:
        the cohorts of diurnal weights all 1 (amplitude 0), round by round."""
        uniform = _config(report_goal=4, timer_rounds=2)
        flat = dataclasses.replace(uniform, availability_kind="diurnal", availability_amplitude=0)
        picks = []
        for config in (uniform, flat):
            population, seed = _population(_data()), SeedPath(3).child("sel")
            picks.append([select_cohort(population, config, t, seed) for t in range(8)])
        assert picks[0] == picks[1]

    def test_diurnal_weights_bounded(self):
        config = _config(
            availability_kind="diurnal", availability_period=24, availability_amplitude=0.5
        )
        for r in range(48):
            w = availability_weights(config, np.arange(100), r)
            assert w.min() >= 0.5 - 1e-12
            assert w.max() <= 1.5 + 1e-12

    def test_diurnal_phases_differ_across_clients(self):
        config = _config(
            availability_kind="diurnal", availability_period=24, availability_amplitude=1.0
        )
        w = availability_weights(config, np.arange(50), 0)
        assert np.std(w) > 0.1

    def test_diurnal_cycles_with_round(self):
        config = _config(
            availability_kind="diurnal", availability_period=10, availability_amplitude=1.0
        )
        ids = np.arange(5)
        np.testing.assert_allclose(
            availability_weights(config, ids, 0), availability_weights(config, ids, 10), rtol=1e-9
        )
        assert not np.allclose(
            availability_weights(config, ids, 0), availability_weights(config, ids, 5)
        )


class TestSelectCohort:
    def test_returns_sorted_unique_ids(self):
        population = _population(_data())
        cfg = _config(report_goal=6, timer_rounds=3)
        ids = select_cohort(population, cfg, 0, SeedPath(1).child("sel"))
        assert len(ids) == 6
        assert ids == sorted(set(ids))

    def test_timer_blocks_reselection(self):
        """A selected client is ineligible for exactly timer_rounds rounds."""
        population = _population(_data(population=8))
        cfg = _config(8, report_goal=4, timer_rounds=2)
        seed = SeedPath(2).child("sel")
        first = select_cohort(population, cfg, 0, seed)
        second = select_cohort(population, cfg, 1, seed)
        assert not set(first) & set(second)
        third = select_cohort(population, cfg, 2, seed)  # round 0 picks are back
        assert set(third) <= set(first)

    def test_exhaustion_error(self):
        """The error names the round, the eligible count and the goal."""
        population = _population(_data(population=6))
        cfg = _config(6, report_goal=4, timer_rounds=5)
        seed = SeedPath(3).child("sel")
        select_cohort(population, cfg, 0, seed)
        with pytest.raises(
            CohortExhausted,
            match=r"^population exhausted at round 1: 2 eligible clients for report_goal 4;",
        ):
            select_cohort(population, cfg, 1, seed)

    def test_exhaustion_check_matches_the_selection_loop(self):
        """check_exhaustion's closed form raises, before the run, the
        CohortExhausted the selection loop raises (the same round and
        eligible count), and nothing where every round is drawn, on a grid
        of populations, goals, timers and run lengths.  Diurnal availability
        at full amplitude weights some clients near zero, and still moves no
        boundary."""

        def error(run):
            try:
                run()
            except CohortExhausted as exc:
                return str(exc)
            return None

        grid = itertools.product((4, 7, 12), (1, 2, 3, 4), (1, 2, 3, 5, 8), (1, 3, 6, 10))
        outcomes = set()
        for (population, goal, timer, rounds), kind in itertools.product(grid, ("uniform", "diurnal")):
            if goal > population:
                continue
            cfg = _config(
                population,
                report_goal=goal,
                timer_rounds=timer,
                rounds=rounds,
                availability_kind=kind,
                availability_amplitude=1.0,
            )

            def select_every_round():
                timers = np.zeros(population, dtype=np.int64)
                for t in range(rounds):
                    select_cohort(timers, cfg, t, SeedPath(8).child("s"))

            expected = error(select_every_round)
            assert error(lambda: check_exhaustion(cfg)) == expected, (population, goal, timer, rounds)
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_participation_log_updated(self):
        """Each pick's timer restarts at the round it reported in; the
        harness logs the returned ids as that round's row."""
        next_eligible = _population(_data(population=8))
        cfg = _config(8, report_goal=4, timer_rounds=1)
        seed = SeedPath(5).child("sel")
        for r in range(6):
            for cid in select_cohort(next_eligible, cfg, r, seed):
                assert next_eligible[cid] - cfg.timer_rounds == r

    def test_deterministic_in_seed_and_round(self):
        a = _population(_data(population=12))
        b = _population(_data(population=12))
        cfg = _config(12, report_goal=5, timer_rounds=2)
        for r in range(4):
            assert select_cohort(a, cfg, r, SeedPath(6).child("s")) == select_cohort(
                b, cfg, r, SeedPath(6).child("s")
            )

    def test_uniform_selection_is_balanced(self):
        """With uniform availability and no timer pressure every client is
        picked at close to the m/N rate."""
        population = _population(_data(population=30))
        cfg = _config(30, report_goal=6, timer_rounds=1)
        counts = np.zeros(30)
        rounds = 500
        for r in range(rounds):
            for cid in select_cohort(population, cfg, r, SeedPath(7).child("s")):
                counts[cid] += 1
        expected = rounds * 6 / 30
        assert np.all(np.abs(counts - expected) < 5 * math.sqrt(expected))


class TestClientUpdate:
    """The stacked cohort step, one row per client."""

    def test_indicator_uses_unclipped_norm(self):
        """The norms the clip estimate's indicators compare are the raw
        deltas' norms, however far below them the deltas are clipped."""
        data = _data(population=2)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        args = (model, params, data.contexts, data.labels, _orders(data), 0.5)
        raw, raw_norms, _ = cohort_update(*args, math.inf)
        norms = np.linalg.norm(raw, axis=1)
        np.testing.assert_allclose(raw_norms, norms, rtol=1e-15)
        clipped, tight, _ = cohort_update(*args, norms.min() / 10)
        assert tight.tobytes() == raw_norms.tobytes()
        np.testing.assert_allclose(np.linalg.norm(clipped, axis=1), norms.min() / 10)

    def test_clipping_bounds_the_delta(self):
        data = _data(population=3)
        model = NextTokenBOW(vocab_size=8)
        args = (model, model.init_params(), data.contexts, data.labels, _orders(data), 2.0)
        raw, _, _ = cohort_update(*args, math.inf)
        deltas, _, _ = cohort_update(*args, 0.05)
        np.testing.assert_array_less(np.linalg.norm(deltas, axis=1), 0.05 * (1 + 1e-12))
        for row, clipped in zip(raw, deltas):
            np.testing.assert_allclose(clipped, clip_l2(row, 0.05), rtol=0, atol=1e-15)

    def test_local_steps_reduce_local_loss(self):
        data = _data(population=2, examples=60)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        deltas, _, _ = cohort_update(
            model, params, data.contexts, data.labels, _orders(data, 3), 0.5, math.inf
        )
        for c in range(2):
            args = (data.contexts[c], data.labels[c], 8, 1)
            before, _ = _dense_loss_grad(params, *args)
            after, _ = _dense_loss_grad(params + deltas[c], *args)
            assert after < before

    def test_order_seed_determinism(self):
        data = _data(population=3, examples=40)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()

        def update(seed):
            orders = _orders(data, 2, SeedPath(8).child("order", seed).generator())
            args = (model, params, data.contexts, data.labels, orders)
            return cohort_update(*args, 0.5, 1.0, 8)

        a, b, other = update(0), update(0), update(1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(a[0], other[0])

    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(1, 3),
        vocab=st.integers(2, 16),
        cohort=st.integers(1, 8),
        n=st.integers(1, 20),
        batch_size=st.integers(1, 8),
        epochs=st.integers(1, 2),
        shuffle=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_step_matches_dense_reference(
        self, window, vocab, cohort, n, batch_size, epochs, shuffle, seed
    ):
        """Any window, vocabulary, cohort size and (possibly ragged) batch
        split: the stacked step's deltas and losses equal the per-client
        dense reference's, fed the same batch orders."""
        rng = np.random.default_rng(seed)
        model = NextTokenBOW(vocab_size=vocab, window=window)
        theta = rng.normal(size=model.num_params) * 0.3
        contexts = rng.integers(0, vocab, size=(cohort, n, window))
        labels = rng.integers(0, vocab, size=(cohort, n))

        def order_rng():
            return np.random.default_rng(seed + 1) if shuffle else None

        if shuffle:
            orders = batch_orders(order_rng(), cohort, n, epochs)
        else:
            orders = np.broadcast_to(np.arange(n), (epochs, cohort, n))
        deltas, norms, losses = cohort_update(
            model, theta, contexts, labels, orders, 0.3, math.inf, batch_size
        )
        expected, expected_losses = _reference_update(
            theta, contexts, labels, 0.3, batch_size, epochs, order_rng(), vocab, window
        )
        np.testing.assert_allclose(deltas, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(losses, expected_losses, rtol=1e-12)
        np.testing.assert_allclose(norms, np.linalg.norm(expected, axis=1), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        vocab=st.integers(2, 130),
        window=st.integers(1, 4),
        rows=st.integers(1, 20),
        n=st.integers(1, 40),
        batch_size=st.integers(1, 17),
        epochs=st.integers(1, 3),
        lr=st.floats(1e-3, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_matches_reference_bytes(
        self, vocab, window, rows, n, batch_size, epochs, lr, seed
    ):
        """The block's deltas and losses equal, byte for byte, the plain
        formulation's: np.tile rows and one fancy-index gather and
        reference step per minibatch, in shuffled per-epoch orders."""
        rng = np.random.default_rng(seed)
        model = NextTokenBOW(vocab_size=vocab, window=window)
        params = rng.normal(size=model.num_params) * 0.3
        contexts = rng.integers(0, vocab, size=(rows, n, window))
        labels = rng.integers(0, vocab, size=(rows, n))
        orders = batch_orders(rng, rows, n, epochs)
        deltas, _, losses = cohort_update(
            model, params, contexts, labels, orders, lr, math.inf, batch_size
        )
        want, want_losses = reference_cohort_update(
            vocab, window, params, contexts, labels, orders, lr, batch_size
        )
        assert deltas.tobytes() == want.tobytes()
        assert losses.tobytes() == want_losses.tobytes()


class TestRunRound:
    def test_single_round_zero_noise_identity(self):
        """theta after one round is exactly theta0 + eta_s * mean client
        delta, the deltas from the dense reference."""
        data = _data()
        server = _server(data, m=4, eta_s=0.7)
        cohort_ids = [0, 1, 2, 3]
        deltas, _ = _reference_update(
            server.theta0,
            data.contexts[cohort_ids],
            data.labels[cohort_ids],
            server.config.eta_c,
            server.config.batch_size,
            server.config.epochs,
            server.seed.child("local-order", 0).generator(),
            8,
            1,
        )
        run_round(server, cohort_ids)
        expected = server.theta0 + 0.7 * np.sum(deltas, axis=0) / 4
        np.testing.assert_allclose(server.theta, expected, rtol=0, atol=1e-12)

    def test_matches_reference_fedavgm_loop(self):
        """Exact reduction: zero noise + unbounded clip == plain FedAvgM.

        The reference below implements the textbook recursion
            momentum <- beta * momentum + mean_delta
            theta    <- theta + eta_s * momentum
        with per-client dense local SGD, and must agree with the anchored
        cumulative form to float precision.
        """
        m, beta, eta_s, rounds = 4, 0.9, 0.5, 20
        data = _data(population=16)
        population = _population(data)
        server = _server(data, m=m, beta=beta, eta_s=eta_s, seed=21, timer_rounds=2)
        sel_seed = server.seed.child("selection")

        twins = _data(population=16)
        twin_population = _population(twins)
        theta = server.theta0.copy()
        velocity = np.zeros_like(theta)

        for t in range(rounds):
            cohort_ids = select_cohort(population, server.config, t, sel_seed)
            run_round(server, cohort_ids)

            twin_ids = select_cohort(twin_population, server.config, t, sel_seed)
            assert twin_ids == cohort_ids
            deltas, _ = _reference_update(
                theta,
                twins.contexts[twin_ids],
                twins.labels[twin_ids],
                server.config.eta_c,
                server.config.batch_size,
                server.config.epochs,
                server.seed.child("local-order", t).generator(),
                8,
                1,
            )
            velocity = beta * velocity + np.mean(deltas, axis=0)
            theta = theta + eta_s * velocity
            np.testing.assert_allclose(server.theta, theta, rtol=0, atol=1e-11)

    def test_adaptive_clip_state_advances(self):
        config = _config(
            report_goal=4,
            beta=0.0,
            clip_mode="adaptive",
            clip_c0=0.5,
            clip_gamma=0.5,
            clip_eta_gamma=0.2,
            restart_mode="explicit",
            restart_rounds=(2,),
            seed=30,
        )
        server = _state(config, _data())
        clip = server.clip
        run_round(server, [0, 1, 2, 3])
        assert clip.rounds_seen == 1
        assert server.active_clip == 0.5  # not yet activated
        run_round(server, [4, 5, 6, 7])
        # Round 2 is a restart boundary: the estimate became the active norm
        # and the tree opened a new segment.
        assert server.active_clip == clip.estimate
        assert server.delta_tree.segment_index == 1

    def test_restart_every_round_keeps_both_trees_in_step(self):
        """restart.first = restart.period = 1 restarts both trees after
        each of 3000 rounds, a set lookup a round: after round t both sit
        at the start of segment t + 1, the update tree at the clip
        estimate, and the last round, which no restart follows, stays in
        its segment."""
        rounds = 3000
        config = _config(
            rounds=rounds,
            clip_mode="adaptive",
            clip_c0=0.5,
            restart_mode="periodic",
            restart_first=1,
            restart_period=1,
        )
        state = _state(config, _data())
        assert state.restarts == frozenset(range(1, rounds))
        for t, cohort_ids in enumerate(cohorts(config)):
            run_round(state, cohort_ids)
            restarted = t + 1 < rounds
            position = (t + restarted, 1 - restarted)
            count, delta = state.clip.count_tree, state.delta_tree
            assert (delta.segment_index, delta.round_in_segment) == position
            assert (count.segment_index, count.round_in_segment) == position
            if restarted:
                assert state.active_clip == state.clip.estimate

    def test_divergence_detected(self):
        """A noise multiplier so large its Gaussian draws overflow float64
        must stop the run with the divergence diagnostic, not march on with
        non-finite parameters."""
        server = _server(_data(), m=4, z=1e308, clip=1.0, seed=50)
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
            for t in range(4):
                run_round(server, [0, 1, 2, 3])

    def test_overflowed_round_sum_stops_the_run_naming_the_round(self, monkeypatch):
        """Should a round's sum overflow although every delta norm is
        finite, the noise tree takes the infinite sum as it is (it does not
        re-check its input), and the round's check on theta stops the run
        there with TrainingDiverged naming the round."""
        server = _server(_data(), m=4, z=1.0, clip=1.0, seed=51)
        run_round(server, [0, 1, 2, 3])
        real = federation.cohort_update

        def overflowing(*args):
            deltas, norms, losses = real(*args)
            deltas[...] = np.finfo(np.float64).max
            return deltas, norms, losses

        monkeypatch.setattr(federation, "cohort_update", overflowing)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDiverged, match=r"^non-finite loss or parameters at round 1$"
        ):
            run_round(server, [0, 1, 2, 3])

    def test_metrics_fields(self):
        """A round reports only what it measures; the round index, the
        cohort size and the bits per update are the harness's columns."""
        server = _server(_data(), m=4, clip=1.0)
        metrics = run_round(server, [0, 1, 2, 3])
        assert [f.name for f in dataclasses.fields(metrics)] == [
            "train_loss",
            "active_clip",
            "quantile_estimate",
            "secagg_residual",
            "secagg_clamp_fraction",
        ]
        assert math.isfinite(metrics.train_loss)
        assert metrics.active_clip == metrics.quantile_estimate == 1.0
        assert metrics.secagg_residual == metrics.secagg_clamp_fraction == 0.0


class TestSecureAggregationRound:
    def test_round_with_codec_close_to_plain(self):
        """Running the same round with and without the integer codec agrees
        to the codec's rounding tolerance."""
        m = 4
        plain = _server(_data(population=8), m=m, clip=1.0, seed=40)
        coded = _server(_data(population=8), m=m, clip=1.0, seed=40, secagg_enabled=True)
        cfg = coded.terms.secagg
        assert cfg == SecAggConfig(1.0, 100.0, plain.model.num_params, m)
        cohort_ids = list(range(m))
        metrics_plain = run_round(plain, cohort_ids)
        metrics_coded = run_round(coded, cohort_ids)
        assert np.linalg.norm(plain.theta - coded.theta) <= m * math.sqrt(cfg.padded_dim) / 100.0
        assert metrics_coded.secagg_residual <= m * math.sqrt(cfg.padded_dim) / 100.0
        assert 0.0 <= metrics_coded.secagg_clamp_fraction <= 1.0
        assert metrics_plain.secagg_residual == metrics_plain.secagg_clamp_fraction == 0.0

    def test_exhausted_rounding_names_the_round_and_client(self, monkeypatch):
        """A client whose rounding retries run out stops the round with an
        error naming the round, the client and the config key.  Every
        rounding drawn from client 6's round-1 attempt seeds is pushed past
        the norm bound."""
        m = 4
        data = _data(population=8)
        server = _server(
            data, m=m, clip=1.0, seed=43, secagg_enabled=True, secagg_retry_cap=3
        )
        cfg = server.terms.secagg
        assert cfg == SecAggConfig(1.0, 100.0, server.model.num_params, m, retry_cap=3)
        run_round(server, [0, 1, 2, 3])
        client_6 = server.seed.child("rounding", 1).child("client", 6)
        failing = {
            client_6.child("round-attempt", a).generator().random(cfg.padded_dim).tobytes()
            for a in range(3)
        }

        def failing_round(x, u, out, scratch=None):
            stochastic_round(x, u, out, scratch)
            if u.tobytes() in failing:
                out[0] = 1e9

        monkeypatch.setattr(secagg, "stochastic_round", failing_round)
        with pytest.raises(RoundingRetriesExhausted) as caught:
            run_round(server, [5, 6, 7, 4])
        assert str(caught.value) == (
            "round 1, client 6: stochastic rounding exceeded the norm bound 3 times "
            "(secagg.retry_cap)"
        )

    def test_clamp_fraction_counts_clamped_coordinates(self, monkeypatch):
        """The codec receives the round's first update replaced by one that
        the rotation maps onto a single coordinate (the inverse rotation of
        a spike: diag(signs) times a Hadamard row over sqrt(d)), past the
        derived L-infinity bound; the round's clamp fraction equals an
        independent recount over the deltas the codec received."""
        m = 4
        data = _data(population=8, vocab=16)
        server = _server(data, m=m, clip=1.0, seed=42, secagg_enabled=True, vocab=16)
        model_dim = server.model.num_params
        cfg = server.terms.secagg
        assert cfg == SecAggConfig(clip_norm=1.0, scale=100.0, model_dim=model_dim, cohort_size=m)
        padded_dim = cfg.padded_dim
        assert padded_dim == model_dim == 256
        rotation = hadamard(padded_dim) / math.sqrt(padded_dim)
        received = []
        add = SecAggRound.add

        def recording_add(self, deltas, client_ids):
            deltas = deltas.copy()
            if not received:
                deltas[0] = self.signs * rotation[5]
            received.extend((delta.copy(), self.signs.copy()) for delta in deltas)
            add(self, deltas, client_ids)

        monkeypatch.setattr(SecAggRound, "add", recording_add)
        metrics = run_round(server, list(range(m)))
        monkeypatch.undo()

        recount = 0
        for delta, signs in received:
            padded = np.zeros(padded_dim)
            padded[:model_dim] = clip_l2(delta * cfg.scale, cfg.scale * cfg.clip_norm)
            rotated = rotation @ (signs * padded)
            recount += int(np.count_nonzero(np.abs(rotated) > cfg.infinity_bound))
        assert len(received) == m
        assert metrics.secagg_clamp_fraction > 0
        assert metrics.secagg_clamp_fraction == recount / (m * padded_dim)


BLOCK_ADAPTIVE_CONFIG = """
seed = 5
rounds = 9
report_goal = 8
population = 48
timer_rounds = 3
noise_multiplier = 0.5
batch_size = 7
epochs = 2
model.vocab_size = 10
model.window = 2
data.examples_per_client = 30
data.eval_examples = 100
clip.mode = adaptive
clip.c0 = 0.4
restart.mode = explicit
restart.rounds = 3, 7
"""

BLOCK_SECAGG_CONFIG = """
seed = 3
rounds = 6
report_goal = 6
population = 30
timer_rounds = 4
noise_multiplier = 0.8
model.vocab_size = 8
data.examples_per_client = 10
data.eval_examples = 50
clip.mode = fixed
clip.c0 = 0.5
secagg.enabled = true
restart.mode = explicit
restart.rounds = 4
"""


class TestRoundBlocks:
    """run_round trains, sums and encodes the cohort in blocks of
    federation._BLOCK_BYTES; the block size must not reach the outputs."""

    @pytest.mark.parametrize(
        "text",
        [
            BLOCK_ADAPTIVE_CONFIG,
            BLOCK_ADAPTIVE_CONFIG.replace("clip.mode = adaptive", "clip.mode = fixed"),
            BLOCK_SECAGG_CONFIG,
        ],
        ids=["adaptive", "fixed", "secagg"],
    )
    def test_artifacts_do_not_depend_on_the_block_size(self, text, tmp_path, monkeypatch):
        """One-row blocks, three-row blocks (the last one ragged) and one
        whole-cohort block write the same bytes.  The adaptive config
        trains two epochs of ragged minibatches over two-token windows."""
        config = ExperimentConfig.from_text(text)
        row_bytes = 8 * config.vocab_size**2
        artifacts = ["metrics.csv", "checkpoint.bin"]
        if config.secagg_enabled:
            artifacts.append("secagg.csv")
        outputs = {}
        for rows in (1, 3, config.report_goal):
            monkeypatch.setattr(federation, "_BLOCK_BYTES", rows * row_bytes)
            out = tmp_path / f"rows{rows}"
            run_experiment(config, out)
            outputs[rows] = {name: (out / name).read_bytes() for name in artifacts}
        assert outputs[1] == outputs[config.report_goal]
        assert outputs[3] == outputs[config.report_goal]

    def test_round_memory_does_not_grow_with_the_cohort(self):
        """One round of 200 clients at V = 100 (d = 10^4) allocates at
        most a few blocks and model vectors at once, not the cohort's
        (200, d) deltas: 16 MB as one float64 array."""
        config = ExperimentConfig(population=400, report_goal=200, rounds=2)
        state = start_run(config)
        timers = np.zeros(config.population, dtype=np.int64)
        cohort_ids = select_cohort(timers, config, 0, SeedPath(0).child("s"))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            run_round(state, cohort_ids)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert elapsed < 1.0

    def test_secagg_round_builds_no_code_matrix(self):
        """One SecAgg round at the secagg_wide shape (d = 10^4 padded to
        16384, cohort 20, so two blocks of 13 and 7 clients) peaks above
        the state's steady arrays by less than the training block plus a
        dozen padded rows.  A (13, 16384) int64 array of the block's codes
        alone would be 13 padded rows."""
        config = ExperimentConfig(
            population=40,
            report_goal=20,
            rounds=2,
            clip_mode="fixed",
            clip_c0=1.0,
            secagg_enabled=True,
        )
        state = start_run(config)
        d = state.model.num_params
        padded_dim = state.terms.secagg.padded_dim
        assert (d, padded_dim) == (10_000, 16384)
        block_rows = federation._BLOCK_BYTES // (8 * d)
        assert block_rows == 13
        timers = np.zeros(config.population, dtype=np.int64)
        cohort_ids = select_cohort(timers, config, 0, SeedPath(0).child("s"))
        tracemalloc.start()
        try:
            steady, _ = tracemalloc.get_traced_memory()
            run_round(state, cohort_ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - steady < 8 * (block_rows * d + 12 * padded_dim)


@st.composite
def _tiny_runs(draw):
    """Tiny run configs over every wiring of the round: z in {0, 0.5, 3},
    fixed and adaptive clip, periodic, explicit and no restarts, SecAgg on
    (with a fixed clip) and off; population <= 60, rounds <= 48, V <= 8."""
    report_goal = draw(st.integers(1, 5))
    population = draw(st.integers(report_goal, 60))
    spare = (population - report_goal) // report_goal
    z = draw(st.sampled_from([0.0, 0.5, 3.0]))
    secagg_enabled = draw(st.booleans())
    clip_c0 = [0.05, 0.3, 1.0] + ([math.inf] if z == 0 and not secagg_enabled else [])
    restart_mode = draw(st.sampled_from(["periodic", "explicit", "none"]))
    restarts = {}
    if restart_mode == "periodic":
        restarts = dict(
            restart_first=draw(st.integers(1, 48)), restart_period=draw(st.integers(1, 16))
        )
    elif restart_mode == "explicit":
        rounds = draw(st.sets(st.integers(1, 50), max_size=5))
        restarts = dict(restart_rounds=tuple(sorted(rounds)))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**32)),
        rounds=draw(st.integers(1, 48)),
        report_goal=report_goal,
        population=population,
        timer_rounds=draw(st.integers(1, spare + 1)),
        noise_multiplier=z,
        availability_kind=draw(st.sampled_from(["uniform", "diurnal"])),
        eta_c=draw(st.sampled_from([0.1, 0.5])),
        eta_s=draw(st.sampled_from([0.5, 1.0])),
        beta=draw(st.sampled_from([0.0, 0.9])),
        batch_size=draw(st.integers(1, 8)),
        epochs=draw(st.integers(1, 2)),
        clip_mode="fixed" if secagg_enabled else draw(st.sampled_from(["fixed", "adaptive"])),
        clip_c0=draw(st.sampled_from(clip_c0)),
        clip_gamma=draw(st.sampled_from([0.2, 0.5, 0.9])),
        clip_eta_gamma=draw(st.sampled_from([0.0, 0.2, 1.0])),
        clip_sigma_b_fraction=2.0,  # 2 * sigma_b >= 4 > z at every report goal
        restart_mode=restart_mode,
        **restarts,
        vocab_size=draw(st.integers(2, 8)),
        window=draw(st.integers(1, 2)),
        examples_per_client=draw(st.integers(2, 12)),
        eval_examples=draw(st.integers(5, 40)),
        secagg_enabled=secagg_enabled,
    )


# Two runs that reach the wirings few random draws reach, pinned so that
# every run of the test checks them: an adaptive private run whose clip
# moves at its restarts, and a private SecAgg run.
_ADAPTIVE_RUN = """
seed = 7
rounds = 24
report_goal = 3
population = 30
timer_rounds = 4
noise_multiplier = 0.5
clip.mode = adaptive
clip.c0 = 0.3
clip.sigma_b_fraction = 2.0
restart.first = 5
restart.period = 6
model.vocab_size = 5
data.examples_per_client = 8
data.eval_examples = 20
"""

_SECAGG_RUN = """
seed = 8
rounds = 12
report_goal = 4
population = 24
timer_rounds = 3
noise_multiplier = 3.0
clip.mode = fixed
clip.c0 = 0.05
restart.mode = explicit
restart.rounds = 3, 8
model.vocab_size = 6
model.window = 2
data.examples_per_client = 6
data.eval_examples = 20
secagg.enabled = true
"""


class TestWholeRunReference:
    """A run's θ after every round and its metrics.csv equal a straight-line
    DP-FTRL reference (oracles.reference_run) built from the oracles of its
    pieces: the noise split, each tree's multiplier and clip across
    restarts, the count tree's restarts, SecAgg's decode into the tree and
    the division by report_goal."""

    @settings(max_examples=20, deadline=None)
    @example(ExperimentConfig.from_text(_ADAPTIVE_RUN))
    @example(ExperimentConfig.from_text(_SECAGG_RUN))
    # A clipped delta whose norm's last bit depends on the order its squares
    # are summed, and an eval accuracy that flips on θ's last bits: the
    # reference must clip with the run's own reduction.
    @example(
        ExperimentConfig(
            seed=2654435761,
            rounds=1,
            report_goal=2,
            population=35,
            noise_multiplier=0.0,
            timer_rounds=1,
            eta_c=0.5,
            eta_s=0.5,
            beta=0.0,
            batch_size=1,
            clip_mode="fixed",
            clip_c0=0.05,
            clip_gamma=0.2,
            clip_eta_gamma=0.0,
            clip_sigma_b_fraction=2.0,
            restart_mode="explicit",
            vocab_size=5,
            examples_per_client=2,
            eval_examples=21,
        )
    )
    @given(_tiny_runs())
    def test_run_matches_reference(self, config):
        state = start_run(config)
        thetas, rows = reference_run(config)
        for t, cohort_ids in enumerate(cohorts(config)):
            run_round(state, cohort_ids)
            np.testing.assert_allclose(state.theta, thetas[t], rtol=0, atol=1e-9)
        with tempfile.TemporaryDirectory() as out:
            run_experiment(config, out)
            metrics = read_metrics(out)
        # cumulative_zcdp is the accountant's, checked against its own oracles.
        for name in rows[0]:
            want = [row[name] for row in rows]
            np.testing.assert_allclose(metrics[name], want, rtol=0, atol=1e-12, err_msg=name)


@st.composite
def _participation_logs(draw):
    """(log, population): a participation log of 1 to 40 rounds, row t
    round t's cohort of report_goal distinct ids below population, from
    logs where no client repeats to crowded ones."""
    rounds = draw(st.integers(1, 40))
    report_goal = draw(st.integers(1, 4))
    if draw(st.booleans()):
        # One participation per client: the no-repeat convention.
        population = rounds * report_goal
        ids = draw(st.permutations(range(population)))
    else:
        population = draw(st.integers(report_goal, 12))
        cohort = st.permutations(range(population)).map(lambda p: p[:report_goal])
        ids = [i for _ in range(rounds) for i in draw(cohort)]
    return np.array(ids, dtype=np.int64).reshape(rounds, report_goal), population


class TestObservedLimits:
    """The harness sorts a run's participation log by client once
    (_by_client); the observed limits and participation.csv are read from
    that order."""

    @staticmethod
    def _limits(log, population):
        rounds, report_goal = log.shape
        config = _config(population, rounds=rounds, report_goal=report_goal, timer_rounds=1)
        schema = _observed_schema(config, *_by_client(log))
        return schema.max_part, schema.min_sep

    def test_repeating_participant(self):
        # Client 0 takes part in rounds 0, 5 and 8, every other client once.
        log = np.array([[0], [3], [1], [4], [5], [0], [6], [7], [0], [8]])
        assert self._limits(log, 9) == (3, 3)  # the 5 -> 8 gap

    def test_no_repeats_defaults_to_horizon(self):
        assert self._limits(np.arange(24).reshape(12, 2), 24) == (1, 12)

    @settings(max_examples=300, deadline=None)
    @given(_participation_logs())
    def test_matches_per_client_reference(self, drawn):
        """_by_client is the lexsort order of the round-major pairs, the
        limits read from it are the per-client reference's, and the
        participation.csv written from it is the one-string formula's."""
        log, population = drawn
        ids = log.ravel()
        rounds = np.repeat(np.arange(log.shape[0]), log.shape[1])
        order = np.lexsort((rounds, ids))
        client_ids, sorted_rounds = _by_client(log)
        np.testing.assert_array_equal(client_ids, ids[order])
        np.testing.assert_array_equal(sorted_rounds, rounds[order])
        got = self._limits(log, population)
        assert got == reference_limits(ids.tolist(), rounds.tolist(), log.shape[0])
        assert all(type(v) is int for v in got)
        text = "".join(_participation_text(client_ids, sorted_rounds))
        assert text == reference_participation_csv(ids, rounds)
