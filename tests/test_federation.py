"""Tests for cohort selection, local updates, and the server round loop.

The round loop's anchored momentum update is held to an exact reduction: at
zero noise with clipping disabled it must reproduce, parameter for
parameter, a plainly written federated-averaging-with-momentum loop that
shares only the client-update plumbing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from fpsim import (
    AvailabilityModel,
    CohortConfig,
    CohortExhausted,
    DataConfig,
    NextTokenBOW,
    RestartSchedule,
    SecAggConfig,
    SeedPath,
    ServerState,
    TrainingDiverged,
    client_update,
    clip_l2,
    derive_config,
    encode_client,
    init_tree,
    observed_limits,
    run_round,
    select_cohort,
    synthesize_clients,
)
from fpsim import federation
from fpsim.clipping import ClipState


def _datasets(population=20, vocab=8, examples=30, seed=0, window=1):
    cfg = DataConfig(
        vocab_size=vocab,
        window=window,
        examples_per_client=examples,
        heterogeneity=0.3,
        concentration=0.1,
        eval_examples=50,
    )
    return synthesize_clients(cfg, population, SeedPath(seed).child("data"))


def _population(datasets):
    """Fresh population arrays for select_cohort: (next_eligible, sizes)."""
    next_eligible = np.zeros(len(datasets), dtype=np.int64)
    return next_eligible, np.array([len(ds) for ds in datasets], dtype=np.int64)


def _server(z=0.0, clip=math.inf, m=4, beta=0.0, eta_s=1.0, seed=11, **kw):
    model = NextTokenBOW(vocab_size=8)
    theta0 = model.init_params()
    root = SeedPath(seed).child("run")
    return ServerState(
        model=model,
        theta0=theta0,
        eta_s=eta_s,
        beta=beta,
        report_goal=m,
        delta_tree=init_tree(z, clip, model.num_params, root.child("delta-tree")),
        clip=None,
        fixed_clip=clip,
        restart_schedule=RestartSchedule(()),
        seed=root,
        **kw,
    )


class TestAvailabilityModel:
    def test_uniform_weights_are_ones(self):
        w = AvailabilityModel().weights(np.arange(10), 3)
        np.testing.assert_array_equal(w, np.ones(10))

    def test_diurnal_weights_bounded(self):
        model = AvailabilityModel(kind="diurnal", period=24, amplitude=0.5)
        for r in range(48):
            w = model.weights(np.arange(100), r)
            assert w.min() >= 0.5 - 1e-12
            assert w.max() <= 1.5 + 1e-12

    def test_diurnal_phases_differ_across_clients(self):
        model = AvailabilityModel(kind="diurnal", period=24, amplitude=1.0)
        w = model.weights(np.arange(50), 0)
        assert np.std(w) > 0.1

    def test_diurnal_cycles_with_round(self):
        model = AvailabilityModel(kind="diurnal", period=10, amplitude=1.0)
        ids = np.arange(5)
        np.testing.assert_allclose(
            model.weights(ids, 0), model.weights(ids, 10), rtol=1e-9
        )
        assert not np.allclose(model.weights(ids, 0), model.weights(ids, 5))

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            AvailabilityModel(kind="weekly")


class TestSelectCohort:
    def test_returns_sorted_unique_ids(self):
        population = _population(_datasets())
        cfg = CohortConfig(report_goal=6, timer_rounds=3)
        ids = select_cohort(*population, cfg, 0, SeedPath(1).child("sel"))
        assert len(ids) == 6
        assert ids == sorted(set(ids))

    def test_timer_blocks_reselection(self):
        """A selected client is ineligible for exactly timer_rounds rounds."""
        population = _population(_datasets(population=8))
        cfg = CohortConfig(report_goal=4, timer_rounds=2)
        seed = SeedPath(2).child("sel")
        first = select_cohort(*population, cfg, 0, seed)
        second = select_cohort(*population, cfg, 1, seed)
        assert not set(first) & set(second)
        third = select_cohort(*population, cfg, 2, seed)  # round 0 picks are back
        assert set(third) <= set(first)

    def test_exhaustion_error(self):
        """The error names the round, the eligible count and the goal."""
        population = _population(_datasets(population=6))
        cfg = CohortConfig(report_goal=4, timer_rounds=5)
        seed = SeedPath(3).child("sel")
        select_cohort(*population, cfg, 0, seed)
        with pytest.raises(
            CohortExhausted,
            match=r"^population exhausted at round 1: 2 eligible clients for report_goal 4;",
        ):
            select_cohort(*population, cfg, 1, seed)

    def test_empty_dataset_clients_skipped(self):
        """Clients with no local data are replaced at selection time."""
        datasets = _datasets(population=10)
        datasets[3] = datasets[0].__class__(
            contexts=datasets[0].contexts[:0], labels=datasets[0].labels[:0]
        )
        population = _population(datasets)
        cfg = CohortConfig(report_goal=8, timer_rounds=1)
        for r in range(10):
            ids = select_cohort(*population, cfg, r, SeedPath(4).child("sel"))
            assert 3 not in ids

    def test_participation_log_updated(self):
        """Each pick's timer restarts at the round it reported in; the
        harness logs the returned ids as that round's row."""
        next_eligible, sizes = _population(_datasets(population=8))
        cfg = CohortConfig(report_goal=4, timer_rounds=1)
        seed = SeedPath(5).child("sel")
        for r in range(6):
            for cid in select_cohort(next_eligible, sizes, cfg, r, seed):
                assert next_eligible[cid] - cfg.timer_rounds == r

    def test_deterministic_in_seed_and_round(self):
        a = _population(_datasets(population=12))
        b = _population(_datasets(population=12))
        cfg = CohortConfig(report_goal=5, timer_rounds=2)
        for r in range(4):
            assert select_cohort(*a, cfg, r, SeedPath(6).child("s")) == select_cohort(
                *b, cfg, r, SeedPath(6).child("s")
            )

    def test_uniform_selection_is_balanced(self):
        """With uniform availability and no timer pressure every client is
        picked at close to the m/N rate."""
        population = _population(_datasets(population=30))
        cfg = CohortConfig(report_goal=6, timer_rounds=1)
        counts = np.zeros(30)
        rounds = 500
        for r in range(rounds):
            for cid in select_cohort(*population, cfg, r, SeedPath(7).child("s")):
                counts[cid] += 1
        expected = rounds * 6 / 30
        assert np.all(np.abs(counts - expected) < 5 * math.sqrt(expected))


class TestClientUpdate:
    def test_indicator_uses_unclipped_norm(self):
        datasets = _datasets(population=2)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        raw, _, _ = client_update(
            model, params, datasets[0], 0.5, math.inf, math.inf
        )
        norm = np.linalg.norm(raw)
        # Clip far below the raw norm; indicator still reflects the raw norm.
        _, ind_tight, _ = client_update(
            model, params, datasets[0], 0.5, norm / 10, norm / 2
        )
        assert ind_tight == 0
        _, ind_loose, _ = client_update(
            model, params, datasets[0], 0.5, norm / 10, norm * 2
        )
        assert ind_loose == 1

    def test_clipping_bounds_the_delta(self):
        datasets = _datasets(population=1)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        delta, _, _ = client_update(
            model, params, datasets[0], 2.0, 0.05, math.inf
        )
        assert np.linalg.norm(delta) <= 0.05 * (1 + 1e-12)

    def test_local_steps_reduce_local_loss(self):
        datasets = _datasets(population=1, examples=60)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        ds = datasets[0]
        delta, _, _ = client_update(model, params, ds, 0.5, math.inf, math.inf, epochs=3)
        before, _ = model.loss_grad(params, ds.contexts, ds.labels)
        after, _ = model.loss_grad(params + delta, ds.contexts, ds.labels)
        assert after < before

    def test_order_seed_determinism(self):
        datasets = _datasets(population=1, examples=40)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        seed = SeedPath(8).child("order")
        a = client_update(model, params, datasets[0], 0.5, 1.0, 1.0, 8, 2, seed)
        b = client_update(model, params, datasets[0], 0.5, 1.0, 1.0, 8, 2, seed)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1:] == b[1:]

    def test_validation(self):
        datasets = _datasets(population=1)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        with pytest.raises(ValueError):
            client_update(model, params, datasets[0], 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            client_update(model, params, datasets[0], 0.5, 1.0, 1.0, batch_size=0)


class TestRunRound:
    def test_cohort_size_enforced(self):
        datasets = _datasets()
        server = _server(m=4)
        with pytest.raises(ValueError):
            run_round(server, [0, 1, 2], datasets)

    def test_single_round_zero_noise_identity(self):
        """theta after one round is exactly theta0 + eta_s * mean client delta."""
        datasets = _datasets()
        server = _server(m=4, eta_s=0.7)
        cohort_ids = [0, 1, 2, 3]
        deltas = [
            client_update(
                server.model,
                server.theta0,
                datasets[i],
                server.eta_c,
                math.inf,
                math.inf,
                server.batch_size,
                server.epochs,
                server.seed.child("local-order", 0).child("client", i),
            )[0]
            for i in cohort_ids
        ]
        run_round(server, cohort_ids, datasets)
        expected = server.theta0 + 0.7 * np.sum(deltas, axis=0) / 4
        np.testing.assert_allclose(server.theta, expected, rtol=0, atol=1e-12)

    def test_matches_reference_fedavgm_loop(self):
        """Exact reduction: zero noise + unbounded clip == plain FedAvgM.

        The reference below implements the textbook recursion
            momentum <- beta * momentum + mean_delta
            theta    <- theta + eta_s * momentum
        and must agree with the anchored cumulative form to float precision.
        """
        m, beta, eta_s, rounds = 4, 0.9, 0.5, 20
        datasets = _datasets(population=16)
        population = _population(datasets)
        server = _server(m=m, beta=beta, eta_s=eta_s, seed=21)
        sel_cfg = CohortConfig(report_goal=m, timer_rounds=2)
        sel_seed = server.seed.child("selection")

        twins = _datasets(population=16)
        twin_population = _population(twins)
        theta = server.theta0.copy()
        velocity = np.zeros_like(theta)

        for t in range(rounds):
            cohort_ids = select_cohort(*population, sel_cfg, t, sel_seed)
            run_round(server, cohort_ids, datasets)

            twin_ids = select_cohort(*twin_population, sel_cfg, t, sel_seed)
            assert twin_ids == cohort_ids
            deltas = [
                client_update(
                    server.model,
                    theta,
                    twins[i],
                    server.eta_c,
                    math.inf,
                    math.inf,
                    server.batch_size,
                    server.epochs,
                    server.seed.child("local-order", t).child("client", i),
                )[0]
                for i in twin_ids
            ]
            velocity = beta * velocity + np.mean(deltas, axis=0)
            theta = theta + eta_s * velocity
            np.testing.assert_allclose(server.theta, theta, rtol=0, atol=1e-11)

    def test_adaptive_clip_state_advances(self):
        datasets = _datasets()
        root = SeedPath(30).child("run")
        model = NextTokenBOW(vocab_size=8)
        clip = ClipState(
            initial_estimate=0.5,
            target_quantile=0.5,
            learning_rate=0.2,
            sigma_b=0.0,
            cohort_size=4,
            seed=root.child("clip"),
        )
        server = ServerState(
            model=model,
            theta0=model.init_params(),
            eta_s=1.0,
            beta=0.0,
            report_goal=4,
            delta_tree=init_tree(0.0, 0.5, model.num_params, root.child("delta-tree")),
            clip=clip,
            fixed_clip=0.5,
            restart_schedule=RestartSchedule((2,)),
            seed=root,
        )
        run_round(server, [0, 1, 2, 3], datasets)
        assert clip.rounds_seen == 1
        assert server.active_clip == 0.5  # not yet activated
        run_round(server, [4, 5, 6, 7], datasets)
        # Round 2 is a restart boundary: the estimate became the active norm
        # and the tree opened a new segment.
        assert server.active_clip == clip.estimate
        assert server.delta_tree.segment_index == 1

    def test_divergence_detected(self):
        """A noise multiplier so large its Gaussian draws overflow float64
        must stop the run with the divergence diagnostic, not march on with
        non-finite parameters."""
        datasets = _datasets()
        server = _server(m=4, z=1e308, clip=1.0, seed=50)
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
            for t in range(4):
                run_round(server, [0, 1, 2, 3], datasets)

    def test_metrics_fields(self):
        datasets = _datasets()
        server = _server(m=4)
        metrics = run_round(server, [0, 1, 2, 3], datasets)
        assert metrics.round == 0
        assert metrics.cohort_size == 4
        assert math.isfinite(metrics.train_loss)
        assert metrics.bits_per_update == 0
        assert metrics.secagg_residual == 0.0


class TestSecureAggregationRound:
    def test_round_with_codec_close_to_plain(self):
        """Running the same round with and without the integer codec agrees
        to the codec's rounding tolerance."""
        m = 4
        datasets = _datasets(population=8)
        plain = _server(m=m, clip=1.0, seed=40)
        model_dim = plain.model.num_params
        cfg = derive_config(1.0, 100.0, model_dim, m)
        coded = _server(m=m, clip=1.0, seed=40, secagg=cfg)
        cohort_ids = list(range(m))
        metrics_plain = run_round(plain, cohort_ids, datasets)
        twins = _datasets(population=8)
        metrics_coded = run_round(coded, cohort_ids, twins)
        assert np.linalg.norm(plain.theta - coded.theta) <= m * math.sqrt(cfg.padded_dim) / 100.0
        assert metrics_coded.bits_per_update > 0
        assert metrics_coded.secagg_residual <= m * math.sqrt(cfg.padded_dim) / 100.0
        assert 0.0 <= metrics_coded.secagg_clamp_fraction <= 1.0
        assert metrics_plain.bits_per_update == 0

    def test_clamp_fraction_counts_clamped_coordinates(self, monkeypatch):
        """A hand-built config with infinity_bound 1 clamps many rotated
        coordinates; the round's clamp fraction equals an independent
        recount over the deltas the codec received."""
        m = 4
        datasets = _datasets(population=8)
        model_dim = NextTokenBOW(vocab_size=8).num_params
        padded_dim = 1 << (model_dim - 1).bit_length()
        cfg = SecAggConfig(
            clip_norm=1.0,
            scale=100.0,
            padded_dim=padded_dim,
            cohort_size=m,
            infinity_bound=1,
            modulus=2 * m + 1,
        )
        server = _server(m=m, clip=1.0, seed=42, secagg=cfg)
        received = []

        def recording_encode(delta, config, signs, seed):
            received.append((delta.copy(), signs.copy()))
            return encode_client(delta, config, signs, seed)

        monkeypatch.setattr(federation, "encode_client", recording_encode)
        metrics = run_round(server, list(range(m)), datasets)
        monkeypatch.undo()

        rotation = hadamard(padded_dim) / math.sqrt(padded_dim)
        recount = 0
        for delta, signs in received:
            padded = np.zeros(padded_dim)
            padded[:model_dim] = clip_l2(delta * cfg.scale, cfg.scale * cfg.clip_norm)
            rotated = rotation @ (signs * padded)
            recount += int(np.count_nonzero(np.abs(rotated) > cfg.infinity_bound))
        assert len(received) == m
        assert metrics.secagg_clamp_fraction > 0
        assert metrics.secagg_clamp_fraction == recount / (m * padded_dim)

    def test_secagg_requires_fixed_clip(self):
        datasets = _datasets()
        root = SeedPath(41).child("run")
        model = NextTokenBOW(vocab_size=8)
        cfg = derive_config(1.0, 100.0, model.num_params, 4)
        clip = ClipState(
            initial_estimate=1.0,
            target_quantile=0.5,
            learning_rate=0.2,
            sigma_b=0.0,
            cohort_size=4,
            seed=root.child("clip"),
        )
        with pytest.raises(ValueError):
            ServerState(
                model=model,
                theta0=model.init_params(),
                eta_s=1.0,
                beta=0.0,
                report_goal=4,
                delta_tree=init_tree(0.0, 1.0, model.num_params, root.child("t")),
                clip=clip,
                fixed_clip=1.0,
                restart_schedule=RestartSchedule(()),
                seed=root,
                secagg=cfg,
            )

    def test_secagg_cohort_size_must_match_report_goal(self):
        cfg = derive_config(1.0, 100.0, 64, 5)  # cohort 5 != report goal 4
        with pytest.raises(ValueError):
            _server(m=4, clip=1.0, secagg=cfg)


def _reference_limits(client_ids, rounds, total_rounds):
    """Per-client sort-and-gap: group the pairs by client, sort each
    client's rounds, and take the largest count and the smallest gap."""
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


@st.composite
def _participation_logs(draw):
    """(client_ids, rounds, total_rounds): distinct pairs in shuffled order,
    from empty logs and logs with no repeats to crowded ones."""
    total_rounds = draw(st.integers(1, 40))
    population = draw(st.integers(1, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, population - 1), st.integers(0, total_rounds - 1)),
            unique=True,
            max_size=60,
        )
    )
    if draw(st.booleans()):
        # One participation per client: the no-repeat convention.
        pairs = list({client_id: (client_id, r) for client_id, r in pairs}.values())
    client_ids = [client_id for client_id, _ in pairs]
    rounds = [r for _, r in pairs]
    return client_ids, rounds, total_rounds


class TestObservedLimits:
    def test_repeating_participant(self):
        max_part, min_sep = observed_limits([0, 0, 0, 1], [0, 5, 8, 2], total_rounds=10)
        assert max_part == 3
        assert min_sep == 3  # the 5 -> 8 gap

    def test_no_repeats_defaults_to_horizon(self):
        max_part, min_sep = observed_limits([0, 1], [1, 4], total_rounds=12)
        assert max_part == 1
        assert min_sep == 12

    @settings(max_examples=300, deadline=None)
    @given(_participation_logs())
    def test_matches_per_client_reference(self, log):
        client_ids, rounds, total_rounds = log
        got = observed_limits(
            np.array(client_ids, dtype=np.int64), np.array(rounds, dtype=np.int64), total_rounds
        )
        assert got == _reference_limits(client_ids, rounds, total_rounds)
        assert all(type(v) is int for v in got)
