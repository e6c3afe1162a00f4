"""Tests for cohort selection, local updates, and the server round loop.

The round loop's anchored momentum update is held to an exact reduction: at
zero noise with clipping disabled it must reproduce, parameter for
parameter, a plainly written federated-averaging-with-momentum loop that
shares only the client-update plumbing.
"""

import math

import numpy as np
import pytest
from scipy.linalg import hadamard

from fpsim import (
    AvailabilityModel,
    ClientRecord,
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


def _records(population=20, vocab=8, examples=30, seed=0, window=1):
    cfg = DataConfig(
        vocab_size=vocab,
        window=window,
        examples_per_client=examples,
        heterogeneity=0.3,
        concentration=0.1,
        eval_examples=50,
    )
    datasets = synthesize_clients(cfg, population, SeedPath(seed).child("data"))
    return [ClientRecord(id=i, dataset=ds) for i, ds in enumerate(datasets)]


def _server(records, z=0.0, clip=math.inf, m=4, beta=0.0, eta_s=1.0, seed=11, **kw):
    model = NextTokenBOW(vocab_size=records[0].dataset.contexts.max() + 1)
    # Use the model vocab implied by the data config instead: rebuild cleanly.
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
        records = _records()
        cfg = CohortConfig(population=20, report_goal=6, timer_rounds=3)
        ids = select_cohort(records, cfg, 0, SeedPath(1).child("sel"))
        assert len(ids) == 6
        assert ids == sorted(set(ids))

    def test_timer_blocks_reselection(self):
        """A selected client is ineligible for exactly timer_rounds rounds."""
        records = _records(population=8)
        cfg = CohortConfig(population=8, report_goal=4, timer_rounds=2)
        seed = SeedPath(2).child("sel")
        first = select_cohort(records, cfg, 0, seed)
        second = select_cohort(records, cfg, 1, seed)
        assert not set(first) & set(second)
        third = select_cohort(records, cfg, 2, seed)  # round 0 picks are back
        assert set(third) <= set(first)

    def test_exhaustion_error(self):
        records = _records(population=6)
        cfg = CohortConfig(population=6, report_goal=4, timer_rounds=5)
        seed = SeedPath(3).child("sel")
        select_cohort(records, cfg, 0, seed)
        with pytest.raises(CohortExhausted, match="population exhausted"):
            select_cohort(records, cfg, 1, seed)

    def test_empty_dataset_clients_skipped(self):
        """Clients with no local data are replaced at selection time."""
        records = _records(population=10)
        empty = records[0].dataset.__class__(
            contexts=records[0].dataset.contexts[:0], labels=records[0].dataset.labels[:0]
        )
        records[3] = ClientRecord(id=3, dataset=empty)
        cfg = CohortConfig(population=10, report_goal=8, timer_rounds=1)
        for r in range(10):
            ids = select_cohort(records, cfg, r, SeedPath(4).child("sel"))
            assert 3 not in ids

    def test_participation_log_updated(self):
        records = _records(population=8)
        cfg = CohortConfig(population=8, report_goal=4, timer_rounds=1)
        seed = SeedPath(5).child("sel")
        for r in range(6):
            for cid in select_cohort(records, cfg, r, seed):
                assert records[cid].participation_rounds[-1] == r

    def test_deterministic_in_seed_and_round(self):
        a = _records(population=12)
        b = _records(population=12)
        cfg = CohortConfig(population=12, report_goal=5, timer_rounds=2)
        for r in range(4):
            assert select_cohort(a, cfg, r, SeedPath(6).child("s")) == select_cohort(
                b, cfg, r, SeedPath(6).child("s")
            )

    def test_uniform_selection_is_balanced(self):
        """With uniform availability and no timer pressure every client is
        picked at close to the m/N rate."""
        records = _records(population=30)
        cfg = CohortConfig(population=30, report_goal=6, timer_rounds=1)
        counts = np.zeros(30)
        rounds = 500
        for r in range(rounds):
            for cid in select_cohort(records, cfg, r, SeedPath(7).child("s")):
                counts[cid] += 1
        expected = rounds * 6 / 30
        assert np.all(np.abs(counts - expected) < 5 * math.sqrt(expected))


class TestClientUpdate:
    def test_indicator_uses_unclipped_norm(self):
        records = _records(population=2)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        raw, _, _ = client_update(
            model, params, records[0].dataset, 0.5, math.inf, math.inf
        )
        norm = np.linalg.norm(raw)
        # Clip far below the raw norm; indicator still reflects the raw norm.
        _, ind_tight, _ = client_update(
            model, params, records[0].dataset, 0.5, norm / 10, norm / 2
        )
        assert ind_tight == 0
        _, ind_loose, _ = client_update(
            model, params, records[0].dataset, 0.5, norm / 10, norm * 2
        )
        assert ind_loose == 1

    def test_clipping_bounds_the_delta(self):
        records = _records(population=1)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        delta, _, _ = client_update(
            model, params, records[0].dataset, 2.0, 0.05, math.inf
        )
        assert np.linalg.norm(delta) <= 0.05 * (1 + 1e-12)

    def test_local_steps_reduce_local_loss(self):
        records = _records(population=1, examples=60)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        ds = records[0].dataset
        delta, _, _ = client_update(model, params, ds, 0.5, math.inf, math.inf, epochs=3)
        before, _ = model.loss_grad(params, ds.contexts, ds.labels)
        after, _ = model.loss_grad(params + delta, ds.contexts, ds.labels)
        assert after < before

    def test_order_seed_determinism(self):
        records = _records(population=1, examples=40)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        seed = SeedPath(8).child("order")
        a = client_update(model, params, records[0].dataset, 0.5, 1.0, 1.0, 8, 2, seed)
        b = client_update(model, params, records[0].dataset, 0.5, 1.0, 1.0, 8, 2, seed)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1:] == b[1:]

    def test_validation(self):
        records = _records(population=1)
        model = NextTokenBOW(vocab_size=8)
        params = model.init_params()
        with pytest.raises(ValueError):
            client_update(model, params, records[0].dataset, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            client_update(model, params, records[0].dataset, 0.5, 1.0, 1.0, batch_size=0)


class TestRunRound:
    def test_cohort_size_enforced(self):
        records = _records()
        server = _server(records, m=4)
        with pytest.raises(ValueError):
            run_round(server, records[:3])

    def test_single_round_zero_noise_identity(self):
        """theta after one round is exactly theta0 + eta_s * mean client delta."""
        records = _records()
        server = _server(records, m=4, eta_s=0.7)
        cohort = records[:4]
        deltas = [
            client_update(
                server.model,
                server.theta0,
                rec.dataset,
                server.eta_c,
                math.inf,
                math.inf,
                server.batch_size,
                server.epochs,
                server.seed.child("local-order", 0).child("client", rec.id),
            )[0]
            for rec in cohort
        ]
        run_round(server, cohort)
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
        records = _records(population=16)
        server = _server(records, m=m, beta=beta, eta_s=eta_s, seed=21)
        sel_cfg = CohortConfig(population=16, report_goal=m, timer_rounds=2)
        sel_seed = server.seed.child("selection")

        twins = _records(population=16)
        theta = server.theta0.copy()
        velocity = np.zeros_like(theta)

        for t in range(rounds):
            cohort_ids = select_cohort(records, sel_cfg, t, sel_seed)
            run_round(server, [records[i] for i in cohort_ids])

            twin_ids = select_cohort(twins, sel_cfg, t, sel_seed)
            assert twin_ids == cohort_ids
            deltas = [
                client_update(
                    server.model,
                    theta,
                    twins[i].dataset,
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
        records = _records()
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
        run_round(server, records[:4])
        assert clip.rounds_seen == 1
        assert server.active_clip == 0.5  # not yet activated
        run_round(server, records[4:8])
        # Round 2 is a restart boundary: the estimate became the active norm
        # and the tree opened a new segment.
        assert server.active_clip == clip.estimate
        assert server.delta_tree.segment_index == 1

    def test_divergence_detected(self):
        """A noise multiplier so large its Gaussian draws overflow float64
        must stop the run with the divergence diagnostic, not march on with
        non-finite parameters."""
        records = _records()
        server = _server(records, m=4, z=1e308, clip=1.0, seed=50)
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
            for t in range(4):
                run_round(server, records[:4])

    def test_metrics_fields(self):
        records = _records()
        server = _server(records, m=4)
        metrics = run_round(server, records[:4])
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
        records = _records(population=8)
        plain = _server(records, m=m, clip=1.0, seed=40)
        model_dim = plain.model.num_params
        cfg = derive_config(1.0, 100.0, model_dim, m)
        coded = _server(_records(population=8), m=m, clip=1.0, seed=40, secagg=cfg)
        cohort_ids = list(range(m))
        metrics_plain = run_round(plain, [r for r in records if r.id in cohort_ids])
        twins = _records(population=8)
        metrics_coded = run_round(coded, [r for r in twins if r.id in cohort_ids])
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
        records = _records(population=8)
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
        server = _server(records, m=m, clip=1.0, seed=42, secagg=cfg)
        received = []

        def recording_encode(delta, config, signs, seed):
            received.append((delta.copy(), signs.copy()))
            return encode_client(delta, config, signs, seed)

        monkeypatch.setattr(federation, "encode_client", recording_encode)
        metrics = run_round(server, records[:m])
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
        records = _records()
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
        records = _records()
        cfg = derive_config(1.0, 100.0, 64, 5)  # cohort 5 != report goal 4
        with pytest.raises(ValueError):
            _server(records, m=4, clip=1.0, secagg=cfg)


class TestObservedLimits:
    def test_repeating_participant(self):
        max_part, min_sep = observed_limits([[0, 5, 8], [2], []], total_rounds=10)
        assert max_part == 3
        assert min_sep == 3  # the 5 -> 8 gap

    def test_no_repeats_defaults_to_horizon(self):
        max_part, min_sep = observed_limits([[1], [4], []], total_rounds=12)
        assert max_part == 1
        assert min_sep == 12
