"""Tests for the modular secure-aggregation codec.

Pipeline per client: scale and clip, pad to a power of two, random rotation,
per-coordinate clamp, conditionally accepted stochastic rounding, shift to
non-negative integers. A SecAggRound adds each block's codes into its
running total of residues mod M, which it then decodes. The modulus is
derived so that a full cohort of in-range vectors can never wrap, making
the codec an exact integer transport up to rounding error.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from fpsim import RoundingRetriesExhausted
from fpsim.seeds import SeedPath, sign_vector
from fpsim import secagg
from fpsim._kernels import stochastic_round
from fpsim.secagg import ROUNDING_NORM_ALPHA, SecAggConfig, SecAggRound, _sum_fits_int64
from oracles import clip_l2, reference_encode, reference_fwht, rounded_norm_bound_sq


def _client_seed(seed, client):
    """The rounding seed of ``client`` in round 0 of a SecAggRound built
    from ``seed``."""
    return seed.child("rounding", 0).child("client", client)


def _round_signs(config, seed):
    """The rotation signs of round 0 of a SecAggRound built from ``seed``."""
    return sign_vector(seed.child("rotation", 0), config.padded_dim)


def _encode_one(delta, config, seed, client=0):
    """One client's codes and clamp count: the client added alone to round
    0, whose total then holds that client's codes."""
    secagg = SecAggRound(config, seed, 0)
    secagg.add(np.asarray(delta)[None, :], [client])
    return secagg.total, secagg.clamped


def _encode_total(deltas, config, seed, rows_per_call):
    """Round 0 with ``deltas`` (clients 0, 1, ...) added ``rows_per_call``
    rows per add call."""
    secagg = SecAggRound(config, seed, 0)
    for lo in range(0, deltas.shape[0], rows_per_call):
        hi = min(lo + rows_per_call, deltas.shape[0])
        secagg.add(deltas[lo:hi], range(lo, hi))
    return secagg


def _reference_total(deltas, config, signs, seeds):
    """The sum mod M of reference_encode's codes, and their clamp count."""
    total = np.zeros(config.padded_dim, dtype=np.int64)
    clamped = 0
    for delta, seed in zip(deltas, seeds):
        codes, row_clamped, _ = reference_encode(delta, config, signs, seed)
        total = (total + codes) % config.modulus
        clamped += row_clamped
    return total, clamped


class TestDeriveConfig:
    """SecAggConfig derives the encoding from the run's choices."""

    def test_derived_attributes_pinned(self):
        """Every derived attribute at the secagg_wide shape and at the
        golden SecAgg run's shape, compared with ==."""
        wide = SecAggConfig(1.0, 100.0, 10000, 20)
        assert (wide.padded_dim, wide.infinity_bound, wide.modulus) == (16384, 16, 641)
        assert wide.bits_per_update == 163840
        assert wide.norm_bound_sq == 14260.0
        assert wide.inflated_clip_norm == 1.1941524190822543
        golden = SecAggConfig(0.5, 100.0, 64, 6)
        assert (golden.padded_dim, golden.infinity_bound, golden.modulus) == (64, 52, 625)
        assert golden.bits_per_update == 640
        assert golden.norm_bound_sq == 2570.0
        assert golden.inflated_clip_norm == 0.5069516742254631

    def test_reference_parameters(self):
        """Frozen values for the documented example configuration."""
        cfg = SecAggConfig(5.0, 100.0, 1024, 10)
        assert cfg.infinity_bound == 217
        assert cfg.modulus == 4341
        assert cfg.padded_dim == 1024

    def test_tiny_configuration(self):
        cfg = SecAggConfig(1.0, 1.0, 4, 1)
        assert cfg.infinity_bound == 2
        assert cfg.modulus == 5

    def test_infinity_bound_closed_form(self):
        """infinity_bound = ceil(2 s C ln(d) / sqrt(d)) on the padded dim."""
        for c, s, d, m in [(5.0, 100.0, 1024, 10), (2.0, 37.0, 100, 7), (1.0, 8.0, 33, 3)]:
            cfg = SecAggConfig(c, s, d, m)
            dp = cfg.padded_dim
            expected = max(1, math.ceil(2 * s * c * math.log(dp) / math.sqrt(dp)))
            assert cfg.infinity_bound == expected

    def test_modulus_admits_full_cohort(self):
        """M = 2*bound*m + 1: m clients each contributing at most 2*bound
        (after the shift) sum to M - 1, one short of wrapping."""
        cfg = SecAggConfig(5.0, 100.0, 1024, 10)
        assert cfg.modulus == 2 * cfg.infinity_bound * cfg.cohort_size + 1

    def test_pads_dimension(self):
        """The padded width is the next power of two, and a power-of-two
        width is kept."""
        widths = ((1000, 1024), (5, 8), (1, 1), (2, 2), (256, 256), (257, 512))
        for model_dim, padded_dim in widths:
            assert SecAggConfig(1.0, 10.0, model_dim, 5).padded_dim == padded_dim

    def test_non_finite_bound_rejected(self):
        """An infinite clip norm or scale, or a product past the float
        range, has no L-infinity bound: a ValueError, not an OverflowError."""
        for clip_norm, scale, model_dim in (
            (math.inf, 1.0, 10),
            (1.0, math.inf, 10),
            (1e200, 1e200, 10),
            (math.inf, 1.0, 1),
        ):
            with pytest.raises(ValueError, match="finite"):
                SecAggConfig(clip_norm, scale, model_dim, 3)

    def test_config_validation(self):
        """The run's choices are validated; the derived attributes are not
        constructor arguments, so they cannot disagree with them."""
        for bad in ({"model_dim": 0}, {"cohort_size": 0}, {"clip_norm": 0.0}, {"scale": -1.0}):
            kwargs = {"clip_norm": 1.0, "scale": 10.0, "model_dim": 32, "cohort_size": 2, **bad}
            with pytest.raises(ValueError, match=next(iter(bad))):
                SecAggConfig(**kwargs)
        for derived in ("padded_dim", "infinity_bound", "modulus", "norm_bound_sq"):
            with pytest.raises(TypeError):
                SecAggConfig(1.0, 10.0, 32, 2, **{derived: 1})


class TestInflatedClipNorm:
    def test_reference_value(self):
        cfg = SecAggConfig(5.0, 100.0, 1024, 10)
        assert cfg.inflated_clip_norm == pytest.approx(5.00772, abs=1e-5)

    def test_closed_form(self):
        """sqrt((sC)^2 + d/4 + sqrt(2 ln(1/alpha)) (sC + sqrt(d)/2)) / s."""
        cfg = SecAggConfig(3.0, 50.0, 512, 8)
        sc = cfg.scale * cfg.clip_norm
        d = cfg.padded_dim
        bound = sc**2 + d / 4 + math.sqrt(2 * math.log(1 / ROUNDING_NORM_ALPHA)) * (
            sc + math.sqrt(d) / 2
        )
        assert cfg.inflated_clip_norm == pytest.approx(math.sqrt(bound) / cfg.scale, rel=1e-12)

    def test_decays_toward_clip_norm_as_scale_grows(self):
        """Rounding noise is one integer grid cell; a finer grid (larger s)
        makes the inflation vanish."""
        inflations = [
            SecAggConfig(5.0, s, 1024, 10).inflated_clip_norm for s in (10, 100, 1000, 10000)
        ]
        assert all(x > 5.0 for x in inflations)
        assert inflations == sorted(inflations, reverse=True)
        assert inflations[-1] == pytest.approx(5.0, abs=1e-3)


class TestRoundTrip:
    def test_sum_recovered_within_rounding_error(self):
        """decode(sum(encode(x_i))) approximates sum(clip(x_i)) with error
        at most m * sqrt(d) / s."""
        rng = np.random.default_rng(0)
        m, model_dim, s, c = 10, 1000, 100.0, 5.0
        cfg = SecAggConfig(c, s, model_dim, m)
        deltas = [rng.normal(size=model_dim) for _ in range(m)]
        out = _encode_total(np.stack(deltas), cfg, SeedPath(1), m).decode()
        want = np.sum([clip_l2(x, c) for x in deltas], axis=0)
        err = np.linalg.norm(out - want)
        assert err <= m * math.sqrt(cfg.padded_dim) / s

    def test_single_client_identity_at_high_scale(self):
        """With a very fine grid the codec is near-lossless."""
        rng = np.random.default_rng(1)
        model_dim = 64
        cfg = SecAggConfig(1.0, 1e6, model_dim, 1)
        x = rng.normal(size=model_dim)
        x = clip_l2(x, 1.0)
        out = _encode_total(x[None, :], cfg, SeedPath(2), 1).decode()
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_encoded_values_in_range(self):
        """Every residue lies in [0, 2*bound] — the invariant that makes the
        no-wraparound modulus argument work."""
        rng = np.random.default_rng(2)
        cfg = SecAggConfig(5.0, 100.0, 256, 10)
        for i in range(10):
            x = rng.normal(size=256) * rng.uniform(0.1, 10)
            enc, _ = _encode_one(x, cfg, SeedPath(3), i)
            assert enc.dtype == np.int64
            assert enc.min() >= 0
            assert enc.max() <= 2 * cfg.infinity_bound

    def test_cohort_sum_never_wraps(self):
        """The raw integer sum of a full cohort's codes stays below the
        modulus, so the block's modular total is that raw sum."""
        rng = np.random.default_rng(3)
        m = 10
        cfg = SecAggConfig(5.0, 100.0, 256, m)
        deltas = np.stack([rng.normal(size=256) * 5 for _ in range(m)])
        codes = [_encode_one(x, cfg, SeedPath(4), i)[0] for i, x in enumerate(deltas)]
        raw = np.sum(codes, axis=0)
        assert raw.max() < cfg.modulus
        np.testing.assert_array_equal(_encode_total(deltas, cfg, SeedPath(4), m).total, raw)

    def test_rounded_norm_bound_respected(self):
        """Accepted roundings satisfy the conditional-acceptance norm bound."""
        rng = np.random.default_rng(4)
        cfg = SecAggConfig(5.0, 100.0, 256, 10)
        bound = rounded_norm_bound_sq(cfg)
        for i in range(20):
            x = rng.normal(size=256) * rng.uniform(0.1, 10)
            enc, _ = _encode_one(x, cfg, SeedPath(5), i)
            unshifted = enc.astype(np.float64) - cfg.infinity_bound
            assert float(unshifted @ unshifted) <= bound

    def test_deterministic(self):
        cfg = SecAggConfig(2.0, 50.0, 128, 4)
        x = np.linspace(-1, 1, 128)
        a, a_clamped = _encode_one(x, cfg, SeedPath(6))
        b, b_clamped = _encode_one(x, cfg, SeedPath(6))
        np.testing.assert_array_equal(a, b)
        assert a_clamped == b_clamped


@st.composite
def _codec_cases(draw):
    """(config, clients, seed): a random model width, scale, clip norm and
    cohort, and 1 .. cohort_size client updates of random magnitude."""
    model_dim = draw(st.integers(1, 300))
    cohort_size = draw(st.integers(1, 8))
    config = SecAggConfig(
        draw(st.floats(0.05, 20.0)), draw(st.floats(0.5, 1e4)), model_dim, cohort_size
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    magnitude = draw(st.sampled_from([0.0, 1e-3, 1.0, 100.0]))
    clients = rng.normal(size=(draw(st.integers(1, cohort_size)), model_dim)) * magnitude
    return config, clients, seed


class TestCodecProperties:
    @settings(max_examples=80, deadline=None)
    @given(_codec_cases())
    def test_round_trip_bounds(self, case):
        """For any config and updates: every residue is in [0, 2 * bound],
        every accepted rounding is within the rounded-norm bound, and when
        no coordinate was clamped the decoded sum is within n * sqrt(d) / s
        of the clipped sum (each rounding moves a coordinate by less than
        1, and the rotation is orthogonal)."""
        config, clients, seed = case
        n, model_dim = clients.shape
        norm_bound_sq = rounded_norm_bound_sq(config)
        for i, delta in enumerate(clients):
            enc, _ = _encode_one(delta, config, SeedPath(seed), i)
            assert enc.min() >= 0
            assert enc.max() <= 2 * config.infinity_bound
            unshifted = enc.astype(np.float64) - config.infinity_bound
            assert float(unshifted @ unshifted) <= norm_bound_sq
        secagg = _encode_total(clients, config, SeedPath(seed), n)
        out = secagg.decode()
        if secagg.clamped == 0:
            want = np.sum([clip_l2(x, config.clip_norm) for x in clients], axis=0)
            err = float(np.linalg.norm(out - want))
            # The float rotation adds error at the 1e-12 level of the sum.
            slack = 1e-9 * (1.0 + float(np.linalg.norm(want)))
            assert err <= n * math.sqrt(config.padded_dim) / config.scale + slack

    @settings(max_examples=60, deadline=None)
    @given(_codec_cases())
    def test_streamed_total_does_not_depend_on_the_block_size(self, case):
        """The rows added one per call, three per call (the last call
        ragged) and all in one call give the same total and clamp count,
        and each total is the sum mod M of the reference pipeline's codes."""
        config, clients, seed = case
        n = clients.shape[0]
        signs = _round_signs(config, SeedPath(seed))
        seeds = [_client_seed(SeedPath(seed), i) for i in range(n)]
        want, want_clamped = _reference_total(clients, config, signs, seeds)
        for rows_per_call in (1, 3, n):
            secagg = _encode_total(clients, config, SeedPath(seed), rows_per_call)
            assert secagg.total.tobytes() == want.tobytes()
            assert (secagg.clients, secagg.clamped) == (n, want_clamped)


class TestClamping:
    def test_oversized_coordinates_clamped(self):
        """An update aligned with three Hadamard rows rotates onto three
        coordinates of 100 / sqrt(3), past the derived bound of 44; the
        residues still lie in range: the clamp runs before rounding."""
        cfg = SecAggConfig(clip_norm=100.0, scale=1.0, model_dim=1024, cohort_size=2)
        assert cfg.infinity_bound == 44
        signs = _round_signs(cfg, SeedPath(7))
        rows = hadamard(1024)
        x = signs * (rows[3] + rows[100] + rows[700]) * 5.0
        enc, clamped = _encode_one(x, cfg, SeedPath(7))
        assert enc.min() >= 0
        assert enc.max() <= 2 * cfg.infinity_bound
        # Independent recount: the rotation as an explicit matrix product.
        rotated = rows @ (signs * clip_l2(x, cfg.clip_norm)) / 32.0
        recount = int(np.count_nonzero(np.abs(rotated) > cfg.infinity_bound))
        assert recount == 3
        assert clamped == recount


class TestEncodeBytes:
    """SecAggRound.add works in place on one padded row per call; each
    row's output must be the bytes of the step-by-step pipeline on fresh
    arrays."""

    def test_secagg_wide_shape_matches_reference_pipeline(self, monkeypatch):
        """d = 10^4 padded to 16384, s = 100, clip norm 1: wide enough that a
        wrong butterfly level order would change the bytes of
        the row handed to stochastic rounding, which the test records.
        Updates below and above the clip norm, and one aligned with a
        Hadamard row so that the clamp cuts coordinates."""
        rounding_inputs = []

        def recording_round(x, u, out, scratch=None):
            rounding_inputs.append(x.tobytes())
            stochastic_round(x, u, out, scratch)

        monkeypatch.setattr(secagg, "stochastic_round", recording_round)
        cfg, signs, updates = self._secagg_wide_updates()
        clamps = []
        for index, delta in enumerate(updates):
            got, clamped = _encode_one(delta, cfg, SeedPath(12), index)
            seed = _client_seed(SeedPath(12), index)
            want, want_clamped, want_row = reference_encode(delta, cfg, signs, seed)
            assert rounding_inputs[-1] == want_row.tobytes()
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()
            assert clamped == want_clamped
            clamps.append(clamped)
        assert clamps[0] == 0 and clamps[2] > 0

    def test_multi_row_block_matches_reference_rows(self):
        """The three updates as one 3-row block: the total is the sum mod M
        of the reference pipeline's codes for their seeds, and the round's
        clamp count is the sum of the rows' clamp counts."""
        cfg, signs, updates = self._secagg_wide_updates()
        seeds = [_client_seed(SeedPath(12), index) for index in range(3)]
        secagg = _encode_total(np.stack(updates), cfg, SeedPath(12), 3)
        want, want_clamped = _reference_total(updates, cfg, signs, seeds)
        assert secagg.total.tobytes() == want.tobytes()
        assert secagg.clamped == want_clamped

    @staticmethod
    def _secagg_wide_updates():
        """The secagg_wide config (d = 10^4 padded to 16384, s = 100, clip
        norm 1, cohort 20), the signs of round 0 from SeedPath(12), and
        three updates: below and above the clip norm, and one aligned with
        a Hadamard row."""
        d = 10_000
        cfg = SecAggConfig(1.0, 100.0, d, 20)
        assert cfg.padded_dim == 16384
        signs = _round_signs(cfg, SeedPath(12))
        row = np.zeros(cfg.padded_dim)
        row[3] = 1.0
        reference_fwht(row)  # row 3 of the Sylvester Hadamard matrix
        rng = np.random.default_rng(12)
        updates = [
            rng.normal(size=d) * 0.005,
            rng.normal(size=d) * 0.05,
            signs[:d] * row[:d],
        ]
        return cfg, signs, updates

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_update_and_signs_still_checked(self):
        """The updates are checked to be finite, to stay finite when scaled
        and to be one model_dim row per client; a refused call leaves the
        round as it was.  The round's signs and rounding seeds are its
        seed's children at the round index."""
        cfg = SecAggConfig(1.0, 100.0, 64, 4)
        seed = SeedPath(13)
        with pytest.raises(ValueError, match="NaN or Inf"):
            _encode_one(np.full(64, np.nan), cfg, seed)
        huge = dataclasses.replace(cfg, scale=1e15)
        with pytest.raises(ValueError, match="NaN or Inf"):
            _encode_one(np.full(64, 1e300), huge, seed)  # the scaling overflows
        for width in (63, 65):
            with pytest.raises(ValueError, match="model_dim"):
                _encode_one(np.zeros(width), cfg, seed)
        secagg = SecAggRound(cfg, seed, 5)
        assert secagg.signs.tobytes() == sign_vector(seed.child("rotation", 5), 64).tobytes()
        assert secagg.rounding == seed.child("rounding", 5)
        with pytest.raises(ValueError, match="one row"):
            secagg.add(np.zeros((3, 64)), [0, 1])
        with pytest.raises(ValueError, match="one row"):
            secagg.add(np.zeros(64), [0])  # not a block
        assert (secagg.clients, secagg.clamped) == (0, 0) and not secagg.total.any()
        secagg.add(np.zeros((2, 64)), [0, 1])
        assert (secagg.clients, secagg.clamped) == (2, 0)


class TestFailureModes:
    def test_retry_cap_exhaustion(self):
        """With a one-attempt budget, a boundary-norm vector eventually hits a
        rounding draw that violates the norm bound (frozen failing client);
        the error names the round, the client and the config key, and the
        default budget of retries absorbs the same draw."""
        cfg = SecAggConfig(5.0, 100.0, 1024, 10)
        strict = dataclasses.replace(cfg, retry_cap=1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=1024)
        x = x / np.linalg.norm(x) * 5.0  # exactly at the clip boundary
        secagg = SecAggRound(strict, SeedPath(8), 0)
        with pytest.raises(RoundingRetriesExhausted) as caught:
            secagg.add(np.stack([x, x]), [0, 2])
        assert str(caught.value) == (
            "round 0, client 2: stochastic rounding exceeded the norm bound 1 times "
            "(secagg.retry_cap)"
        )
        assert (secagg.clients, secagg.clamped) == (0, 0) and not secagg.total.any()
        _encode_one(x, cfg, SeedPath(8), 2)  # default cap retries through it

    def test_retry_cap_validated(self):
        with pytest.raises(ValueError):
            SecAggConfig(5.0, 100.0, 64, 10, retry_cap=0)

    def test_retry_error_is_a_runtime_error(self):
        assert issubclass(RoundingRetriesExhausted, RuntimeError)

    def test_encode_block_checks_each_row_is_residues(self, monkeypatch):
        """A rounding that yields a code outside [0, M) is refused, naming
        the row, before the block reaches the total."""

        def escaping_round(x, u, out, scratch=None):
            out[...] = 0.0
            out[0] = -cfg.infinity_bound - 1.0  # shifts to the code -1

        # Wide enough that the escaping row still meets the norm bound.
        cfg = SecAggConfig(1.0, 10.0, 256, 2)
        assert (cfg.infinity_bound + 1) ** 2 <= cfg.norm_bound_sq
        round_ = SecAggRound(cfg, SeedPath(9), 0)
        monkeypatch.setattr(secagg, "stochastic_round", escaping_round)
        with pytest.raises(ValueError, match=rf"row 0 encodes outside \[0, {cfg.modulus}\)"):
            round_.add(np.zeros((1, 256)), [0])
        assert round_.clients == 0 and not round_.total.any()

    def test_encode_block_reduces_the_stacked_sum(self):
        """Seven rows folded into a total that starts at arbitrary residues:
        the result is that total plus the reference codes, mod M."""
        rng = np.random.default_rng(10)
        cfg = SecAggConfig(5.0, 100.0, 64, 7)
        signs = _round_signs(cfg, SeedPath(10))
        deltas = rng.normal(size=(7, 64))
        start = rng.integers(0, cfg.modulus, size=cfg.padded_dim)
        want = start.copy()
        for i, delta in enumerate(deltas):
            codes = reference_encode(delta, cfg, signs, _client_seed(SeedPath(10), i))[0]
            want = (want + codes) % cfg.modulus
        secagg = SecAggRound(cfg, SeedPath(10), 0)
        secagg.total[...] = start
        secagg.add(deltas, range(7))
        np.testing.assert_array_equal(secagg.total, want)
        assert (secagg.total < start).any()  # the fold wrapped

    def test_int64_overflow_bound_checked(self):
        """A modulus whose cohort sum cannot fit int64 is refused when the
        config is built, naming the scale key, instead of failing mid-run."""
        with pytest.raises(ValueError, match="secagg.s"):
            SecAggConfig(1.0, 1e19, 4096, 20)
        # The bound the config applies is exact: cohort_size * (modulus - 1) < 2**63.
        cohort, infinity_bound = 2, 2**60 - 1
        assert _sum_fits_int64(cohort, 2 * infinity_bound * cohort + 1)  # sums to 2**63 - 8
        assert not _sum_fits_int64(cohort, 2 * 2**60 * cohort + 1)  # sums to 2**63
        # A round admits at most the cohort_size clients the config checked:
        # a config of one client whose modulus is near 2**62, which three
        # rows would overflow, refuses a second client in one call or two.
        wide = SecAggConfig(1.0, 1.3e18, 4, 1)
        assert _sum_fits_int64(2, wide.modulus) and not _sum_fits_int64(3, wide.modulus)
        secagg = SecAggRound(wide, SeedPath(11), 0)
        with pytest.raises(ValueError, match="2 clients exceed the cohort size 1"):
            secagg.add(np.zeros((2, 4)), [0, 1])
        secagg.add(np.zeros((1, 4)), [0])
        with pytest.raises(ValueError, match="2 clients exceed the cohort size 1"):
            secagg.add(np.zeros((1, 4)), [1])
        assert secagg.clients == 1


class TestBitsPerUpdate:
    def test_bit_width_formula(self):
        cfg = SecAggConfig(5.0, 100.0, 1024, 10)
        assert cfg.bits_per_update == cfg.padded_dim * math.ceil(math.log2(cfg.modulus))

    def test_scale_controls_width(self):
        """A finer grid needs more bits per coordinate."""
        lo = SecAggConfig(5.0, 10.0, 1024, 10).bits_per_update
        hi = SecAggConfig(5.0, 1000.0, 1024, 10).bits_per_update
        assert hi > lo
