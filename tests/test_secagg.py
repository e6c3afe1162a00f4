"""Tests for the modular secure-aggregation codec.

Pipeline per client: scale and clip, pad to a power of two, random rotation,
per-coordinate clamp, conditionally accepted stochastic rounding, shift to
non-negative integers. The server sums residues mod M and decodes. The
modulus is derived so that a full cohort of in-range vectors can never wrap,
making the codec an exact integer transport up to rounding error.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from fpsim import (
    RoundingRetriesExhausted,
    SecAggConfig,
    SeedPath,
    bits_per_update,
    clip_l2,
    decode,
    derive_config,
    encode_client,
    inflated_clip_norm,
    modular_sum,
    sign_vector,
)
from fpsim import secagg
from fpsim._kernels import stochastic_round
from fpsim.secagg import ROUNDING_NORM_ALPHA, _rounded_norm_bound_sq
from oracles import reference_encode, reference_fwht


class TestDeriveConfig:
    def test_reference_parameters(self):
        """Frozen values for the documented example configuration."""
        cfg = derive_config(5.0, 100.0, 1024, 10)
        assert cfg.infinity_bound == 217
        assert cfg.modulus == 4341
        assert cfg.padded_dim == 1024

    def test_tiny_configuration(self):
        cfg = derive_config(1.0, 1.0, 4, 1)
        assert cfg.infinity_bound == 2
        assert cfg.modulus == 5

    def test_infinity_bound_closed_form(self):
        """infinity_bound = ceil(2 s C ln(d) / sqrt(d)) on the padded dim."""
        for c, s, d, m in [(5.0, 100.0, 1024, 10), (2.0, 37.0, 100, 7), (1.0, 8.0, 33, 3)]:
            cfg = derive_config(c, s, d, m)
            dp = cfg.padded_dim
            expected = max(1, math.ceil(2 * s * c * math.log(dp) / math.sqrt(dp)))
            assert cfg.infinity_bound == expected

    def test_modulus_admits_full_cohort(self):
        """M = 2*bound*m + 1: m clients each contributing at most 2*bound
        (after the shift) sum to M - 1, one short of wrapping."""
        cfg = derive_config(5.0, 100.0, 1024, 10)
        assert cfg.modulus == 2 * cfg.infinity_bound * cfg.cohort_size + 1

    def test_pads_dimension(self):
        """The padded width is the next power of two, and a power-of-two
        width is kept."""
        widths = ((1000, 1024), (5, 8), (1, 1), (2, 2), (256, 256), (257, 512))
        for model_dim, padded_dim in widths:
            assert derive_config(1.0, 10.0, model_dim, 5).padded_dim == padded_dim

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
                derive_config(clip_norm, scale, model_dim, 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SecAggConfig(
                clip_norm=1.0,
                scale=10.0,
                padded_dim=24,  # not a power of two
                cohort_size=2,
                infinity_bound=5,
                modulus=21,
            )
        with pytest.raises(ValueError):
            SecAggConfig(
                clip_norm=1.0,
                scale=10.0,
                padded_dim=32,
                cohort_size=2,
                infinity_bound=5,
                modulus=20,  # inconsistent with bound and cohort
            )


class TestInflatedClipNorm:
    def test_reference_value(self):
        cfg = derive_config(5.0, 100.0, 1024, 10)
        assert inflated_clip_norm(cfg) == pytest.approx(5.00772, abs=1e-5)

    def test_closed_form(self):
        """sqrt((sC)^2 + d/4 + sqrt(2 ln(1/alpha)) (sC + sqrt(d)/2)) / s."""
        cfg = derive_config(3.0, 50.0, 512, 8)
        sc = cfg.scale * cfg.clip_norm
        d = cfg.padded_dim
        bound = sc**2 + d / 4 + math.sqrt(2 * math.log(1 / ROUNDING_NORM_ALPHA)) * (
            sc + math.sqrt(d) / 2
        )
        assert inflated_clip_norm(cfg) == pytest.approx(math.sqrt(bound) / cfg.scale, rel=1e-12)

    def test_decays_toward_clip_norm_as_scale_grows(self):
        """Rounding noise is one integer grid cell; a finer grid (larger s)
        makes the inflation vanish."""
        inflations = [
            inflated_clip_norm(derive_config(5.0, s, 1024, 10)) for s in (10, 100, 1000, 10000)
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
        cfg = derive_config(c, s, model_dim, m)
        signs = sign_vector(SeedPath(1).child("rot"), cfg.padded_dim)
        deltas = [rng.normal(size=model_dim) for _ in range(m)]
        encoded = [
            encode_client(x, cfg, signs, SeedPath(1).child("round").child("client", i))[0]
            for i, x in enumerate(deltas)
        ]
        total = modular_sum(encoded, cfg.modulus)
        out = decode(total, cfg, signs, n_clients=m, model_dim=model_dim)
        want = np.sum([clip_l2(x, c) for x in deltas], axis=0)
        err = np.linalg.norm(out - want)
        assert err <= m * math.sqrt(cfg.padded_dim) / s

    def test_single_client_identity_at_high_scale(self):
        """With a very fine grid the codec is near-lossless."""
        rng = np.random.default_rng(1)
        model_dim = 64
        cfg = derive_config(1.0, 1e6, model_dim, 1)
        signs = sign_vector(SeedPath(2).child("rot"), cfg.padded_dim)
        x = rng.normal(size=model_dim)
        x = clip_l2(x, 1.0)
        enc, _ = encode_client(x, cfg, signs, SeedPath(2).child("c"))
        out = decode(enc.copy(), cfg, signs, n_clients=1, model_dim=model_dim)
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_encoded_values_in_range(self):
        """Every residue lies in [0, 2*bound] — the invariant that makes the
        no-wraparound modulus argument work."""
        rng = np.random.default_rng(2)
        cfg = derive_config(5.0, 100.0, 256, 10)
        signs = sign_vector(SeedPath(3).child("rot"), cfg.padded_dim)
        for i in range(10):
            x = rng.normal(size=256) * rng.uniform(0.1, 10)
            enc, _ = encode_client(x, cfg, signs, SeedPath(3).child("c", i))
            assert enc.dtype == np.int64
            assert enc.min() >= 0
            assert enc.max() <= 2 * cfg.infinity_bound

    def test_cohort_sum_never_wraps(self):
        """The raw integer sum of a full cohort stays below the modulus."""
        rng = np.random.default_rng(3)
        m = 10
        cfg = derive_config(5.0, 100.0, 256, m)
        signs = sign_vector(SeedPath(4).child("rot"), cfg.padded_dim)
        encoded = [
            encode_client(rng.normal(size=256) * 5, cfg, signs, SeedPath(4).child("c", i))[0]
            for i in range(m)
        ]
        raw = np.sum(np.stack(encoded).astype(np.int64), axis=0)
        assert raw.max() < cfg.modulus

    def test_rounded_norm_bound_respected(self):
        """Accepted roundings satisfy the conditional-acceptance norm bound."""
        rng = np.random.default_rng(4)
        cfg = derive_config(5.0, 100.0, 256, 10)
        signs = sign_vector(SeedPath(5).child("rot"), cfg.padded_dim)
        bound = _rounded_norm_bound_sq(cfg)
        for i in range(20):
            x = rng.normal(size=256) * rng.uniform(0.1, 10)
            enc, _ = encode_client(x, cfg, signs, SeedPath(5).child("c", i))
            unshifted = enc.astype(np.float64) - cfg.infinity_bound
            assert float(unshifted @ unshifted) <= bound

    def test_deterministic(self):
        cfg = derive_config(2.0, 50.0, 128, 4)
        signs = sign_vector(SeedPath(6).child("rot"), cfg.padded_dim)
        x = np.linspace(-1, 1, 128)
        a, a_clamped = encode_client(x, cfg, signs, SeedPath(6).child("c"))
        b, b_clamped = encode_client(x, cfg, signs, SeedPath(6).child("c"))
        np.testing.assert_array_equal(a, b)
        assert a_clamped == b_clamped


@st.composite
def _codec_cases(draw):
    """(config, clients, seed): a random model width, scale, clip norm and
    cohort, and 1 .. cohort_size client updates of random magnitude."""
    model_dim = draw(st.integers(1, 300))
    cohort_size = draw(st.integers(1, 8))
    config = derive_config(
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
        signs = sign_vector(SeedPath(seed).child("rot"), config.padded_dim)
        norm_bound_sq = _rounded_norm_bound_sq(config)
        encoded, clamped = [], 0
        for i, x in enumerate(clients):
            enc, count = encode_client(x, config, signs, SeedPath(seed).child("c", i))
            assert enc.dtype == np.int64
            assert enc.min() >= 0
            assert enc.max() <= 2 * config.infinity_bound
            unshifted = enc.astype(np.float64) - config.infinity_bound
            assert float(unshifted @ unshifted) <= norm_bound_sq
            encoded.append(enc)
            clamped += count
        total = modular_sum(encoded, config.modulus)
        out = decode(total, config, signs, n_clients=n, model_dim=model_dim)
        if clamped == 0:
            want = np.sum([clip_l2(x, config.clip_norm) for x in clients], axis=0)
            err = float(np.linalg.norm(out - want))
            # The float rotation adds error at the 1e-12 level of the sum.
            slack = 1e-9 * (1.0 + float(np.linalg.norm(want)))
            assert err <= n * math.sqrt(config.padded_dim) / config.scale + slack


class TestClamping:
    def test_oversized_coordinates_clamped(self):
        """A hand-built config with a tiny per-coordinate bound still yields
        residues in range: the clamp runs before rounding."""
        cfg = SecAggConfig(
            clip_norm=100.0,
            scale=1.0,
            padded_dim=16,
            cohort_size=2,
            infinity_bound=1,
            modulus=5,
        )
        signs = sign_vector(SeedPath(7).child("rot"), 16)
        x = np.full(16, 50.0)
        enc, clamped = encode_client(x, cfg, signs, SeedPath(7).child("c"))
        assert enc.min() >= 0
        assert enc.max() <= 2
        # Independent recount: the rotation as an explicit matrix product.
        rotated = hadamard(16) @ (signs * clip_l2(x, cfg.clip_norm)) / 4.0
        recount = int(np.count_nonzero(np.abs(rotated) > cfg.infinity_bound))
        assert recount > 0
        assert clamped == recount


class TestEncodeBytes:
    """encode_client works in place on one padded row; its output must be
    the bytes of the step-by-step pipeline on fresh arrays."""

    def test_secagg_wide_shape_matches_reference_pipeline(self, monkeypatch):
        """d = 10^4 padded to 16384, s = 100, clip norm 1: wide enough that a
        wrong butterfly level order would change the bytes of
        the row handed to stochastic rounding, which the test records.
        Updates below and above the clip norm, and one aligned with a
        Hadamard row so that the clamp cuts coordinates."""
        rounding_inputs = []

        def recording_round(x, u, out):
            rounding_inputs.append(x.tobytes())
            stochastic_round(x, u, out)

        monkeypatch.setattr(secagg, "stochastic_round", recording_round)
        d = 10_000
        cfg = derive_config(1.0, 100.0, d, 20)
        assert cfg.padded_dim == 16384
        signs = sign_vector(SeedPath(12).child("rot"), cfg.padded_dim)
        row = np.zeros(cfg.padded_dim)
        row[3] = 1.0
        reference_fwht(row)  # row 3 of the Sylvester Hadamard matrix
        rng = np.random.default_rng(12)
        updates = [
            rng.normal(size=d) * 0.005,
            rng.normal(size=d) * 0.05,
            signs[:d] * row[:d],
        ]
        clamps = []
        for index, delta in enumerate(updates):
            seed = SeedPath(12).child("client", index)
            got, clamped = encode_client(delta, cfg, signs, seed)
            want, want_clamped, want_row = reference_encode(delta, cfg, signs, seed)
            assert rounding_inputs[-1] == want_row.tobytes()
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()
            assert clamped == want_clamped
            clamps.append(clamped)
        assert clamps[0] == 0 and clamps[2] > 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_update_and_signs_still_checked(self):
        cfg = derive_config(1.0, 100.0, 64, 4)
        signs = sign_vector(SeedPath(13).child("rot"), cfg.padded_dim)
        seed = SeedPath(13).child("c")
        with pytest.raises(ValueError, match="NaN or Inf"):
            encode_client(np.full(64, np.nan), cfg, signs, seed)
        huge = dataclasses.replace(cfg, scale=1e300)
        with pytest.raises(ValueError, match="NaN or Inf"):
            encode_client(np.full(64, 1e10), huge, signs, seed)  # the scaling overflows
        with pytest.raises(ValueError, match="wider than the padded"):
            encode_client(np.zeros(65), cfg, signs, seed)
        with pytest.raises(ValueError, match="signs"):
            encode_client(np.zeros(64), cfg, signs[:32], seed)
        with pytest.raises(ValueError, match="signs"):
            encode_client(np.zeros(64), cfg, signs * 2.0, seed)


class TestFailureModes:
    def test_retry_cap_exhaustion(self):
        """With a one-attempt budget, a boundary-norm vector eventually hits a
        rounding draw that violates the norm bound (frozen failing seed); the
        default budget of retries absorbs the same draw."""
        import dataclasses

        cfg = derive_config(5.0, 100.0, 1024, 10)
        strict = dataclasses.replace(cfg, retry_cap=1)
        signs = sign_vector(SeedPath(8).child("rot"), cfg.padded_dim)
        rng = np.random.default_rng(0)
        x = rng.normal(size=1024)
        x = x / np.linalg.norm(x) * 5.0  # exactly at the clip boundary
        seed = SeedPath(8).child("c", 21)
        with pytest.raises(RoundingRetriesExhausted):
            encode_client(x, strict, signs, seed)
        encode_client(x, cfg, signs, seed)  # default cap retries through it

    def test_retry_cap_validated(self):
        with pytest.raises(ValueError):
            derive_config(5.0, 100.0, 64, 10, retry_cap=0)

    def test_retry_error_is_a_runtime_error(self):
        assert issubclass(RoundingRetriesExhausted, RuntimeError)

    def test_modular_sum_validates_inputs(self):
        cfg = derive_config(1.0, 10.0, 8, 2)
        a = np.zeros(cfg.padded_dim, dtype=np.int64)
        with pytest.raises(ValueError):
            modular_sum([a, np.zeros(4, dtype=np.int64)], cfg.modulus)
        with pytest.raises(ValueError):
            modular_sum([np.zeros(cfg.padded_dim, dtype=np.float64)], cfg.modulus)
        with pytest.raises(ValueError):
            modular_sum([], cfg.modulus)
        with pytest.raises(ValueError):
            modular_sum([a, a + cfg.modulus], cfg.modulus)  # not a residue
        with pytest.raises(ValueError):
            modular_sum([a, a - 1], cfg.modulus)

    def test_modular_sum_reduces_the_stacked_sum(self):
        rng = np.random.default_rng(10)
        modulus = 1_000_003
        updates = [rng.integers(0, modulus, size=64) for _ in range(7)]
        want = np.zeros(64, dtype=np.int64)
        for u in updates:
            want = (want + u) % modulus
        np.testing.assert_array_equal(modular_sum(updates, modulus), want)

    def test_int64_overflow_bound_checked(self):
        """A modulus whose cohort sum cannot fit int64 is refused when the
        config is built, naming the scale key, instead of failing mid-run."""
        with pytest.raises(ValueError, match="secagg.s"):
            derive_config(1.0, 1e19, 4096, 20)
        # The bound is exact: cohort_size * (modulus - 1) < 2**63.
        cohort, infinity_bound = 2, 2**60 - 1
        fits = SecAggConfig(1.0, 1.0, 4, cohort, infinity_bound, 2 * infinity_bound * cohort + 1)
        assert cohort * (fits.modulus - 1) == 2**63 - 8
        with pytest.raises(ValueError, match="secagg.s"):
            SecAggConfig(1.0, 1.0, 4, cohort, 2**60, 2**62 + 1)
        # modular_sum checks the same bound for its own input count.
        a = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            modular_sum([a] * 3, 2**62)

    def test_decode_validates_client_count(self):
        cfg = derive_config(1.0, 10.0, 8, 2)
        signs = sign_vector(SeedPath(9).child("rot"), cfg.padded_dim)
        total = np.zeros(cfg.padded_dim, dtype=np.int64)
        with pytest.raises(ValueError):
            decode(total, cfg, signs, n_clients=0, model_dim=8)
        with pytest.raises(ValueError):
            decode(total, cfg, signs, n_clients=3, model_dim=8)


class TestBitsPerUpdate:
    def test_bit_width_formula(self):
        cfg = derive_config(5.0, 100.0, 1024, 10)
        assert bits_per_update(cfg) == cfg.padded_dim * math.ceil(math.log2(cfg.modulus))

    def test_scale_controls_width(self):
        """A finer grid needs more bits per coordinate."""
        lo = bits_per_update(derive_config(5.0, 10.0, 1024, 10))
        hi = bits_per_update(derive_config(5.0, 1000.0, 1024, 10))
        assert hi > lo
