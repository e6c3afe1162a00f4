"""Tests for the hot numeric kernels.

The Walsh-Hadamard transform and stochastic rounding have one
implementation, in numpy; these tests pin what the SecAgg codec relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

import fpsim
from fpsim._kernels import fwht_inplace, stochastic_round
from oracles import reference_fwht


def _round(x, u):
    out = np.empty_like(x)
    stochastic_round(x, u, out)
    return out


class TestFWHT:
    @pytest.mark.parametrize("log_width", range(16))
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), signed=st.booleans())
    def test_bytes_match_one_pass_per_level(self, log_width, seed, signed):
        """The constant-geometry kernel writes the same bytes as the
        in-place butterfly (reference_fwht), lowest bit first, at every width
        2^0..2^15, for entries whose magnitudes span 1e-3..1e3."""
        rng = np.random.default_rng(seed)
        n = 1 << log_width
        x = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        if signed:
            x *= rng.choice((-1.0, 1.0), size=n)
        want = x.copy()
        reference_fwht(want)
        fwht_inplace(x)
        assert x.tobytes() == want.tobytes()

    def test_impulse_spreads_uniformly(self):
        """The unnormalized transform of e_0 is the all-ones vector."""
        v = np.zeros(8)
        v[0] = 1.0
        fwht_inplace(v)
        np.testing.assert_array_equal(v, np.ones(8))

    def test_known_small_case(self):
        """Hand-computed 4-point transform, then the Sylvester Hadamard matrix
        product at every width the codec tests use."""
        v = np.array([1.0, 2.0, 3.0, 4.0])
        fwht_inplace(v)
        # H4 rows: ++++ / +-+- / ++-- / +--+
        np.testing.assert_array_equal(v, np.array([10.0, -2.0, -4.0, 0.0]))
        rng = np.random.default_rng(6)
        for d in (1, 2, 4, 64, 1024):
            v = rng.normal(size=d)
            want = hadamard(d) @ v
            fwht_inplace(v)
            np.testing.assert_allclose(v, want, rtol=1e-12, atol=1e-12)

    def test_involution_up_to_dimension(self):
        """Applying the unnormalized transform twice multiplies by d."""
        rng = np.random.default_rng(0)
        for d in (1, 2, 4, 64, 1024):
            v = rng.normal(size=d)
            w = v.copy()
            fwht_inplace(w)
            fwht_inplace(w)
            np.testing.assert_allclose(w, d * v, rtol=1e-12, atol=1e-12)

    def test_norm_scales_by_sqrt_d(self):
        """Orthogonality: ||H v||_2 = sqrt(d) * ||v||_2."""
        rng = np.random.default_rng(1)
        v = rng.normal(size=512)
        before = np.linalg.norm(v)
        fwht_inplace(v)
        np.testing.assert_allclose(np.linalg.norm(v), np.sqrt(512) * before, rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 256))
        ab = 2.0 * a + 3.0 * b
        for v in (a, b, ab):
            fwht_inplace(v)
        np.testing.assert_allclose(ab, 2.0 * a + 3.0 * b, rtol=1e-12, atol=1e-12)


class TestStochasticRound:
    def test_output_is_floor_or_ceil(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-50, 50, size=4096)
        u = rng.random(size=4096)
        r = _round(v, u)
        assert np.all((r == np.floor(v)) | (r == np.ceil(v)))

    def test_integers_pass_through(self):
        v = np.array([-3.0, 0.0, 7.0, 100.0])
        u = np.array([0.99, 0.0, 0.5, 0.01])
        np.testing.assert_array_equal(_round(v, u), v)

    def test_threshold_semantics(self):
        """Rounds up exactly when the uniform is below the fractional part."""
        v = np.array([1.25, 1.25, -0.75, -0.75])
        u = np.array([0.10, 0.90, 0.10, 0.90])
        # frac(1.25) = 0.25 -> up iff u < 0.25; frac(-0.75) = 0.25 likewise.
        np.testing.assert_array_equal(_round(v, u), np.array([2.0, 1.0, 0.0, -1.0]))

    def test_unbiased_in_expectation(self):
        """Mean of many roundings of the same value converges to the value."""
        rng = np.random.default_rng(4)
        value = 2.3
        u = rng.random(size=200_000)
        r = _round(np.full_like(u, value), u)
        assert abs(r.mean() - value) < 5e-3

    def test_deterministic_given_uniforms(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(-10, 10, size=1000)
        u = rng.random(size=1000)
        np.testing.assert_array_equal(_round(v, u), _round(v, u))


def test_backend_is_numpy():
    """The one implementation is reported as fpsim.BACKEND."""
    assert fpsim.BACKEND == "numpy"
