"""Tests for parameter-vector validation and for the sign-randomized
Hadamard rotation of the secure-aggregation codec (fpsim.secagg).  The
L2 clip and the copying rotation the encoder's arithmetic is checked
against live in tests/oracles.py and are pinned here.
"""

import numpy as np
import pytest

from fpsim import (
    SecAggConfig,
    SecAggRound,
    SeedPath,
    as_param_vector,
    sign_vector,
)
from fpsim.secagg import _rotate
from oracles import clip_l2, randomized_hadamard


class TestAsParamVector:
    def test_converts_to_float64(self):
        v = as_param_vector([1, 2, 3])
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            as_param_vector(np.zeros((2, 2)))

    def test_dimension_check(self):
        as_param_vector([1.0, 2.0], d=2)
        with pytest.raises(ValueError):
            as_param_vector([1.0, 2.0], d=3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_param_vector([1.0, np.nan])


class TestClipL2:
    def test_long_vector_scaled_to_clip_norm(self):
        v = np.array([3.0, 4.0])  # norm 5
        c = clip_l2(v, 1.0)
        np.testing.assert_allclose(np.linalg.norm(c), 1.0, rtol=1e-12)
        np.testing.assert_allclose(c, v / 5.0, rtol=1e-12)

    def test_short_vector_unchanged(self):
        v = np.array([0.3, 0.4])  # norm 0.5
        np.testing.assert_array_equal(clip_l2(v, 1.0), v)

    def test_boundary_vector_unchanged(self):
        v = np.array([3.0, 4.0])
        np.testing.assert_array_equal(clip_l2(v, 5.0), v)

    def test_infinite_clip_disables(self):
        v = np.array([1e12, -1e12])
        np.testing.assert_array_equal(clip_l2(v, np.inf), v)

    def test_zero_vector_unchanged(self):
        v = np.zeros(8)
        np.testing.assert_array_equal(clip_l2(v, 1.0), v)

    def test_never_increases_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=16) * rng.uniform(0.01, 100)
            c = rng.uniform(0.1, 10)
            assert np.linalg.norm(clip_l2(v, c)) <= c * (1 + 1e-12)


class TestRandomizedHadamard:
    def test_norm_preserved(self):
        """The rotation is orthonormal: ||U v|| = ||v||."""
        rng = np.random.default_rng(1)
        signs = sign_vector(SeedPath(0).child("r"), 1024)
        for _ in range(10):
            v = rng.normal(size=1024)
            r = randomized_hadamard(v, signs)
            np.testing.assert_allclose(
                np.linalg.norm(r), np.linalg.norm(v), rtol=1e-12
            )

    def test_roundtrip_is_identity(self):
        """SecAggRound.decode's inverse rotation undoes the oracle's: a
        round whose total holds integers k (shifted, at scale 1 and no
        padding) decodes to a vector that rotates back onto k."""
        rng = np.random.default_rng(2)
        config = SecAggConfig(clip_norm=100.0, scale=1.0, model_dim=256, cohort_size=1)
        secagg = SecAggRound(config, SeedPath(0), 1)
        k = rng.integers(-config.infinity_bound, config.infinity_bound + 1, size=256)
        secagg.total[...] = k + config.infinity_bound
        secagg.clients = 1
        back = randomized_hadamard(secagg.decode(), secagg.signs)
        np.testing.assert_allclose(back, k, rtol=0, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        signs = sign_vector(SeedPath(0).child("r", 2), 64)
        a, b = rng.normal(size=(2, 64))
        lhs = randomized_hadamard(2.0 * a - b, signs)
        rhs = 2.0 * randomized_hadamard(a, signs) - randomized_hadamard(b, signs)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_spreads_a_spike(self):
        """A one-hot input leaves the rotation with flat magnitude 1/sqrt(d),
        which is the property that makes per-coordinate clamping safe."""
        signs = sign_vector(SeedPath(0).child("r", 3), 128)
        v = np.zeros(128)
        v[17] = 1.0
        r = randomized_hadamard(v, signs)
        np.testing.assert_allclose(np.abs(r), np.full(128, 1 / np.sqrt(128)), rtol=1e-12)

    def test_in_place_rotation_writes_the_same_bytes(self):
        """The encoder's rotation (secagg._rotate, its scratch row holding
        NaNs) writes the oracle's bytes."""
        rng = np.random.default_rng(5)
        signs = sign_vector(SeedPath(0).child("r", 5), 256)
        v = rng.normal(size=256)
        x = v.copy()
        _rotate(x, signs, np.full(256, np.nan))
        assert x.tobytes() == randomized_hadamard(v, signs).tobytes()
