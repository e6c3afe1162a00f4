"""Tests for the hierarchical seed derivation used everywhere randomness appears.

Every random draw in the simulator flows through a SeedPath, so these tests
pin down the properties the rest of the suite silently relies on: derivation
is a pure function of (master seed, label path), distinct paths give
statistically unrelated streams, and the zero-noise special case is exact.
"""

import numpy as np
import pytest

from fpsim.seeds import SeedPath, gaussian_vector, sign_vector


class TestDerivation:
    def test_same_path_same_stream(self):
        """Identical (master_seed, labels) always yields the same bits."""
        a = SeedPath(123).child("tree", 4).child("node", 7)
        b = SeedPath(123).child("tree", 4).child("node", 7)
        assert a == b
        np.testing.assert_array_equal(
            a.generator().integers(0, 2**63, size=32),
            b.generator().integers(0, 2**63, size=32),
        )

    def test_label_and_index_both_matter(self):
        """Changing any component of the path changes the stream."""
        base = SeedPath(9)
        draws = {
            "a0": base.child("a", 0).generator().integers(0, 2**63, size=8),
            "a1": base.child("a", 1).generator().integers(0, 2**63, size=8),
            "b0": base.child("b", 0).generator().integers(0, 2**63, size=8),
        }
        assert not np.array_equal(draws["a0"], draws["a1"])
        assert not np.array_equal(draws["a0"], draws["b0"])
        assert not np.array_equal(draws["a1"], draws["b0"])

    def test_master_seed_matters(self):
        x = SeedPath(1).child("x").generator().integers(0, 2**63, size=8)
        y = SeedPath(2).child("x").generator().integers(0, 2**63, size=8)
        assert not np.array_equal(x, y)

    def test_child_is_not_commutative(self):
        """child("a").child("b") and child("b").child("a") are distinct paths."""
        root = SeedPath(5)
        ab = root.child("a").child("b").generator().integers(0, 2**63, size=8)
        ba = root.child("b").child("a").generator().integers(0, 2**63, size=8)
        assert not np.array_equal(ab, ba)

    def test_prefix_is_not_the_same_as_child(self):
        """A path is distinct from every proper prefix of itself."""
        root = SeedPath(5)
        parent = root.child("a").generator().integers(0, 2**63, size=8)
        child = root.child("a").child("a").generator().integers(0, 2**63, size=8)
        assert not np.array_equal(parent, child)

    def test_master_seed_range_validated(self):
        with pytest.raises(ValueError):
            SeedPath(-1)
        with pytest.raises(ValueError):
            SeedPath(2**64)

    def test_path_is_hashable_and_frozen(self):
        s = SeedPath(0).child("x", 3)
        assert s in {s}
        with pytest.raises(Exception):
            s.master_seed = 1  # type: ignore[misc]


class TestGaussianVector:
    def test_zero_sigma_is_exactly_zero(self):
        v = gaussian_vector(SeedPath(1).child("n"), 0.0, 64)
        np.testing.assert_array_equal(v, np.zeros(64))

    def test_shape_and_dtype(self):
        v = gaussian_vector(SeedPath(1).child("n"), 2.0, 17)
        assert v.shape == (17,)
        assert v.dtype == np.float64

    def test_deterministic(self):
        s = SeedPath(7).child("noise", 2)
        np.testing.assert_array_equal(
            gaussian_vector(s, 1.5, 100), gaussian_vector(s, 1.5, 100)
        )

    def test_sigma_scales_linearly(self):
        """sigma is a pure scale factor on a fixed underlying draw."""
        s = SeedPath(7).child("noise", 2)
        one = gaussian_vector(s, 1.0, 1000)
        three = gaussian_vector(s, 3.0, 1000)
        np.testing.assert_allclose(three, 3.0 * one, rtol=0, atol=1e-12)

    def test_moments(self):
        """Empirical mean ~ 0 and std ~ sigma for a large draw."""
        v = gaussian_vector(SeedPath(11).child("m"), 2.0, 200_000)
        assert abs(v.mean()) < 0.02
        assert abs(v.std() - 2.0) < 0.02


class TestSignVector:
    def test_values_are_plus_minus_one(self):
        v = sign_vector(SeedPath(3).child("s"), 256)
        assert set(np.unique(v)) <= {-1.0, 1.0}
        assert v.shape == (256,)

    def test_deterministic(self):
        s = SeedPath(3).child("s", 9)
        np.testing.assert_array_equal(sign_vector(s, 128), sign_vector(s, 128))

    def test_roughly_balanced(self):
        v = sign_vector(SeedPath(3).child("s"), 100_000)
        assert abs(v.mean()) < 0.02
