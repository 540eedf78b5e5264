"""Weight initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.init import kaiming_uniform, zeros


class TestFans:
    def test_conv_fan_scaling(self):
        rng = np.random.default_rng(0)
        small = kaiming_uniform((8, 4, 3, 3), rng)
        rng = np.random.default_rng(0)
        large = kaiming_uniform((8, 16, 3, 3), rng)
        # Larger fan-in -> smaller bound.
        assert np.abs(large).max() < np.abs(small).max()

    def test_kaiming_bound(self):
        rng = np.random.default_rng(0)
        w = kaiming_uniform((4, 2, 3, 3), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / (2 * 9))
        assert np.abs(w).max() <= bound

    def test_unsupported_shape(self):
        # Only conv (out, in, kh, kw) weights exist in the substrate.
        rng = np.random.default_rng(0)
        for shape in ((5,), (10, 20)):
            with pytest.raises(ValueError):
                kaiming_uniform(shape, rng)

    def test_deterministic_by_rng(self):
        a = kaiming_uniform((4, 4, 3, 3), np.random.default_rng(7))
        b = kaiming_uniform((4, 4, 3, 3), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_zeros(self):
        np.testing.assert_array_equal(zeros((3, 2)), np.zeros((3, 2)))
