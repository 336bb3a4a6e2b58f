"""Rational down-sampling."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.signal.resample import downsample_to_rate


class TestDownsampleToRate:
    def test_paper_rates_1000_to_120(self, rng):
        """The paper's 1000 Hz -> 120 Hz conditioning rate change."""
        x = np.abs(rng.normal(size=3000))
        y = downsample_to_rate(x, 1000.0, 120.0)
        expected = int(np.floor((2999 / 1000.0) * 120.0)) + 1
        assert len(y) == expected

    def test_n_out_override(self, rng):
        x = np.abs(rng.normal(size=3000))
        y = downsample_to_rate(x, 1000.0, 120.0, n_out=360)
        assert len(y) == 360

    def test_2d_columns_independent(self):
        fs_in = 1000.0
        t = np.arange(2000) / fs_in
        x = np.stack([np.sin(2 * np.pi * 3 * t), np.cos(2 * np.pi * 3 * t)], axis=1)
        y = downsample_to_rate(x, fs_in, 120.0)
        t_out = np.arange(len(y)) / 120.0
        np.testing.assert_allclose(y[10:-10, 0],
                                   np.sin(2 * np.pi * 3 * t_out)[10:-10], atol=0.02)
        np.testing.assert_allclose(y[10:-10, 1],
                                   np.cos(2 * np.pi * 3 * t_out)[10:-10], atol=0.02)

    def test_no_antialias_is_pure_interpolation(self):
        x = np.linspace(0.0, 1.0, 101)  # a ramp survives interpolation exactly
        y = downsample_to_rate(x, 100.0, 20.0, antialias=False)
        np.testing.assert_allclose(y, np.linspace(0.0, 1.0, 21), atol=1e-12)

    def test_rejects_upsampling(self, rng):
        with pytest.raises(SignalError):
            downsample_to_rate(rng.normal(size=100), 100.0, 200.0)

    def test_rejects_too_short(self):
        with pytest.raises(SignalError):
            downsample_to_rate(np.zeros(1), 100.0, 50.0)

    def test_rejects_3d(self, rng):
        with pytest.raises(SignalError):
            downsample_to_rate(rng.normal(size=(10, 2, 2)), 100.0, 50.0)

    def test_same_rate_identity_on_grid(self, rng):
        x = rng.normal(size=200)
        y = downsample_to_rate(x, 100.0, 100.0, antialias=False)
        np.testing.assert_allclose(y, x, atol=1e-12)


class TestShortAndDegenerateStreams:
    """Regression tier: the edges that used to die with raw numpy/scipy
    errors now fail (or succeed) through typed repro.errors exceptions."""

    def test_downsample_zero_columns_is_typed(self):
        with pytest.raises(SignalError, match="zero columns"):
            downsample_to_rate(np.ones((10, 0)), 100.0, 50.0)

    def test_downsample_minimum_two_samples(self):
        out = downsample_to_rate(np.ones(2), 100.0, 50.0, antialias=False)
        assert out.shape == (1,)

    def test_downsample_one_sample_is_typed(self):
        with pytest.raises(SignalError, match="two samples"):
            downsample_to_rate(np.ones(1), 100.0, 50.0)

    def test_downsample_odd_short_rational_ratio(self):
        # 3 samples at 1000 Hz span 2 ms: exactly one 120 Hz sample fits.
        out = downsample_to_rate(np.ones(3), 1000.0, 120.0, antialias=False)
        assert out.shape == (1,)
        assert np.isfinite(out).all()
