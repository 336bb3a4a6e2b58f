"""Filter design and application, validated against the scipy oracle.

The library itself never imports scipy; these tests do, to prove the
from-scratch implementations match the reference within float tolerance.
``lfilter`` and ``lfilter_zi`` are the per-sample oracle in
``tests/signal/iir_oracle.py``; pinning them to scipy here is what lets the
kernel tests in ``test_filter_kernel.py`` trust them.
"""

import numpy as np
import pytest
import scipy.signal as ss

from repro.errors import SignalError, ValidationError
from repro.signal.filters import (
    IIRFilter,
    butter_bandpass,
    butter_lowpass,
    filtfilt,
)
from tests.signal.iir_oracle import lfilter, lfilter_zi


class TestDesignAgainstScipy:
    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    @pytest.mark.parametrize("cutoff", [6.0, 50.0, 400.0])
    def test_lowpass_coefficients(self, order, cutoff):
        mine = butter_lowpass(cutoff, 1000.0, order=order)
        b_ref, a_ref = ss.butter(order, cutoff, btype="lowpass", fs=1000.0)
        np.testing.assert_allclose(mine.b, b_ref, atol=1e-10)
        np.testing.assert_allclose(mine.a, a_ref, atol=1e-10)

    @pytest.mark.parametrize("order", [2, 4])
    def test_paper_bandpass_coefficients(self, order):
        """The paper's 20-450 Hz band at 1000 Hz."""
        mine = butter_bandpass(20.0, 450.0, 1000.0, order=order)
        b_ref, a_ref = ss.butter(order, [20.0, 450.0], btype="bandpass", fs=1000.0)
        np.testing.assert_allclose(mine.b, b_ref, atol=1e-9)
        np.testing.assert_allclose(mine.a, a_ref, atol=1e-9)

    def test_bandpass_order_doubles(self):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        assert filt.order == 8

    def test_cutoff_must_be_below_nyquist(self):
        with pytest.raises(Exception):
            butter_lowpass(600.0, 1000.0)

    def test_band_edges_must_be_ordered(self):
        with pytest.raises(SignalError):
            butter_bandpass(450.0, 20.0, 1000.0)


class TestFrequencyResponse:
    def test_matches_scipy_freqz(self):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        freqs, resp = filt.frequency_response(512, fs=1000.0)
        w_ref, h_ref = ss.freqz(filt.b, filt.a, worN=512, fs=1000.0)
        np.testing.assert_allclose(freqs, w_ref)
        np.testing.assert_allclose(resp, h_ref, atol=1e-9)

    def test_passband_and_stopband_magnitudes(self):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        freqs, resp = filt.frequency_response(2048, fs=1000.0)
        mag = np.abs(resp)
        in_band = (freqs > 60) & (freqs < 350)
        below = freqs < 5
        assert mag[in_band].min() > 0.9
        assert mag[below].max() < 0.05


class TestLfilter:
    def test_matches_scipy_multichannel(self, rng):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        x = rng.normal(size=(500, 3))
        np.testing.assert_allclose(
            lfilter(filt.b, filt.a, x), ss.lfilter(filt.b, filt.a, x, axis=0),
            atol=1e-10,
        )

    def test_fir_case(self, rng):
        """Pure moving-average (a = [1]) works with no recursive state."""
        b = np.ones(4) / 4
        x = rng.normal(size=50)
        np.testing.assert_allclose(
            lfilter(b, [1.0], x), ss.lfilter(b, [1.0], x), atol=1e-12
        )

    def test_passthrough(self, rng):
        x = rng.normal(size=20)
        np.testing.assert_allclose(lfilter([1.0], [1.0], x), x)

    def test_initial_state(self, rng):
        filt = butter_lowpass(10.0, 1000.0, order=4)
        x = rng.normal(size=100)
        zi = lfilter_zi(filt.b, filt.a) * x[0]
        mine = lfilter(filt.b, filt.a, x, zi=zi[:, None] if zi.ndim == 1 else zi)
        ref, _ = ss.lfilter(filt.b, filt.a, x, zi=zi)
        np.testing.assert_allclose(mine.ravel(), ref, atol=1e-10)

    def test_rejects_zero_leading_denominator(self):
        with pytest.raises(SignalError):
            lfilter([1.0], [0.0, 1.0], np.zeros(4))

    def test_empty_input(self):
        out = lfilter([1.0, 0.5], [1.0], np.zeros(0))
        assert out.size == 0

    def test_axis_argument(self, rng):
        filt = butter_lowpass(10.0, 1000.0, order=2)
        x = rng.normal(size=(3, 200))
        got = lfilter(filt.b, filt.a, x, axis=1)
        want = ss.lfilter(filt.b, filt.a, x, axis=1)
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestLfilterZi:
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_matches_scipy(self, order):
        filt = butter_lowpass(15.0, 1000.0, order=order)
        np.testing.assert_allclose(
            lfilter_zi(filt.b, filt.a), ss.lfilter_zi(filt.b, filt.a), atol=1e-10
        )

    def test_step_response_starts_settled(self):
        """Seeding with zi makes a unit step pass through unchanged."""
        filt = butter_lowpass(15.0, 1000.0, order=4)
        zi = lfilter_zi(filt.b, filt.a)
        step = np.ones(100)
        out = lfilter(filt.b, filt.a, step, zi=zi)
        np.testing.assert_allclose(out.ravel(), step, atol=1e-9)


class TestFiltfilt:
    def test_matches_scipy(self, rng):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        x = rng.normal(size=(800, 2))
        np.testing.assert_allclose(
            filtfilt(filt.b, filt.a, x),
            ss.filtfilt(filt.b, filt.a, x, axis=0),
            atol=1e-9,
        )

    def test_zero_phase_on_sinusoid(self):
        """A passband sinusoid comes out with no phase shift."""
        fs = 1000.0
        t = np.arange(2000) / fs
        x = np.sin(2 * np.pi * 100 * t)
        filt = butter_bandpass(20.0, 450.0, fs, order=4)
        y = filtfilt(filt.b, filt.a, x)
        # Ignore the edges; interior should match closely with zero lag.
        np.testing.assert_allclose(y[200:-200], x[200:-200], atol=0.01)

    def test_short_signal_does_not_crash(self):
        filt = butter_lowpass(10.0, 1000.0, order=4)
        out = filtfilt(filt.b, filt.a, np.ones(5))
        assert out.shape == (5,)
        assert np.all(np.isfinite(out))

    def test_empty_signal(self):
        filt = butter_lowpass(10.0, 1000.0, order=2)
        assert filtfilt(filt.b, filt.a, np.zeros(0)).size == 0


class TestFiltfiltRejectsBadInput:
    """Bad input raises a typed error instead of a numpy one or NaN output."""

    filt = butter_lowpass(10.0, 1000.0, order=4)

    def test_nan_sample(self, rng):
        x = rng.normal(size=200)
        x[57] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            filtfilt(self.filt.b, self.filt.a, x)

    @pytest.mark.parametrize("axis", [2, -3])
    def test_axis_out_of_range(self, rng, axis):
        with pytest.raises(SignalError, match="axis"):
            filtfilt(self.filt.b, self.filt.a, rng.normal(size=(50, 2)), axis=axis)

    def test_non_numeric_input(self):
        with pytest.raises(ValidationError):
            filtfilt(self.filt.b, self.filt.a, np.array(["a", "b", "c"]))

    def test_empty_numerator(self):
        with pytest.raises(SignalError, match="empty"):
            IIRFilter(b=[], a=[1.0])

    def test_pole_at_one_has_no_steady_state(self, rng):
        with pytest.raises(SignalError, match="pole at z = 1"):
            filtfilt([1.0], [1.0, -1.0], rng.normal(size=50))


class TestIIRFilterClass:
    def test_normalizes_a0(self):
        filt = IIRFilter(b=[2.0, 0.0], a=[2.0, 1.0])
        assert filt.a[0] == 1.0
        np.testing.assert_allclose(filt.b, [1.0, 0.0])

    def test_rejects_zero_a0(self):
        with pytest.raises(SignalError):
            IIRFilter(b=[1.0], a=[0.0, 1.0])

    def test_order_property(self):
        assert butter_lowpass(10.0, 1000.0, order=4).order == 4

    def test_apply_equals_lfilter(self, rng):
        filt = butter_lowpass(10.0, 1000.0, order=2)
        x = rng.normal(size=100)
        want = lfilter(filt.b, filt.a, x)
        assert np.max(np.abs(filt.apply(x) - want)) <= 1e-8 * np.max(np.abs(want))
