"""EMG artifact models and their interaction with the conditioning chain."""

import numpy as np
import pytest

from repro.emg.artifacts import (
    BaselineDrift,
    CompositeArtifacts,
    FatigueDrift,
    PowerlineInterference,
    default_artifacts,
)
from repro.signal.filters import butter_bandpass
from tests.spectrum import band_power

FS = 1000.0


@pytest.fixture
def signal(rng):
    return rng.normal(0.0, 1e-5, size=4000)


class TestBaselineDrift:
    def test_adds_subhertz_content(self, signal):
        out = BaselineDrift(amplitude_volts=5e-5, frequency_hz=0.3).apply(
            signal, FS, seed=0
        )
        drift = out - signal
        assert np.abs(drift).max() > 2e-5
        assert band_power(drift, FS, 0.0, 2.0, nperseg=2048) > 0.9

    def test_bandpass_removes_drift(self, signal):
        """The paper's 20-450 Hz front-end exists exactly for this."""
        dirty = BaselineDrift(amplitude_volts=1e-4).apply(signal, FS, seed=0)
        band = butter_bandpass(20.0, 450.0, FS, order=4)
        cleaned = band.apply_zero_phase(dirty)
        reference = band.apply_zero_phase(signal)
        assert np.abs(cleaned - reference).max() < 2e-6

    def test_frequency_must_sit_below_band(self):
        with pytest.raises(Exception):
            BaselineDrift(frequency_hz=30.0)


class TestPowerlineInterference:
    def test_adds_60hz_tone(self, signal):
        out = PowerlineInterference(amplitude_volts=2e-5).apply(signal, FS, seed=0)
        tone = out - signal
        assert band_power(tone, FS, 55.0, 65.0, nperseg=2048) > 0.9

    def test_survives_bandpass(self, signal):
        """60 Hz sits inside 20-450 Hz and is NOT removed — a real nuisance."""
        dirty = PowerlineInterference(amplitude_volts=2e-5).apply(signal, FS, seed=0)
        band = butter_bandpass(20.0, 450.0, FS, order=4)
        cleaned = band.apply_zero_phase(dirty)
        reference = band.apply_zero_phase(signal)
        assert np.abs(cleaned - reference).max() > 1e-5


class TestFatigueDrift:
    def test_amplitude_grows_over_trial(self, rng):
        x = np.ones(1000) * 1e-5
        out = FatigueDrift(max_gain_increase=0.5).apply(x, FS, seed=1)
        assert out[-1] >= out[0]
        assert out[0] == pytest.approx(1e-5)

    def test_zero_increase_is_identity(self, signal):
        out = FatigueDrift(max_gain_increase=0.0).apply(signal, FS, seed=0)
        np.testing.assert_allclose(out, signal)


class TestCompositeArtifacts:
    def test_applies_all_stages(self, signal):
        comp = CompositeArtifacts([
            BaselineDrift(amplitude_volts=5e-5),
            PowerlineInterference(amplitude_volts=2e-5),
        ])
        out = comp.apply(signal, FS, seed=0)
        extra = out - signal
        assert band_power(extra, FS, 0.0, 2.0, nperseg=2048) > 0.2
        assert band_power(extra, FS, 55.0, 65.0, nperseg=2048) > 0.1

    def test_stage_independence_from_seed(self, signal):
        """Removing a stage does not change the other stage's draw pattern
        shape (each stage gets its own spawned generator)."""
        single = CompositeArtifacts([PowerlineInterference()])
        double = CompositeArtifacts([PowerlineInterference(), FatigueDrift(0.0)])
        a = single.apply(signal, FS, seed=5)
        b = double.apply(signal, FS, seed=5)
        np.testing.assert_allclose(a, b)

    def test_deterministic(self, signal):
        comp = default_artifacts()
        np.testing.assert_array_equal(
            comp.apply(signal, FS, seed=3), comp.apply(signal, FS, seed=3)
        )

    def test_empty_composite_is_identity(self, signal):
        out = CompositeArtifacts([]).apply(signal, FS, seed=0)
        np.testing.assert_array_equal(out, signal)


def test_default_stack_contents():
    stages = default_artifacts().stages
    kinds = {type(s) for s in stages}
    assert kinds == {BaselineDrift, PowerlineInterference, FatigueDrift}
