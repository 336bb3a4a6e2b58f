"""Surface-EMG synthesis: amplitude tracking, spectrum, non-stationarity."""

import numpy as np
import pytest

from repro.emg.synthesis import SurfaceEMGSynthesizer
from repro.errors import SignalError
from repro.signal.filters import butter_lowpass
from repro.signal.rectify import full_wave_rectify
from tests.spectrum import band_power


def clean_synth(**kw):
    """A synthesizer with artifacts disabled for precise assertions."""
    return SurfaceEMGSynthesizer(artifacts=None, **kw)


class TestSynthesize:
    def test_output_length_matches_duration(self):
        synth = clean_synth()
        env = np.ones(120)  # 1 s at 120 Hz
        out = synth.synthesize(env, activation_fs=120.0, seed=0)
        assert len(out) == 1000

    def test_duration_override(self):
        synth = clean_synth()
        out = synth.synthesize(np.ones(120), 120.0, duration_s=2.0, seed=0)
        assert len(out) == 2000

    def test_amplitude_tracks_activation(self):
        synth = clean_synth()
        env = np.concatenate([np.zeros(120), np.ones(120), np.zeros(120)])
        out = synth.synthesize(env, 120.0, seed=0)
        rest = np.sqrt(np.mean(out[:800] ** 2))
        active = np.sqrt(np.mean(out[1100:1900] ** 2))
        assert active > 10 * rest

    def test_rms_at_full_activation_near_mvc(self):
        synth = clean_synth(mvc_amplitude_volts=6e-5, noise_floor_volts=0.0)
        out = synth.synthesize(np.ones(240), 120.0, seed=1)
        rms = np.sqrt(np.mean(out[500:1500] ** 2))
        assert 4e-5 < rms < 8e-5

    def test_noise_floor_at_rest(self):
        synth = clean_synth(noise_floor_volts=2e-6)
        out = synth.synthesize(np.zeros(240), 120.0, seed=0)
        rms = np.sqrt(np.mean(out**2))
        assert 1e-6 < rms < 4e-6

    def test_spectrum_in_physiological_band(self):
        synth = clean_synth()
        out = synth.synthesize(np.ones(480), 120.0, seed=0)
        assert band_power(out, 1000.0, 20.0, 450.0) > 0.95

    def test_envelope_recovers_commanded_activation(self):
        """The classical linear envelope correlates with the command."""
        synth = clean_synth()
        t = np.linspace(0, 1, 360)
        env = 0.5 * (1 + np.sin(2 * np.pi * 0.8 * t))
        out = synth.synthesize(env, 120.0, seed=2)
        lowpass = butter_lowpass(3.0, 1000.0, order=4)
        recovered = np.maximum(lowpass.apply_zero_phase(full_wave_rectify(out)), 0.0)
        t_cmd = np.arange(len(out)) / 1000.0
        cmd = np.interp(t_cmd, np.arange(len(env)) / 120.0, env)
        rho = np.corrcoef(recovered[300:-300], cmd[300:-300])[0, 1]
        assert rho > 0.85

    def test_non_stationarity_across_seeds(self):
        """Identical commands give different signals — the paper's premise."""
        synth = clean_synth()
        env = np.ones(120)
        a = synth.synthesize(env, 120.0, seed=1)
        b = synth.synthesize(env, 120.0, seed=2)
        assert np.corrcoef(a, b)[0, 1] < 0.2

    def test_deterministic_given_seed(self):
        synth = SurfaceEMGSynthesizer()  # with artifacts
        env = np.ones(120)
        np.testing.assert_array_equal(
            synth.synthesize(env, 120.0, seed=7),
            synth.synthesize(env, 120.0, seed=7),
        )

    def test_rejects_negative_activation(self):
        with pytest.raises(SignalError):
            clean_synth().synthesize(np.array([-0.1, 0.2]), 120.0, seed=0)

    def test_rejects_bad_band(self):
        with pytest.raises(SignalError):
            SurfaceEMGSynthesizer(carrier_band_hz=(450.0, 20.0))
        with pytest.raises(SignalError):
            SurfaceEMGSynthesizer(carrier_band_hz=(20.0, 600.0))  # above Nyquist
