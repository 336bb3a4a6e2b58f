"""The Myomonitor acquisition and conditioning chain (paper Section 5)."""

import numpy as np
import pytest

from repro.emg.channels import hand_montage, leg_montage
from repro.emg.myomonitor import Myomonitor
from repro.emg.synthesis import SurfaceEMGSynthesizer
from repro.errors import AcquisitionError
from tests.spectrum import band_power


@pytest.fixture
def activations():
    t = np.linspace(0, 1, 240)
    bump = np.clip(np.sin(np.pi * t), 0, None)
    return {
        "biceps_r": bump,
        "triceps_r": 0.3 * bump,
        "upper_forearm_r": 0.5 * bump,
        "lower_forearm_r": 0.2 * bump,
    }


class TestAcquire:
    def test_paper_configuration_defaults(self):
        myo = Myomonitor()
        assert myo.fs == 1000.0
        assert myo.band_hz == (20.0, 450.0)
        assert myo.output_fs == 120.0

    def test_raw_recording_shape(self, activations):
        myo = Myomonitor()
        raw = myo.acquire(activations, 120.0, hand_montage("r"), seed=0)
        assert raw.fs == 1000.0
        assert raw.n_channels == 4
        assert raw.n_samples == 2000  # 2 s at 1000 Hz

    def test_raw_spectrum_band_limited(self, activations):
        myo = Myomonitor()
        raw = myo.acquire(activations, 120.0, hand_montage("r"), seed=0)
        assert band_power(raw.channel("biceps_r"), 1000.0, 20.0, 450.0) > 0.95

    def test_channel_amplitudes_follow_commands(self, activations):
        myo = Myomonitor()
        raw = myo.acquire(activations, 120.0, hand_montage("r"), seed=0)
        rms = {c: np.sqrt(np.mean(raw.channel(c) ** 2)) for c in raw.channels}
        assert rms["biceps_r"] > rms["triceps_r"]
        assert rms["upper_forearm_r"] > rms["lower_forearm_r"]

    def test_missing_activation_rejected(self, activations):
        del activations["triceps_r"]
        with pytest.raises(AcquisitionError, match="triceps_r"):
            Myomonitor().acquire(activations, 120.0, hand_montage("r"), seed=0)

    def test_deterministic(self, activations):
        myo = Myomonitor()
        a = myo.acquire(activations, 120.0, hand_montage("r"), seed=5)
        b = myo.acquire(activations, 120.0, hand_montage("r"), seed=5)
        assert a == b

    def test_channels_get_independent_noise(self, activations):
        myo = Myomonitor()
        activations["triceps_r"] = activations["biceps_r"]
        raw = myo.acquire(activations, 120.0, hand_montage("r"), seed=0)
        rho = np.corrcoef(raw.channel("biceps_r"), raw.channel("triceps_r"))[0, 1]
        assert abs(rho) < 0.2


class TestCondition:
    def test_output_rate_and_nonnegativity(self, activations):
        myo = Myomonitor()
        raw = myo.acquire(activations, 120.0, hand_montage("r"), seed=0)
        cond = myo.condition(raw)
        assert cond.fs == 120.0
        assert np.all(cond.data_volts >= 0.0)

    def test_n_out_override(self, activations):
        myo = Myomonitor()
        raw = myo.acquire(activations, 120.0, hand_montage("r"), seed=0)
        cond = myo.condition(raw, n_out=240)
        assert cond.n_samples == 240

    def test_conditioned_envelope_tracks_command(self, activations):
        """The 120 Hz conditioned stream peaks where the command peaks."""
        myo = Myomonitor()
        cond = myo.acquire_conditioned(
            activations, 120.0, hand_montage("r"), n_out=240, seed=0
        )
        biceps = cond.channel("biceps_r")
        command_peak = np.argmax(activations["biceps_r"])
        signal_peak = np.argmax(np.convolve(biceps, np.ones(21) / 21, mode="same"))
        assert abs(int(signal_peak) - int(command_peak)) < 40

    def test_amplitude_scale_matches_paper_figure2(self, activations):
        """Figure 2 shows rectified EMG of a few times 1e-5 V."""
        myo = Myomonitor()
        cond = myo.acquire_conditioned(
            activations, 120.0, hand_montage("r"), seed=0
        )
        peak = cond.data_volts.max()
        assert 1e-5 < peak < 3e-4

    def test_wrong_rate_recording_rejected(self, activations):
        myo = Myomonitor()
        raw = myo.acquire(activations, 120.0, hand_montage("r"), seed=0)
        other = Myomonitor(fs=2000.0, synthesizer=SurfaceEMGSynthesizer(fs=2000.0))
        with pytest.raises(AcquisitionError, match="rate"):
            other.condition(raw)


class TestValidation:
    def test_band_must_fit_under_nyquist(self):
        """At 800 Hz the 20-450 band exceeds Nyquist; either the synthesizer
        or the device must refuse."""
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            Myomonitor(fs=800.0, synthesizer=SurfaceEMGSynthesizer(fs=800.0))

    def test_synthesizer_rate_must_match(self):
        with pytest.raises(AcquisitionError, match="synthesizer"):
            Myomonitor(fs=2000.0)

    def test_leg_montage_works(self):
        t = np.linspace(0, 1, 120)
        acts = {"front_shin_r": np.abs(np.sin(np.pi * t)),
                "back_shin_r": 0.5 * np.abs(np.sin(np.pi * t))}
        cond = Myomonitor().acquire_conditioned(acts, 120.0, leg_montage("r"), seed=0)
        assert cond.n_channels == 2
