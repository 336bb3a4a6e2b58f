"""Surface-EMG substrate: montages, synthesis, artifacts, Myomonitor chain.

Replaces the paper's Delsys Myomonitor acquisition.  The synthesizer follows
the standard generative model of surface EMG — a band-limited stochastic
carrier amplitude-modulated by muscle activation — and the
:class:`~repro.emg.myomonitor.Myomonitor` applies the paper's exact
conditioning chain: amplify, band-pass 20–450 Hz, sample at 1000 Hz, then
full-wave rectify and down-sample to 120 Hz to match the mocap frame rate.
"""

from repro.emg.channels import (
    Electrode,
    ElectrodeMontage,
    hand_montage,
    leg_montage,
)
from repro.emg.muscle import ActivationDynamics
from repro.emg.recording import EMGRecording
from repro.emg.synthesis import SurfaceEMGSynthesizer
from repro.emg.artifacts import (
    ArtifactModel,
    BaselineDrift,
    PowerlineInterference,
    FatigueDrift,
    CompositeArtifacts,
)
from repro.emg.myomonitor import Myomonitor

__all__ = [
    "Electrode",
    "ElectrodeMontage",
    "hand_montage",
    "leg_montage",
    "ActivationDynamics",
    "EMGRecording",
    "SurfaceEMGSynthesizer",
    "ArtifactModel",
    "BaselineDrift",
    "PowerlineInterference",
    "FatigueDrift",
    "CompositeArtifacts",
    "Myomonitor",
]
