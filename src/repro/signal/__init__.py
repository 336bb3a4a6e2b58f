"""DSP substrate built on numpy only.

This subpackage reimplements the small amount of classical signal processing
the paper's acquisition chain needs — IIR Butterworth design via the bilinear
transform, zero-phase filtering, anti-aliased down-sampling and full-wave
rectification — without depending on scipy.

A filter runs as one linear system built from its second-order sections,
over fixed blocks of samples: a pass is a block matrix product plus a
doubling scan that carries the state from block to block (see
:mod:`repro.signal.filters`).  The test suite checks the kernel against the
per-sample difference-equation loop kept in ``tests/signal/iir_oracle.py``
and against ``scipy.signal``.
"""

from repro.signal.filters import (
    IIRFilter,
    butter_bandpass,
    butter_lowpass,
    filtfilt,
)
from repro.signal.rectify import full_wave_rectify
from repro.signal.resample import downsample_to_rate

__all__ = [
    "IIRFilter",
    "butter_bandpass",
    "butter_lowpass",
    "filtfilt",
    "full_wave_rectify",
    "downsample_to_rate",
]
