"""DSP substrate built on numpy only.

This subpackage reimplements the small amount of classical signal processing
the paper's acquisition chain needs — IIR Butterworth design via the bilinear
transform, zero-phase filtering, anti-aliased decimation and full-wave
rectification — without depending on scipy.

Filters run as cascades of second-order sections over fixed blocks of
samples: each block is a matrix product, and a Python loop only carries each
section's two-element state from block to block (see
:mod:`repro.signal.filters`).  The test suite checks the kernel against the
per-sample difference-equation loop kept in ``tests/signal/iir_oracle.py``
and against ``scipy.signal``.
"""

from repro.signal.filters import (
    IIRFilter,
    butter_bandpass,
    butter_highpass,
    butter_lowpass,
    filtfilt,
)
from repro.signal.rectify import full_wave_rectify
from repro.signal.resample import decimate, downsample_to_rate

__all__ = [
    "IIRFilter",
    "butter_bandpass",
    "butter_highpass",
    "butter_lowpass",
    "filtfilt",
    "full_wave_rectify",
    "decimate",
    "downsample_to_rate",
]
