"""Band-power measurement for the EMG tests, on ``scipy.signal.welch``."""

import numpy as np
from scipy.signal import welch


def band_power(x, fs, low_hz, high_hz, nperseg=256):
    """Fraction of ``x``'s Welch power in ``[low_hz, high_hz]``, in [0, 1]."""
    freqs, psd = welch(x, fs=fs, nperseg=min(nperseg, len(x)))
    band = (freqs >= low_hz) & (freqs <= high_hz)
    return float(np.trapezoid(psd[band], freqs[band]) / np.trapezoid(psd, freqs))
