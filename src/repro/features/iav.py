"""Integral of Absolute Value — the paper's EMG feature (Eq. 1).

"We follow a traditional measure to extract the feature of the EMG using the
Integral of Absolute Value (IAV).  We calculate IAV separately for individual
channel. ... Let x_i be the sample of an EMG signal/data and w be the window
size for computing the feature components":

.. math::  IAV_k = \\sum_{i=1}^{w} |x_i|

computed over the ``k``-th window of each channel.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.features.base import EMGFeatureExtractor
from repro.features.batched import batched_iav
from repro.obs.config import span
from repro.utils.validation import check_array, shapes

__all__ = ["integral_absolute_value", "IAVExtractor"]


def integral_absolute_value(window: np.ndarray) -> np.ndarray:
    """IAV of one ``(w, n_channels)`` window, per channel.

    The input is conditioned (already rectified) EMG, but the absolute value
    is applied regardless so the function also accepts raw signals.  The
    sum is taken in float64, whatever the input dtype.
    """
    window = check_array(window, name="window", ndim=2, allow_empty=False)
    return np.sum(np.abs(window), axis=0)


class IAVExtractor(EMGFeatureExtractor):
    """Per-channel IAV feature (one value per channel), Eq. 1 of the paper."""

    features_per_channel = 1

    @shapes(window="(w, c)")
    def extract(self, window: np.ndarray) -> np.ndarray:
        """IAV per channel for one window."""
        with span("features.iav"):
            return integral_absolute_value(self._validated(window))

    @shapes(windows="(b, w, c)")
    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        """Vectorized IAV for a ``(batch, w, n_channels)`` window stack."""
        with span("features.iav"):
            with span("features.batched.emg", n_windows=len(windows)):
                return batched_iav(windows)

    def feature_names(self, channels: Sequence[str]) -> List[str]:
        """``iav:<channel>`` per channel."""
        return [f"iav:{c}" for c in channels]
