"""Baseline EMG features from the paper's related-work section.

The paper cites the classical alternatives it chose IAV over: zero crossings
(Hudgins et al.), the EMG histogram (Zardoshti-Kermani et al.), and
autoregressive model coefficients (Graupe et al.).  RMS, mean absolute value
and waveform length round out the standard Hudgins-era set.  These are used
by the ``abl-features`` ablation benchmark to show where IAV stands.

All extractors implement :class:`~repro.features.base.EMGFeatureExtractor`
and lay features out channel-major.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import FeatureError
from repro.features.base import EMGFeatureExtractor
from repro.features.batched import (
    batched_mav,
    batched_waveform_length,
    batched_zero_crossings,
)
from repro.utils.validation import check_in_range, check_positive_int, shapes

__all__ = [
    "ZeroCrossingExtractor",
    "HistogramExtractor",
    "ARCoefficientsExtractor",
    "RMSExtractor",
    "MeanAbsoluteValueExtractor",
    "WaveformLengthExtractor",
]


class ZeroCrossingExtractor(EMGFeatureExtractor):
    """Zero-crossing count per channel (Hudgins et al. 1993).

    A crossing is counted when consecutive samples change sign and their
    difference exceeds ``threshold`` (suppressing noise-floor chatter).  The
    signal is mean-centred first, so the statistic is also meaningful on
    rectified (non-negative) conditioned EMG.
    """

    features_per_channel = 1

    def __init__(self, threshold: float = 0.0):
        self.threshold = check_in_range(
            threshold, name="threshold", low=0.0, high=float("inf")
        )

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = self._validated(window)
        centred = window - window.mean(axis=0, keepdims=True)
        out = np.empty(window.shape[1])
        for c in range(window.shape[1]):
            x = centred[:, c]
            sign_change = np.signbit(x[:-1]) != np.signbit(x[1:])
            big_enough = np.abs(x[:-1] - x[1:]) > self.threshold
            out[c] = float(np.count_nonzero(sign_change & big_enough))
        return out

    @shapes(windows="(b, w, c)", lengths="(b,)")
    def extract_batch(self, windows: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
        """Vectorized zero-crossing counts for a zero-padded stack."""
        return batched_zero_crossings(windows, lengths,
                                      threshold=self.threshold)

    def feature_names(self, channels: Sequence[str]) -> List[str]:
        return [f"zc:{c}" for c in channels]


class HistogramExtractor(EMGFeatureExtractor):
    """EMG histogram (Zardoshti-Kermani et al. 1995).

    The window's amplitude range is divided into ``n_bins`` equal bins
    between 0 and ``range_scale`` times the window's maximum absolute value;
    the feature is the per-bin sample count, normalized by window length so
    different window sizes remain comparable.
    """

    def __init__(self, n_bins: int = 5, range_scale: float = 1.0):
        self.n_bins = check_positive_int(n_bins, name="n_bins", minimum=2)
        self.range_scale = check_in_range(
            range_scale, name="range_scale", low=0.0, high=10.0, inclusive_low=False
        )
        self.features_per_channel = self.n_bins

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = self._validated(window)
        out = []
        w = window.shape[0]
        for c in range(window.shape[1]):
            x = np.abs(window[:, c])
            top = self.range_scale * x.max()
            if top <= 0:
                counts = np.zeros(self.n_bins)
                counts[0] = w
            else:
                counts, _ = np.histogram(x, bins=self.n_bins, range=(0.0, top))
            out.append(counts / w)
        return np.concatenate(out)

    def feature_names(self, channels: Sequence[str]) -> List[str]:
        return [f"hist:{c}:{b}" for c in channels for b in range(self.n_bins)]


class ARCoefficientsExtractor(EMGFeatureExtractor):
    """Autoregressive model coefficients (Graupe et al. 1982).

    Fits an AR(``order``) model per channel by solving the Yule-Walker
    equations on the window's autocovariance (Levinson-style, solved
    directly).  Near-silent windows return zero coefficients.
    """

    def __init__(self, order: int = 4):
        self.order = check_positive_int(order, name="order")
        self.features_per_channel = self.order

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = self._validated(window)
        w = window.shape[0]
        if w <= self.order:
            raise FeatureError(
                f"AR({self.order}) needs a window longer than the order, got {w}"
            )
        out = []
        for c in range(window.shape[1]):
            x = window[:, c] - window[:, c].mean()
            out.append(self._fit_channel(x))
        return np.concatenate(out)

    def _fit_channel(self, x: np.ndarray) -> np.ndarray:
        n = len(x)
        # Biased autocovariance estimates r_0 .. r_order.
        r = np.array(
            [np.dot(x[: n - k], x[k:]) / n for k in range(self.order + 1)]
        )
        if r[0] <= 1e-24:
            return np.zeros(self.order)
        # Toeplitz Yule-Walker system R a = r[1:].
        toeplitz = np.empty((self.order, self.order))
        for i in range(self.order):
            for j in range(self.order):
                toeplitz[i, j] = r[abs(i - j)]
        try:
            return np.linalg.solve(toeplitz, r[1:])
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(toeplitz, r[1:], rcond=None)[0]

    def feature_names(self, channels: Sequence[str]) -> List[str]:
        return [f"ar:{c}:{k}" for c in channels for k in range(1, self.order + 1)]


class RMSExtractor(EMGFeatureExtractor):
    """Root-mean-square amplitude per channel."""

    features_per_channel = 1

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = self._validated(window)
        return np.sqrt(np.mean(window**2, axis=0))

    def feature_names(self, channels: Sequence[str]) -> List[str]:
        return [f"rms:{c}" for c in channels]


class MeanAbsoluteValueExtractor(EMGFeatureExtractor):
    """Mean absolute value per channel — IAV divided by the window length."""

    features_per_channel = 1

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = self._validated(window)
        return np.mean(np.abs(window), axis=0)

    @shapes(windows="(b, w, c)", lengths="(b,)")
    def extract_batch(self, windows: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
        """Vectorized MAV for a zero-padded stack of windows."""
        return batched_mav(windows, lengths)

    def feature_names(self, channels: Sequence[str]) -> List[str]:
        return [f"mav:{c}" for c in channels]


class WaveformLengthExtractor(EMGFeatureExtractor):
    """Waveform length per channel: total variation over the window."""

    features_per_channel = 1

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = self._validated(window)
        if window.shape[0] < 2:
            return np.zeros(window.shape[1], dtype=window.dtype)
        return np.sum(np.abs(np.diff(window, axis=0)), axis=0)

    @shapes(windows="(b, w, c)", lengths="(b,)")
    def extract_batch(self, windows: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
        """Vectorized waveform length for a zero-padded stack of windows."""
        return batched_waveform_length(windows, lengths)

    def feature_names(self, channels: Sequence[str]) -> List[str]:
        return [f"wl:{c}" for c in channels]
