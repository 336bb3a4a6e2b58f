"""Feature-extractor interfaces and the per-motion window-feature bundle."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import FeatureError
from repro.features.batched import check_window_lengths
from repro.utils.validation import check_array, shapes

__all__ = ["EMGFeatureExtractor", "MocapFeatureExtractor", "WindowFeatures"]


class EMGFeatureExtractor(abc.ABC):
    """Extracts a fixed-length feature vector from one EMG window.

    A window is an ``(w, n_channels)`` array of conditioned EMG samples; the
    extractor returns ``features_per_channel * n_channels`` values laid out
    channel-major (all features of channel 0, then channel 1, ...).
    """

    #: Number of feature values produced per channel.
    features_per_channel: int = 1

    @abc.abstractmethod
    def extract(self, window: np.ndarray) -> np.ndarray:
        """Feature vector for one ``(w, n_channels)`` window."""

    @shapes(windows="(b, w, c)", lengths="(b,)")
    def extract_batch(self, windows: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
        """Feature vectors for a zero-padded ``(batch, w, n_channels)`` stack.

        Window ``i`` holds ``lengths[i]`` true rows, then zeros.  The
        default loops :meth:`extract` over each window's true rows;
        extractors with a vectorized kernel (IAV, MAV, waveform length,
        zero crossings — see :mod:`repro.features.batched`) override it.
        """
        windows = check_array(windows, name="windows", ndim=3, dtype=None,
                              allow_empty=False)
        lengths = check_window_lengths(lengths, windows.shape[1])
        return np.stack([self.extract(windows[i, :lengths[i]])
                         for i in range(windows.shape[0])])

    def feature_names(self, channels: Sequence[str]) -> List[str]:
        """Names of the produced dimensions, channel-major."""
        kind = type(self).__name__
        if self.features_per_channel == 1:
            return [f"{kind}:{c}" for c in channels]
        return [
            f"{kind}:{c}:{i}"
            for c in channels
            for i in range(self.features_per_channel)
        ]

    def _validated(self, window: np.ndarray) -> np.ndarray:
        window = check_array(window, name="window", ndim=2, allow_empty=False)
        if window.shape[0] < 1:
            raise FeatureError("EMG window must contain at least one sample")
        return window

    def cache_fingerprint(self) -> str:
        """Stable identity of this extractor for feature-cache keys.

        The default covers stateless extractors (class identity + layout);
        extractors with parameters that change the produced values must
        override this to include them.
        """
        cls = type(self)
        return f"{cls.__module__}.{cls.__qualname__}/fpc={self.features_per_channel}"


class MocapFeatureExtractor(abc.ABC):
    """Extracts a fixed-length feature vector from one joint-matrix window.

    A joint-matrix window is ``(w, 3)`` — one joint's X/Y/Z positions over
    the window (the paper's "joint matrix" cut to a window).
    """

    #: Number of feature values produced per joint.
    features_per_joint: int = 3

    @abc.abstractmethod
    def extract_joint(self, window: np.ndarray) -> np.ndarray:
        """Feature vector for one ``(w, 3)`` joint window."""

    def extract(self, window: np.ndarray) -> np.ndarray:
        """Features for an ``(w, 3k)`` multi-joint window, joint-major."""
        window = check_array(window, name="window", ndim=2, allow_empty=False)
        if window.shape[1] % 3 != 0:
            raise FeatureError(
                f"multi-joint window must have 3 columns per joint, "
                f"got {window.shape[1]}"
            )
        parts = [
            self.extract_joint(window[:, 3 * j : 3 * j + 3])
            for j in range(window.shape[1] // 3)
        ]
        return np.concatenate(parts)

    @shapes(windows="(b, w, c)", lengths="(b,)")
    def extract_batch(self, windows: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
        """Features for a zero-padded ``(batch, w, 3k)`` multi-joint stack.

        Window ``i`` holds ``lengths[i]`` true rows, then zeros.  The
        default loops :meth:`extract` over each window's true rows; the
        weighted SVD overrides it with a stacked kernel.
        """
        windows = check_array(windows, name="windows", ndim=3, dtype=None,
                              allow_empty=False)
        lengths = check_window_lengths(lengths, windows.shape[1])
        return np.stack([self.extract(windows[i, :lengths[i]])
                         for i in range(windows.shape[0])])

    def feature_names(self, segments: Sequence[str]) -> List[str]:
        """Names of the produced dimensions, joint-major."""
        kind = type(self).__name__
        return [
            f"{kind}:{s}:{i}"
            for s in segments
            for i in range(self.features_per_joint)
        ]

    def cache_fingerprint(self) -> str:
        """Stable identity of this extractor for feature-cache keys.

        The default covers stateless extractors (class identity + layout);
        extractors with parameters that change the produced values must
        override this to include them.
        """
        cls = type(self)
        return f"{cls.__module__}.{cls.__qualname__}/fpj={self.features_per_joint}"


@dataclass(frozen=True)
class WindowFeatures:
    """The windowed feature matrix of one motion.

    Attributes
    ----------
    matrix:
        ``(n_windows, d)`` combined feature vectors — the points mapped into
        the paper's (m+n)-dimensional feature space, coerced to float64.
    bounds:
        The frame range ``(start, stop)`` of each window.
    names:
        Dimension names (EMG dimensions first, then mocap, as in the paper's
        "appending one to the other").
    """

    matrix: np.ndarray
    bounds: Tuple[Tuple[int, int], ...]
    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        matrix = check_array(self.matrix, name="matrix", ndim=2)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        object.__setattr__(self, "names", tuple(self.names))
        if matrix.shape[0] != len(self.bounds):
            raise FeatureError(
                f"{matrix.shape[0]} feature rows but {len(self.bounds)} windows"
            )
        if matrix.shape[1] != len(self.names):
            raise FeatureError(
                f"{matrix.shape[1]} feature columns but {len(self.names)} names"
            )

    @property
    def n_windows(self) -> int:
        """Number of windows."""
        return self.matrix.shape[0]

    @property
    def n_dims(self) -> int:
        """Dimensionality of the combined feature space."""
        return self.matrix.shape[1]
