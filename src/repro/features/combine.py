"""Per-window combined feature vectors (paper Section 3.3).

"Having extracted the feature vectors for each window from motion capture
and EMG, the next step is to combine them by appending one to other.  Thus,
m-length EMG feature vector ... and n-length motion capture feature vector
... form a (m+n)-length feature vector represented as a point in
(m+n)-dimensional feature space."

:class:`WindowFeaturizer` cuts a :class:`~repro.data.record.RecordedMotion`'s
two synchronized streams into the *same* windows and emits one combined
vector per window, EMG dimensions first.

Window ``i`` starts at frame ``i * stride``, so once a stream is
zero-padded to ``starts[-1] + window`` frames (only a short last window
needs that), one strided view holds every window, ragged tails included.
Each modality's extractor featurizes it in one ``extract_batch(view,
lengths)`` call (kernels in :mod:`repro.features.batched`); ``lengths``
holds each window's true frame count, and the zero rows past it change no
feature.  The per-window loop this replaced is kept as the test oracle in
``tests/features/scalar_oracle.py``, which this path matches bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.data.record import RecordedMotion
from repro.errors import FeatureError, ValidationError
from repro.features.base import (
    EMGFeatureExtractor,
    MocapFeatureExtractor,
    WindowFeatures,
)
from repro.features.iav import IAVExtractor
from repro.features.svd import WeightedSVDExtractor
from repro.obs.config import span
from repro.utils.validation import check_in_range
from repro.utils.windows import sliding_window_view_2d, window_bounds, window_size_frames

__all__ = ["WindowFeaturizer"]


def _zero_padded(data: np.ndarray, rows: int) -> np.ndarray:
    """The first ``rows`` rows of ``data``, zero-padded if it is shorter."""
    if data.shape[0] >= rows:
        return data[:rows]
    padded = np.zeros((rows, data.shape[1]))
    padded[:data.shape[0]] = data
    return padded


class WindowFeaturizer:
    """Maps a recorded motion to its windowed combined feature matrix.

    Parameters
    ----------
    window_ms:
        Window duration in milliseconds; the paper sweeps 50–200 ms.
    emg_extractor:
        EMG feature per window; defaults to the paper's IAV.
    mocap_extractor:
        Mocap feature per joint window; defaults to the paper's weighted SVD.
    stride_ms:
        Step between window starts; defaults to ``window_ms``
        (non-overlapping, the paper's "divided into" reading).
    use_emg / use_mocap:
        Modality switches for the fusion ablation (at least one must stay
        on).
    """

    def __init__(
        self,
        window_ms: float = 100.0,
        emg_extractor: Optional[EMGFeatureExtractor] = None,
        mocap_extractor: Optional[MocapFeatureExtractor] = None,
        stride_ms: Optional[float] = None,
        use_emg: bool = True,
        use_mocap: bool = True,
    ):
        self.window_ms = check_in_range(
            window_ms, name="window_ms", low=0.0, high=10_000.0, inclusive_low=False
        )
        if stride_ms is not None:
            stride_ms = check_in_range(
                stride_ms, name="stride_ms", low=0.0, high=10_000.0,
                inclusive_low=False,
            )
        self.stride_ms = stride_ms
        if not (use_emg or use_mocap):
            raise FeatureError("at least one modality must be enabled")
        self.use_emg = use_emg
        self.use_mocap = use_mocap
        self.emg_extractor = emg_extractor or IAVExtractor()
        self.mocap_extractor = mocap_extractor or WeightedSVDExtractor()

    def window_frames(self, fps: float) -> int:
        """Window length in frames at the given frame rate."""
        return window_size_frames(self.window_ms, fps)

    def stride_frames(self, fps: float) -> int:
        """Stride in frames at the given frame rate."""
        if self.stride_ms is None:
            return self.window_frames(fps)
        return window_size_frames(self.stride_ms, fps)

    def feature_names(self, record: RecordedMotion) -> List[str]:
        """Dimension names of the combined vector (EMG first, then mocap)."""
        names: List[str] = []
        if self.use_emg:
            names.extend(self.emg_extractor.feature_names(list(record.emg.channels)))
        if self.use_mocap:
            names.extend(
                self.mocap_extractor.feature_names(list(record.mocap.segments))
            )
        return names

    def cache_fingerprint(self) -> str:
        """Stable description of everything that determines feature values.

        Combined with the stream bytes and the cache code version this forms
        the content address of a motion's features (see
        :mod:`repro.parallel.cache`).
        """
        return "|".join([
            f"window_ms={self.window_ms!r}",
            f"stride_ms={self.stride_ms!r}",
            f"use_emg={self.use_emg}",
            f"use_mocap={self.use_mocap}",
            f"emg={self.emg_extractor.cache_fingerprint()}",
            f"mocap={self.mocap_extractor.cache_fingerprint()}",
        ])

    def _window_error(
        self, record: RecordedMotion, w: int, start: int, stop: int,
        exc: Exception,
    ) -> FeatureError:
        # Most commonly NaN samples (occlusion/dropout): point at the
        # exact window and at the layer meant to handle it.
        return FeatureError(
            f"cannot featurize window {w} (frames [{start}, {stop})) "
            f"of record {record.key!r}: {exc}; if the streams are "
            "degraded, featurize through repro.robust "
            "(RobustFeaturizer or a robust_policy)"
        )

    def _no_windows_error(
        self, record: RecordedMotion, window: int, stride: int
    ) -> FeatureError:
        return FeatureError(
            f"record {record.key!r} produced no windows "
            f"({record.n_frames} frames, window={window}, stride={stride})"
        )

    def _raise_located(self, record: RecordedMotion, bounds, streams,
                       exc: Exception) -> None:
        """Re-raise a batch-level failure naming the first offending window.

        The batched kernels validate whole stacks, so a NaN burst surfaces
        as one :class:`ValidationError` for the batch; scanning the bounds
        names the first window that holds a non-finite sample.
        """
        for w, (start, stop) in enumerate(bounds):
            for data in streams:
                if not np.all(np.isfinite(data[start:stop])):
                    raise self._window_error(
                        record, w, start, stop,
                        ValidationError("window contains non-finite values "
                                        "(NaN or inf)"),
                    ) from exc
        raise self._window_error(record, 0, bounds[0][0], bounds[0][1],
                                 exc) from exc

    def features(self, record: RecordedMotion) -> WindowFeatures:
        """Combined feature matrix for every window of ``record``.

        Each enabled stream is cast to float64 once and cut with identical
        frame bounds; the EMG block is appended first, then the mocap block,
        matching the paper's (m+n) layout.
        """
        with span("features.extract", key=record.key) as sp:
            fps = record.fps
            window = self.window_frames(fps)
            stride = self.stride_frames(fps)
            with span("features.windowing", n_frames=record.n_frames,
                      window=window, stride=stride):
                bounds = window_bounds(record.n_frames, window, stride)
            if not bounds:
                raise self._no_windows_error(record, window, stride)
            pairs = []
            if self.use_emg:
                pairs.append((self.emg_extractor, np.asarray(
                    record.emg.data_volts, dtype=np.float64)))
            if self.use_mocap:
                pairs.append((self.mocap_extractor, np.asarray(
                    record.mocap.matrix_mm, dtype=np.float64)))
            rows = bounds[-1][0] + window
            lengths = np.fromiter((stop - start for start, stop in bounds),
                                  dtype=np.int64, count=len(bounds))
            with span("features.batched.stack", n_windows=len(bounds)):
                views = [(extractor, sliding_window_view_2d(
                    _zero_padded(data, rows), window, stride))
                    for extractor, data in pairs]
            try:
                parts = [extractor.extract_batch(view, lengths)
                         for extractor, view in views]
            except ValidationError as exc:
                self._raise_located(record, bounds,
                                    [data for _, data in pairs], exc)
            matrix = np.concatenate(parts, axis=1)
            sp.set(n_windows=matrix.shape[0], n_dims=matrix.shape[1])
            return WindowFeatures(
                matrix=matrix,
                bounds=tuple(bounds),
                names=tuple(self.feature_names(record)),
            )
