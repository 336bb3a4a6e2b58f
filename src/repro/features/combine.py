"""Per-window combined feature vectors (paper Section 3.3).

"Having extracted the feature vectors for each window from motion capture
and EMG, the next step is to combine them by appending one to other.  Thus,
m-length EMG feature vector ... and n-length motion capture feature vector
... form a (m+n)-length feature vector represented as a point in
(m+n)-dimensional feature space."

:class:`WindowFeaturizer` cuts a :class:`~repro.data.record.RecordedMotion`'s
two synchronized streams into the *same* windows and emits one combined
vector per window, EMG dimensions first.

Each stream is cut into stacked equal-length window batches
(:func:`repro.utils.windows.window_batches` — one zero-copy strided batch for
the full windows plus small tail batches for the ragged remainder) and
featurized through the extractors' ``extract_batch`` kernels
(:mod:`repro.features.batched`), so the whole record needs a handful of numpy
calls instead of a Python loop per window per joint.  The per-window loop it
replaced is kept as the test oracle in ``tests/features/scalar_oracle.py``,
which this path matches bit for bit.
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
from repro.utils.windows import window_batches, window_bounds, window_size_frames

__all__ = ["WindowFeaturizer"]


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

        Both streams are cast to float64 once and cut with identical frame
        bounds; the EMG block is appended first, then the mocap block,
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
            emg_data = np.asarray(record.emg.data_volts, dtype=np.float64)
            mocap_data = np.asarray(record.mocap.matrix_mm, dtype=np.float64)
            streams = ([emg_data] if self.use_emg else []) + (
                [mocap_data] if self.use_mocap else [])
            with span("features.batched.stack", n_windows=len(bounds)):
                emg_batches = (window_batches(emg_data, bounds, window, stride)
                               if self.use_emg else None)
                mocap_batches = (window_batches(mocap_data, bounds, window,
                                                stride)
                                 if self.use_mocap else None)
            groups = emg_batches if emg_batches is not None else mocap_batches
            matrix: Optional[np.ndarray] = None
            for g, (first, _) in enumerate(groups):
                try:
                    parts = []
                    if self.use_emg:
                        parts.append(
                            self.emg_extractor.extract_batch(emg_batches[g][1])
                        )
                    if self.use_mocap:
                        parts.append(
                            self.mocap_extractor.extract_batch(
                                mocap_batches[g][1])
                        )
                except ValidationError as exc:
                    self._raise_located(record, bounds, streams, exc)
                block = np.concatenate(parts, axis=1)
                if matrix is None:
                    matrix = np.empty((len(bounds), block.shape[1]),
                                      dtype=block.dtype)
                matrix[first:first + block.shape[0]] = block
            sp.set(n_windows=matrix.shape[0], n_dims=matrix.shape[1])
            return WindowFeatures(
                matrix=matrix,
                bounds=tuple(bounds),
                names=tuple(self.feature_names(record)),
            )
