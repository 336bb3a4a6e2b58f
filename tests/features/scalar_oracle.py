"""Per-window featurization: the reference the batched path is tested against.

This is the library's former per-window loop, kept verbatim as the oracle
for :meth:`repro.features.combine.WindowFeaturizer.features`: every window
is cut on its own and passed through the extractors' per-window ``extract``
calls, then the rows are stacked.  ``tests/features/test_batched_equivalence.py``
requires the batched path to match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.data.record import RecordedMotion
from repro.errors import ValidationError
from repro.features.base import WindowFeatures
from repro.features.combine import WindowFeaturizer
from repro.obs.config import span
from repro.utils.windows import window_bounds

__all__ = ["scalar_features"]


def scalar_features(featurizer: WindowFeaturizer,
                    record: RecordedMotion) -> WindowFeatures:
    """Combined feature matrix of ``record``, one window at a time."""
    with span("features.extract", key=record.key) as sp:
        fps = record.fps
        window = featurizer.window_frames(fps)
        stride = featurizer.stride_frames(fps)
        with span("features.windowing", n_frames=record.n_frames,
                  window=window, stride=stride):
            bounds = window_bounds(record.n_frames, window, stride)
        emg_data = np.asarray(record.emg.data_volts, dtype=np.float64)
        mocap_data = np.asarray(record.mocap.matrix_mm, dtype=np.float64)
        rows = []
        for w, (start, stop) in enumerate(bounds):
            try:
                parts = []
                if featurizer.use_emg:
                    parts.append(
                        featurizer.emg_extractor.extract(emg_data[start:stop]))
                if featurizer.use_mocap:
                    parts.append(
                        featurizer.mocap_extractor.extract(
                            mocap_data[start:stop])
                    )
            except ValidationError as exc:
                raise featurizer._window_error(record, w, start, stop,
                                               exc) from exc
            rows.append(np.concatenate(parts))
        if not rows:
            raise featurizer._no_windows_error(record, window, stride)
        matrix = np.vstack(rows)
        sp.set(n_windows=matrix.shape[0], n_dims=matrix.shape[1])
        return WindowFeatures(
            matrix=matrix,
            bounds=tuple(bounds),
            names=tuple(featurizer.feature_names(record)),
        )
