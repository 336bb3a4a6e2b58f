"""Property-based tests: featurizing a record as one zero-padded stack.

:meth:`repro.features.combine.WindowFeaturizer.features` zero-pads a stream
whose last window is short, cuts every window from one strided view and
passes each window's true row count as ``lengths``.  Two properties pin
that this changes no bit:

* the featurizer equals the per-window oracle in
  ``tests/features/scalar_oracle.py`` byte for byte, with the same bounds in
  the same order, over record lengths, windows, strides, channel and joint
  counts, modality switches and every EMG × mocap extractor pair; where the
  oracle raises (AR on a window no longer than its order), the featurizer
  raises the same exception type;
* appending zero rows to a stack leaves :func:`stacked_weighted_svd` and
  the EMG kernels byte-identical, for windows of one row and up, one or
  more channels, and random, static, zero and collinear joints at
  magnitudes from 1e-3 to 1e4.

Skipped entirely when ``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import ReproError  # noqa: E402
from repro.features.batched import (  # noqa: E402
    batched_iav,
    batched_mav,
    batched_waveform_length,
    batched_zero_crossings,
    stacked_weighted_svd,
)
from repro.features.combine import WindowFeaturizer  # noqa: E402
from repro.features.emg_extra import (  # noqa: E402
    ARCoefficientsExtractor,
    HistogramExtractor,
    MeanAbsoluteValueExtractor,
    RMSExtractor,
    WaveformLengthExtractor,
    ZeroCrossingExtractor,
)
from repro.features.iav import IAVExtractor  # noqa: E402
from repro.features.pca import PCAJointExtractor  # noqa: E402
from repro.features.svd import WeightedSVDExtractor  # noqa: E402
from tests.factories import synthetic_record  # noqa: E402
from tests.features.scalar_oracle import scalar_features  # noqa: E402

EMG_EXTRACTORS = [
    IAVExtractor(),
    MeanAbsoluteValueExtractor(),
    WaveformLengthExtractor(),
    ZeroCrossingExtractor(),
    ZeroCrossingExtractor(threshold=1e-6),
    RMSExtractor(),
    HistogramExtractor(),
    ARCoefficientsExtractor(order=2),
]
MOCAP_EXTRACTORS = [WeightedSVDExtractor(), PCAJointExtractor()]
EMG_KERNELS = [batched_iav, batched_mav, batched_waveform_length,
               batched_zero_crossings]

#: At 1000 Hz a window or stride of ``n`` ms is exactly ``n`` frames.
FPS = 1000.0


@settings(max_examples=200, deadline=None)
@given(
    n_frames=st.integers(1, 199),
    window=st.integers(1, 30),
    stride=st.integers(1, 36),
    n_channels=st.integers(1, 4),
    n_segments=st.integers(1, 3),
    emg=st.sampled_from(EMG_EXTRACTORS),
    mocap=st.sampled_from(MOCAP_EXTRACTORS),
    modalities=st.sampled_from([(True, True), (True, False), (False, True)]),
    seed=st.integers(0, 2**16),
)
def test_featurizer_matches_per_window_oracle(
    n_frames, window, stride, n_channels, n_segments, emg, mocap, modalities,
    seed,
):
    record = synthetic_record("wave", n_frames=n_frames, n_segments=n_segments,
                              n_channels=n_channels, fps=FPS, seed=seed)
    use_emg, use_mocap = modalities
    featurizer = WindowFeaturizer(
        window_ms=float(window), stride_ms=float(stride), emg_extractor=emg,
        mocap_extractor=mocap, use_emg=use_emg, use_mocap=use_mocap,
    )
    assert featurizer.window_frames(FPS) == window
    try:
        want = scalar_features(featurizer, record)
    except ReproError as exc:
        with pytest.raises(type(exc)):
            featurizer.features(record)
        return
    got = featurizer.features(record)
    assert got.bounds == want.bounds
    assert got.names == want.names
    assert got.matrix.tobytes() == want.matrix.tobytes()


def _joint(kind: str, rng: np.random.Generator, batch: int, w: int) -> np.ndarray:
    """A ``(batch, w, 3)`` joint window of the given kind."""
    if kind == "zero":
        return np.zeros((batch, w, 3))
    if kind == "static":
        return np.repeat(rng.normal(size=(batch, 1, 3)), w, axis=1)
    if kind == "collinear":
        return rng.normal(size=(batch, w, 1)) * rng.normal(size=(batch, 1, 3))
    return rng.normal(size=(batch, w, 3))


def _padded(windows: np.ndarray, extra: int) -> np.ndarray:
    zeros = np.zeros((windows.shape[0], extra, windows.shape[2]))
    return np.concatenate([windows, zeros], axis=1)


@settings(max_examples=200, deadline=None)
@given(
    w=st.integers(1, 24),
    extra=st.integers(1, 12),
    batch=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(["random", "static", "zero", "collinear"]),
                   min_size=1, max_size=4),
    n_channels=st.integers(1, 8),
    scale_log10=st.floats(-3.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_trailing_zero_rows_change_no_bit(w, extra, batch, kinds, n_channels,
                                          scale_log10, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** scale_log10
    joints = np.concatenate([_joint(kind, rng, batch, w) for kind in kinds],
                            axis=2) * scale
    assert (stacked_weighted_svd(_padded(joints, extra)).tobytes()
            == stacked_weighted_svd(joints).tobytes())

    emg = rng.normal(size=(batch, w, n_channels)) * scale
    lengths = np.full(batch, w)
    for kernel in EMG_KERNELS:
        assert (kernel(_padded(emg, extra), lengths).tobytes()
                == kernel(emg, lengths).tobytes()), kernel.__name__
