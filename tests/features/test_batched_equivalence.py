"""Differential harness: batched kernels vs. the scalar reference oracle.

The batched path (:meth:`WindowFeaturizer.features`, kernels in
:mod:`repro.features.batched`) must be **bit-identical** to the per-window
loop in ``tests/features/scalar_oracle.py`` — same LAPACK calls, same
``matmul`` contraction, same pairwise summation tree.

Coverage: every extractor with a vectorized kernel, window sizes including
``w < 3`` and ragged tails, overlapping strides and several joint counts;
hypothesis properties for the stacked sign-stabilization rule and for
strided-view / ``iter_windows`` boundary agreement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.features.base import WindowFeatures
from repro.features.batched import stabilize_signs_batched
from repro.features.combine import WindowFeaturizer
from repro.features.emg_extra import (
    MeanAbsoluteValueExtractor,
    WaveformLengthExtractor,
    ZeroCrossingExtractor,
)
from repro.features.iav import IAVExtractor
from repro.features.svd import WeightedSVDExtractor, stabilize_signs
from repro.utils.windows import iter_windows, window_batches, window_bounds
from tests.factories import synthetic_record
from tests.features.scalar_oracle import scalar_features

#: EMG extractors whose ``extract_batch`` is a vectorized kernel (not the
#: base-class loop), paired with a per-window scalar call.
EMG_EXTRACTORS = [
    IAVExtractor(),
    MeanAbsoluteValueExtractor(),
    WaveformLengthExtractor(),
    ZeroCrossingExtractor(),
    ZeroCrossingExtractor(threshold=0.05),
]


def _oracle_stack(extractor, windows):
    """The scalar oracle: extract per window, stacked."""
    return np.stack([extractor.extract(windows[i])
                     for i in range(windows.shape[0])])


class TestEMGKernelEquivalence:
    """Vectorized EMG kernels vs. per-window scalar extraction."""

    @pytest.mark.parametrize("extractor", EMG_EXTRACTORS,
                             ids=lambda e: f"{type(e).__name__}")
    @pytest.mark.parametrize("w", [1, 2, 3, 5, 12, 24])
    @pytest.mark.parametrize("n_channels", [1, 4])
    def test_float64_bit_identical(self, rng, extractor, w, n_channels):
        windows = rng.normal(size=(7, w, n_channels))
        got = extractor.extract_batch(windows)
        want = _oracle_stack(extractor, windows)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.float64

    def test_rectified_signals_match(self, rng):
        """Conditioned (non-negative) EMG — the real input — agrees too."""
        windows = np.abs(rng.normal(size=(5, 12, 4)))
        for extractor in EMG_EXTRACTORS:
            np.testing.assert_array_equal(
                extractor.extract_batch(windows),
                _oracle_stack(extractor, windows),
            )


class TestSVDKernelEquivalence:
    """Stacked weighted SVD vs. the per-joint scalar Eq. 3 oracle."""

    @pytest.mark.parametrize("w", [1, 2, 3, 6, 12, 24])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_float64_bit_identical(self, rng, w, k):
        extractor = WeightedSVDExtractor()
        windows = rng.normal(size=(6, w, 3 * k)) * 40
        got = extractor.extract_batch(windows)
        want = _oracle_stack(extractor, windows)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.float64

    def test_zero_motion_windows_inside_a_batch(self, rng):
        """Degenerate all-zero joints zero out without poisoning neighbours."""
        extractor = WeightedSVDExtractor()
        windows = rng.normal(size=(4, 10, 6))
        windows[1] = 0.0            # whole window degenerate
        windows[2, :, 3:] = 0.0     # one joint degenerate
        got = extractor.extract_batch(windows)
        want = _oracle_stack(extractor, windows)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[1], 0.0)
        np.testing.assert_array_equal(got[2, 3:], 0.0)
        assert np.all(np.isfinite(got))


def test_float32_input_is_computed_in_float64(rng):
    """Kernels and the feature bundle cast any input dtype to float64."""
    windows = (rng.normal(size=(6, 12, 6)) * 40).astype(np.float32)
    for extractor in EMG_EXTRACTORS + [WeightedSVDExtractor()]:
        got = extractor.extract_batch(windows)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, extractor.extract_batch(windows.astype(np.float64)))
    bundle = WindowFeatures(matrix=windows[0], bounds=[(0, 1)] * 12,
                            names=[str(i) for i in range(6)])
    assert bundle.matrix.dtype == np.float64


class TestFeaturizerEquivalence:
    """End-to-end: WindowFeaturizer.features vs. the per-window oracle."""

    @pytest.mark.parametrize("n_frames,window_ms,stride_ms", [
        (120, 100.0, None),    # exact division, non-overlapping
        (123, 100.0, None),    # dropped sub-half tail
        (130, 100.0, None),    # kept ragged tail
        (123, 100.0, 25.0),    # overlapping stride, several tail lengths
        (7, 100.0, None),      # stream shorter than the window
        (120, 20.0, 5.0),      # small windows, dense overlap
    ])
    def test_float64_bit_identical(self, n_frames, window_ms, stride_ms):
        record = synthetic_record("wave", n_frames=n_frames, seed=9)
        featurizer = WindowFeaturizer(window_ms=window_ms, stride_ms=stride_ms)
        a = featurizer.features(record)
        b = scalar_features(featurizer, record)
        assert a.bounds == b.bounds
        assert a.names == b.names
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.matrix.dtype == np.float64

    @pytest.mark.parametrize("use_emg,use_mocap",
                             [(True, False), (False, True)])
    def test_single_modality_bit_identical(self, use_emg, use_mocap):
        record = synthetic_record("grasp", n_frames=130, seed=2)
        kwargs = dict(window_ms=100.0, stride_ms=25.0,
                      use_emg=use_emg, use_mocap=use_mocap)
        featurizer = WindowFeaturizer(**kwargs)
        np.testing.assert_array_equal(featurizer.features(record).matrix,
                                      scalar_features(featurizer, record).matrix)


class TestStackedSignStabilizationProperties:
    """Hypothesis properties for the batched sign rule."""

    @given(arrays(np.float64, (5, 3, 3),
                  elements={"min_value": -100.0, "max_value": 100.0}))
    @settings(max_examples=60)
    def test_matches_scalar_rule(self, vt):
        batched = stabilize_signs_batched(vt)
        for i in range(vt.shape[0]):
            np.testing.assert_array_equal(batched[i], stabilize_signs(vt[i]))

    @given(arrays(np.float64, (4, 3, 3),
                  elements={"min_value": -100.0, "max_value": 100.0,
                            "allow_subnormal": False}),
           st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_sign_flip_invariance(self, vt, flips):
        """Flipping any rows before stabilization changes nothing after."""
        flipped = vt * np.asarray(flips)[None, :, None]
        np.testing.assert_array_equal(
            stabilize_signs_batched(vt), stabilize_signs_batched(flipped)
        )

    @given(arrays(np.float64, (4, 3, 3),
                  elements={"min_value": -100.0, "max_value": 100.0}))
    @settings(max_examples=60)
    def test_dominant_component_nonnegative(self, vt):
        fixed = stabilize_signs_batched(vt)
        flat = fixed.reshape(-1, fixed.shape[-1])
        dominant = np.argmax(np.abs(flat), axis=-1)
        lead = np.take_along_axis(flat, dominant[:, None], axis=-1)[:, 0]
        assert np.all(lead >= 0)

    @given(arrays(np.float64, (3, 2, 4),
                  elements={"min_value": -10.0, "max_value": 10.0}))
    @settings(max_examples=40)
    def test_idempotent(self, vt):
        once = stabilize_signs_batched(vt)
        np.testing.assert_array_equal(stabilize_signs_batched(once), once)


class TestWindowBatchBoundaries:
    """window_batches vs. iter_windows / window_bounds boundary agreement."""

    @given(n=st.integers(1, 200), window=st.integers(1, 30),
           stride=st.integers(1, 30))
    @settings(max_examples=150)
    def test_batches_cover_iter_windows_exactly(self, n, window, stride):
        data = np.arange(n * 3, dtype=float).reshape(n, 3)
        bounds = window_bounds(n, window, stride)
        batches = window_batches(data, bounds, window, stride)
        rebuilt = [w for _, batch in batches for w in batch]
        expected = list(iter_windows(data, window, stride))
        assert len(rebuilt) == len(expected) == len(bounds)
        for got, want in zip(rebuilt, expected):
            np.testing.assert_array_equal(got, want)

    @given(n=st.integers(1, 200), window=st.integers(1, 30),
           stride=st.integers(1, 30))
    @settings(max_examples=100)
    def test_first_indices_partition_bounds(self, n, window, stride):
        data = np.zeros((n, 2))
        bounds = window_bounds(n, window, stride)
        batches = window_batches(data, bounds, window, stride)
        covered = 0
        for first, batch in batches:
            assert first == covered
            covered += batch.shape[0]
            for row in range(batch.shape[0]):
                a, b = bounds[first + row]
                assert batch.shape[1] == b - a
        assert covered == len(bounds)

    def test_full_window_batch_is_zero_copy(self):
        data = np.arange(48.0).reshape(24, 2)
        bounds = window_bounds(24, 6)
        batches = window_batches(data, bounds, 6)
        assert len(batches) == 1
        assert batches[0][1].base is not None  # a view, not a copy

    def test_empty_bounds_give_no_batches(self):
        assert window_batches(np.zeros((0, 2)), [], 4) == []
