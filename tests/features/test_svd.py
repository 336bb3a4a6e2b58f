"""Weighted-SVD joint features (paper Eqs. 2–3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from repro.errors import FeatureError
from repro.features.svd import WeightedSVDExtractor, stabilize_signs, weighted_svd_feature


class TestWeightedSVDFeature:
    def test_matches_manual_computation(self, rng):
        window = rng.normal(size=(20, 3)) * 50
        _, s, vt = np.linalg.svd(window, full_matrices=False)
        vt = stabilize_signs(vt)
        expected = (s / s.sum()) @ vt
        np.testing.assert_allclose(weighted_svd_feature(window), expected, atol=1e-12)

    def test_length_three(self, rng):
        assert weighted_svd_feature(rng.normal(size=(10, 3))).shape == (3,)

    def test_zero_window_gives_zero_feature(self):
        np.testing.assert_array_equal(weighted_svd_feature(np.zeros((8, 3))), 0.0)

    def test_zero_window_keeps_working_dtype(self):
        """Every input dtype computes in, and returns, float64."""
        for dtype in (np.float32, np.float64, int):
            out = weighted_svd_feature(np.zeros((8, 3), dtype=dtype))
            assert out.dtype == np.float64

    def test_scale_invariance(self, rng):
        """Normalized singular values make the feature scale-free: the
        feature captures *geometry*, as the paper claims."""
        window = rng.normal(size=(15, 3)) * 100
        a = weighted_svd_feature(window)
        b = weighted_svd_feature(window * 7.3)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_sign_stability_against_perturbation(self, rng):
        """Tiny noise must not flip the feature's sign — the reason for the
        sign-stabilization rule."""
        window = rng.normal(size=(30, 3)) * 10
        base = weighted_svd_feature(window)
        for _ in range(10):
            noisy = window + rng.normal(0, 1e-6, size=window.shape)
            np.testing.assert_allclose(
                weighted_svd_feature(noisy), base, atol=1e-3
            )

    def test_captures_dominant_direction(self):
        """Motion along one axis puts the dominant weight on that axis."""
        t = np.linspace(0, 1, 50)
        window = np.stack([100 * t, 0 * t, 0 * t], axis=1)
        feature = weighted_svd_feature(window)
        assert abs(feature[0]) > abs(feature[1]) + abs(feature[2])

    def test_distinguishes_different_geometries(self, rng):
        t = np.linspace(0, 2 * np.pi, 40)
        circle_xy = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        line_z = np.stack([0 * t, 0 * t, t], axis=1)
        a = weighted_svd_feature(circle_xy)
        b = weighted_svd_feature(line_z)
        assert np.linalg.norm(a - b) > 0.3

    def test_short_window_few_rows(self):
        out = weighted_svd_feature(np.array([[1.0, 2.0, 3.0]]))
        assert out.shape == (3,)
        assert np.all(np.isfinite(out))

    def test_rejects_wrong_columns(self):
        with pytest.raises(FeatureError):
            weighted_svd_feature(np.zeros((5, 4)))

    @given(
        arrays(np.float64, (12, 3), elements={"min_value": -1e3, "max_value": 1e3})
    )
    @settings(max_examples=100)
    def test_feature_bounded_by_unit_vectors(self, window):
        """The feature is a convex combination of unit vectors: norm <= ~sqrt(3)."""
        feature = weighted_svd_feature(window)
        assert np.all(np.isfinite(feature))
        assert np.linalg.norm(feature) <= np.sqrt(3) + 1e-9


class TestStabilizeSigns:
    def test_dominant_component_positive(self, rng):
        vt = np.linalg.svd(rng.normal(size=(10, 3)))[2]
        fixed = stabilize_signs(vt)
        for row in fixed:
            assert row[np.argmax(np.abs(row))] > 0

    def test_idempotent(self, rng):
        vt = np.linalg.svd(rng.normal(size=(10, 3)))[2]
        once = stabilize_signs(vt)
        np.testing.assert_array_equal(stabilize_signs(once), once)

    def test_flip_invariance(self, rng):
        vt = np.linalg.svd(rng.normal(size=(10, 3)))[2]
        flipped = vt * np.array([[-1.0], [1.0], [-1.0]])
        np.testing.assert_allclose(
            stabilize_signs(vt), stabilize_signs(flipped), atol=1e-12
        )


class TestWeightedSVDExtractor:
    def test_multi_joint_layout(self, rng):
        """extract() concatenates per-joint features joint-major."""
        window = rng.normal(size=(20, 6))
        extractor = WeightedSVDExtractor()
        full = extractor.extract(window)
        assert full.shape == (6,)
        np.testing.assert_allclose(full[:3], weighted_svd_feature(window[:, :3]))
        np.testing.assert_allclose(full[3:], weighted_svd_feature(window[:, 3:]))

    def test_rejects_non_multiple_of_three(self, rng):
        with pytest.raises(FeatureError):
            WeightedSVDExtractor().extract(rng.normal(size=(10, 5)))

    def test_overflowing_gram_matrix_raises_feature_error(self, rng):
        """Finite coordinates near 1e160 overflow XᵀX: a typed error naming
        the window and joint, not numpy's LinAlgError."""
        windows = rng.normal(size=(3, 12, 6)) * 40
        windows[1, :, 3:] *= 1e160
        with pytest.raises(FeatureError, match="window 1, joint 1"):
            WeightedSVDExtractor().extract_batch(windows, np.full(3, 12))
        with pytest.raises(FeatureError, match="overflows float64"):
            weighted_svd_feature(windows[1, :, 3:])

    def test_feature_names(self):
        names = WeightedSVDExtractor().feature_names(["hand_r"])
        assert names == ["svd:hand_r:x", "svd:hand_r:y", "svd:hand_r:z"]
