"""The 2c motion signature (paper Eqs. 5–8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FeatureError
from repro.core.signature import MotionSignature, motion_signature


def normalize(u):
    return u / u.sum(axis=1, keepdims=True)


class TestMotionSignature:
    def test_hand_example(self):
        """Three windows, two clusters, worked by hand."""
        u = np.array([
            [0.9, 0.1],   # highest 0.9 -> cluster 0
            [0.6, 0.4],   # highest 0.6 -> cluster 0
            [0.2, 0.8],   # highest 0.8 -> cluster 1
        ])
        sig = motion_signature(u)
        np.testing.assert_allclose(sig.minima, [0.6, 0.8])
        np.testing.assert_allclose(sig.maxima, [0.9, 0.8])
        np.testing.assert_array_equal(sig.window_clusters, [0, 0, 1])
        np.testing.assert_allclose(sig.window_memberships, [0.9, 0.6, 0.8])

    def test_unused_cluster_contributes_zero(self):
        """Clusters winning no window sit at (0, 0), as in Figure 4."""
        u = np.array([[0.7, 0.2, 0.1]])
        sig = motion_signature(u)
        np.testing.assert_allclose(sig.minima, [0.7, 0.0, 0.0])
        np.testing.assert_allclose(sig.maxima, [0.7, 0.0, 0.0])
        assert sig.occupied_clusters() == (0,)

    def test_vector_layout_interleaved_min_max(self):
        u = np.array([[0.9, 0.1], [0.2, 0.8]])
        sig = motion_signature(u)
        np.testing.assert_allclose(sig.vector, [0.9, 0.9, 0.8, 0.8])
        assert len(sig.vector) == 2 * sig.n_clusters

    def test_single_window_min_equals_max(self):
        u = normalize(np.array([[0.5, 0.3, 0.2]]))
        sig = motion_signature(u)
        np.testing.assert_allclose(sig.minima[0], sig.maxima[0])

    def test_expected_cluster_count_checked(self):
        u = np.array([[0.6, 0.4]])
        with pytest.raises(FeatureError, match="clusters"):
            motion_signature(u, n_clusters=5)

    def test_rejects_out_of_range_memberships(self):
        with pytest.raises(FeatureError):
            motion_signature(np.array([[1.4, -0.4]]))

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            motion_signature(np.zeros((0, 3)))

    def test_min_cannot_exceed_max_in_constructor(self):
        with pytest.raises(FeatureError):
            MotionSignature(
                minima=np.array([0.9]),
                maxima=np.array([0.5]),
                window_clusters=np.array([0]),
                window_memberships=np.array([0.9]),
            )

    @given(
        n_windows=st.integers(1, 40),
        c=st.integers(2, 10),
        seed=st.integers(0, 1000),
        n_tied=st.integers(0, 5),
    )
    @settings(max_examples=100)
    def test_invariants_on_random_memberships(self, n_windows, c, seed, n_tied):
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.01, 1.0, size=(n_windows, c))
        # Tie the two largest memberships of some rows; Eq. 6's argmax
        # takes the first of them.
        for row in rng.choice(n_windows, size=min(n_tied, n_windows),
                              replace=False):
            u[row, np.argsort(u[row])[-2:]] = u[row].max()
        u = normalize(u)
        sig = motion_signature(u)
        # Eqs. 7-8 as a per-cluster loop over the windows each cluster won.
        highest, winners = u.max(axis=1), u.argmax(axis=1)
        want = np.zeros((2, c))
        for cluster in range(c):
            won = highest[winners == cluster]
            if won.size:
                want[:, cluster] = won.min(), won.max()
        assert np.stack([sig.minima, sig.maxima]).tobytes() == want.tobytes()
        np.testing.assert_array_equal(sig.window_clusters, winners)
        assert sig.n_clusters == c
        assert np.all(sig.minima <= sig.maxima)
        assert np.all((sig.minima >= 0) & (sig.maxima <= 1))
        # Eq. 5: highest membership per window >= 1/c.
        assert np.all(sig.window_memberships >= 1.0 / c - 1e-12)
        # Occupied clusters carry positive maxima, unused carry zeros.
        occupied = set(sig.window_clusters.tolist())
        for cluster in range(c):
            if cluster in occupied:
                assert sig.maxima[cluster] > 0
            else:
                assert sig.maxima[cluster] == sig.minima[cluster] == 0

    def test_signature_separates_motions_by_cluster_usage(self):
        """Motions occupying different clusters get distant signatures —
        the mechanism Figure 4 illustrates."""
        a = motion_signature(np.array([[0.9, 0.05, 0.05]] * 4))
        b = motion_signature(np.array([[0.05, 0.9, 0.05]] * 4))
        assert np.linalg.norm(a.vector - b.vector) > 1.0
