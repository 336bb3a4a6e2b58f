"""The end-to-end MotionClassifier (paper Sections 3–4)."""

import numpy as np
import pytest

from repro.core.model import MotionClassifier
from repro.errors import ClusteringError, NotFittedError


@pytest.fixture
def fitted(toy_dataset):
    model = MotionClassifier(n_clusters=4, window_ms=100.0)
    model.fit(toy_dataset, seed=0)
    return model


class TestFit:
    def test_signature_matrix_shape(self, fitted, toy_dataset):
        sigs = fitted.database_signatures
        assert sigs.shape == (len(toy_dataset), 2 * 4)
        assert fitted.database_labels == [r.label for r in toy_dataset]

    def test_unfitted_access_raises(self, toy_dataset):
        model = MotionClassifier(n_clusters=4)
        with pytest.raises(NotFittedError):
            model.centers
        with pytest.raises(NotFittedError):
            model.classify(toy_dataset[0])
        with pytest.raises(NotFittedError):
            model.signature(toy_dataset[0])

    def test_empty_database_rejected(self):
        from repro.data.dataset import MotionDataset

        with pytest.raises(ClusteringError):
            MotionClassifier(n_clusters=2).fit(MotionDataset(name="empty"))

    def test_too_many_clusters_rejected(self, make_record):
        from repro.data.dataset import MotionDataset

        tiny = MotionDataset(name="tiny", records=[make_record(n_frames=24)])
        with pytest.raises(ClusteringError, match="windows"):
            MotionClassifier(n_clusters=50, window_ms=100.0).fit(tiny)

    def test_deterministic_given_seed(self, toy_dataset):
        a = MotionClassifier(n_clusters=4).fit(toy_dataset, seed=2)
        b = MotionClassifier(n_clusters=4).fit(toy_dataset, seed=2)
        np.testing.assert_array_equal(a.database_signatures, b.database_signatures)


class TestQueries:
    def test_training_record_classified_correctly(self, fitted, toy_dataset):
        """A database motion retrieves itself (distance 0) and its class."""
        for record in list(toy_dataset)[:3]:
            assert fitted.classify(record) == record.label
            top = fitted.kneighbors(record, k=1)[0]
            assert top.key == record.key
            assert top.distance == pytest.approx(0.0, abs=1e-9)

    def test_unseen_trial_classified(self, fitted, make_record):
        query = make_record(label="beta", trial=99, seed=77, frequency=1.4)
        assert fitted.classify(query) == "beta"

    def test_kneighbors_sorted_by_distance(self, fitted, toy_dataset):
        neighbors = fitted.kneighbors(toy_dataset[0], k=5)
        distances = [n.distance for n in neighbors]
        assert distances == sorted(distances)

    def test_knn_class_fraction_range(self, fitted, toy_dataset):
        frac = fitted.knn_class_fraction(toy_dataset[0], k=4)
        assert 0.0 <= frac <= 1.0

    def test_signature_matches_database_row_for_training_data(
        self, fitted, toy_dataset
    ):
        """Eq. 9 on a training motion's windows reproduces its stored
        signature (memberships equal the FCM's converged U rows)."""
        sig = fitted.signature(toy_dataset[0]).vector
        np.testing.assert_allclose(
            sig, fitted.database_signatures[0], atol=1e-4
        )

    def test_classify_with_k_vote(self, fitted, toy_dataset):
        label = fitted.classify(toy_dataset[0], k=3)
        assert label in toy_dataset.labels


class TestConfigurations:
    def test_kmeans_ablation_runs(self, toy_dataset):
        model = MotionClassifier(n_clusters=4, clusterer="kmeans")
        model.fit(toy_dataset, seed=0)
        assert model.classify(toy_dataset[0]) == toy_dataset[0].label
        # Crisp memberships -> signature entries are 0 or 1.
        sig = model.signature(toy_dataset[0]).vector
        assert set(np.round(sig, 6)) <= {0.0, 1.0}

    def test_unknown_clusterer_rejected(self, toy_dataset):
        with pytest.raises(ClusteringError, match="unknown clusterer"):
            MotionClassifier(n_clusters=4, clusterer="dbscan").fit(toy_dataset)

    def test_custom_clusterer_factory(self, toy_dataset):
        from repro.fuzzy.cmeans import FuzzyCMeans

        # The classifier's m drives the query-side Eq. 9 memberships and must
        # match the fuzzifier the custom factory uses.
        model = MotionClassifier(
            n_clusters=4, m=1.5,
            clusterer=lambda c: FuzzyCMeans(n_clusters=c, m=1.5),
        )
        model.fit(toy_dataset, seed=0)
        assert model.classify(toy_dataset[0]) == toy_dataset[0].label

    def test_scaler_mode_none_still_runs(self, toy_dataset):
        model = MotionClassifier(n_clusters=4, scaler_mode="none")
        model.fit(toy_dataset, seed=0)
        assert model.classify(toy_dataset[0]) in toy_dataset.labels

    def test_signature_length_tracks_cluster_count(self, toy_dataset):
        for c in (2, 6):
            model = MotionClassifier(n_clusters=c).fit(toy_dataset, seed=0)
            assert model.database_signatures.shape[1] == 2 * c
