"""Incremental motion-database maintenance."""

import numpy as np
import pytest

from repro.core.incremental import IncrementalMotionDatabase
from repro.core.model import MotionClassifier
from repro.errors import NotFittedError, RetrievalError


@pytest.fixture
def clusterer():
    return "fcm"


@pytest.fixture
def fitted(toy_dataset, clusterer):
    return MotionClassifier(n_clusters=4, window_ms=100.0,
                            clusterer=clusterer).fit(toy_dataset, seed=0)


@pytest.fixture
def db(fitted):
    return IncrementalMotionDatabase(fitted)


class TestConstruction:
    def test_starts_with_training_database(self, db, toy_dataset):
        assert len(db) == len(toy_dataset)
        assert db.labels == toy_dataset.labels

    def test_requires_fitted_classifier(self, toy_dataset):
        with pytest.raises(NotFittedError):
            IncrementalMotionDatabase(MotionClassifier(n_clusters=4))

    def test_queries_match_static_classifier(self, db, fitted, toy_dataset):
        for record in list(toy_dataset)[:4]:
            static = [n.key for n in fitted.kneighbors(record, k=3)]
            dynamic = [n.key for n in db.kneighbors(record, k=3)]
            assert static == dynamic


class TestAdd:
    @pytest.mark.parametrize("clusterer", ["fcm", "kmeans"])
    def test_added_motion_is_retrievable(self, db, make_record, clusterer):
        """The added signature is the one the same motion queries with."""
        new = make_record(label="beta", trial=77, seed=50, frequency=1.4)
        vid = db.add(new)
        # One-hot kmeans signatures tie, so the copy need not rank first.
        hits = [n for n in db.kneighbors(new, k=len(db)) if n.key == new.key]
        assert len(hits) == 1
        assert hits[0].distance == pytest.approx(0.0, abs=1e-9)
        if clusterer == "fcm":
            assert db.kneighbors(new, k=1)[0].key == new.key
        assert len(db) == vid + 1 or new.key == db.kneighbors(new, k=1)[0].key

    def test_added_motion_improves_its_class(self, db, make_record):
        new = make_record(label="gamma", trial=88, seed=60, frequency=2.4)
        db.add(new)
        probe = make_record(label="gamma", trial=89, seed=61, frequency=2.4)
        assert db.classify(probe) == "gamma"

    def test_duplicate_key_rejected(self, db, toy_dataset, make_record):
        clone = make_record(label="alpha", trial=0, seed=0, frequency=0.7,
                            participant="p0")
        with pytest.raises(RetrievalError, match="already indexed"):
            db.add(clone)

    def test_new_class_supported(self, db, make_record):
        new = make_record(label="delta", trial=0, seed=70, frequency=3.3)
        db.add(new)
        assert "delta" in db.labels
        assert db.classify(new) == "delta"


class TestRemove:
    def test_removed_motion_not_retrieved(self, db, fitted, toy_dataset):
        record = toy_dataset[0]
        assert db.remove(0)
        keys = [n.key for n in db.kneighbors(record, k=3)]
        assert record.key not in keys
        assert len(db) == len(toy_dataset) - 1

    def test_remove_missing(self, db):
        assert not db.remove(999)

    def test_key_can_be_readded_after_removal(self, db, toy_dataset):
        record = toy_dataset[0]
        db.remove(0)
        vid = db.add(record)
        assert db.kneighbors(record, k=1)[0].key == record.key
        assert vid >= len(toy_dataset)


class TestDriftTracking:
    def test_no_drift_initially(self, db):
        assert not db.refit_recommended

    @pytest.mark.parametrize("clusterer", ["fcm", "kmeans"])
    def test_in_distribution_additions_keep_drift_low(self, db, make_record,
                                                      clusterer):
        for trial in range(3):
            db.add(make_record(label="alpha", trial=100 + trial,
                               seed=200 + trial, frequency=0.7))
        assert not db.refit_recommended

    def test_out_of_distribution_additions_trigger_refit(
        self, db, make_record, rng
    ):
        """Motions from an unseen regime have low membership everywhere."""
        from repro.data.record import RecordedMotion
        from repro.emg.recording import EMGRecording
        from repro.mocap.trajectory import MotionCaptureData

        for trial in range(4):
            gen = np.random.default_rng(300 + trial)
            n = 120
            mocap = MotionCaptureData(
                segments=tuple(f"seg{j}" for j in range(4)),
                matrix_mm=gen.normal(scale=4000.0, size=(n, 12)),
                fps=120.0,
            )
            emg = EMGRecording(
                channels=tuple(f"ch{j}" for j in range(4)),
                data_volts=np.abs(gen.normal(scale=5e-3, size=(n, 4))),
                fs=120.0,
            )
            alien = RecordedMotion(label="alien", participant_id="px",
                                   trial_id=trial, mocap=mocap, emg=emg)
            db.add(alien)
        assert db.refit_recommended
