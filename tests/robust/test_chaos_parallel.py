"""Chaos tests for the parallel feature pipeline and its cache.

The fan-out promises in :mod:`repro.parallel` read nicely when everything
cooperates; this module asks what happens when it does not — workers that
raise or emit NaN mid-fan-out, cache writers racing on one key, the cache
directory vanishing (or turning into a file) between lookup and store.
The contract under test: **clean typed propagation or full recovery,
never a hang, never a partial merge, never a poisoned cache entry.**

Run with ``pytest -m chaos``.
"""

from __future__ import annotations

import shutil
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.model import MotionClassifier
from repro.data.dataset import MotionDataset
from repro.errors import (
    CacheError,
    FeatureError,
    ReproError,
    SerializationError,
    ValidationError,
)
from repro.features.base import WindowFeatures
from repro.features.combine import WindowFeaturizer
from repro.parallel.cache import FeatureCache, record_cache_key
from repro.parallel.runner import featurize_records
from tests.factories import synthetic_record, toy_motion_dataset

pytestmark = pytest.mark.chaos

#: Serial, and process pools of two and four workers.
N_JOBS = (1, 2, 4)


class ExplodingFeaturizer:
    """Featurizes normally until it meets the poisoned record, then raises.

    Module-level (picklable) so the process pool can ship it to workers.
    """

    def __init__(self, poison_key: str):
        self.poison_key = poison_key
        self.base = WindowFeaturizer(window_ms=100.0)

    def cache_fingerprint(self) -> str:
        return f"exploding/{self.base.cache_fingerprint()}"

    def features(self, record):
        if record.key == self.poison_key:
            raise ValidationError(f"worker exploded on {record.key}")
        return self.base.features(record)


class NaNFeaturizer:
    """Returns a raw NaN feature object, bypassing WindowFeatures validation.

    Models a buggy third-party featurizer: the duck-typed protocol only
    promises ``.features()`` and ``.cache_fingerprint()``, so the model's
    own finite-feature guard is the last line of defense.
    """

    window_ms = 100.0
    stride_ms = None

    def cache_fingerprint(self) -> str:
        return "nan-featurizer"

    def features(self, record):
        base = WindowFeaturizer(window_ms=100.0).features(record)
        matrix = base.matrix.copy()
        matrix[0, :] = np.nan
        return SimpleNamespace(matrix=matrix, bounds=base.bounds,
                               names=base.names, n_windows=base.n_windows)


class NoneFeaturizer:
    """Returns None — the worst-behaved featurizer the protocol allows."""

    def cache_fingerprint(self) -> str:
        return "none-featurizer"

    def features(self, record):
        return None


class StrictNaNFeaturizer:
    """Builds a real WindowFeatures from NaN values — must raise *inside*."""

    def cache_fingerprint(self) -> str:
        return "strict-nan-featurizer"

    def features(self, record):
        base = WindowFeaturizer(window_ms=100.0).features(record)
        matrix = base.matrix.copy()
        matrix[0, :] = np.nan
        return WindowFeatures(matrix=matrix, bounds=base.bounds,
                              names=base.names)


@pytest.fixture()
def records():
    return [synthetic_record("walk", n_frames=240, seed=s, trial=s)
            for s in range(4)]


# ----------------------------------------------------------------------
# Workers that raise / return garbage mid-fan-out
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_jobs", N_JOBS)
def test_worker_exception_propagates_cleanly(n_jobs, records):
    featurizer = ExplodingFeaturizer(poison_key=records[2].key)
    with pytest.raises(ValidationError, match="exploded"):
        featurize_records(featurizer, records, n_jobs=n_jobs)


@pytest.mark.parametrize("n_jobs", N_JOBS)
def test_worker_nan_features_raise_typed_in_worker(n_jobs, records):
    """NaN matrices die at WindowFeatures construction, inside the worker."""
    featurizer = StrictNaNFeaturizer()
    with pytest.raises(ValidationError):
        featurize_records(featurizer, records, n_jobs=n_jobs)


def test_unpicklable_featurizer_raises_typed_error(records):
    """A featurizer that cannot reach a worker process is a typed error."""
    featurizer = WindowFeaturizer(window_ms=100.0)
    featurizer.hook = lambda record: record  # closures do not pickle
    with pytest.raises(SerializationError, match="process pool"):
        featurize_records(featurizer, records, n_jobs=2)
    # One job never pickles, so the same featurizer works serially.
    assert len(featurize_records(featurizer, records)) == len(records)


def test_worker_exception_leaves_no_cache_entries(records, tmp_path):
    """A failed fan-out must not leave behind partially stored features."""
    cache = FeatureCache(tmp_path / "cache")
    featurizer = ExplodingFeaturizer(poison_key=records[1].key)
    with pytest.raises(ValidationError):
        featurize_records(featurizer, records, n_jobs=2, cache=cache)
    stored = list((tmp_path / "cache").rglob("*.npz"))
    assert stored == []
    assert cache.stats.stores == 0


def test_none_returning_featurizer_is_a_typed_error_not_a_hole(records):
    with pytest.raises(FeatureError, match="partial merge"):
        featurize_records(NoneFeaturizer(), records)


def test_none_features_never_stored(records, tmp_path):
    cache = FeatureCache(tmp_path / "cache")
    with pytest.raises(FeatureError):
        featurize_records(NoneFeaturizer(), records, cache=cache)
    assert list((tmp_path / "cache").rglob("*.npz")) == []


def test_model_fit_guards_against_nan_duck_featurizer():
    """A duck-typed featurizer smuggling NaN past validation hits the
    model's own finite guard — a typed FeatureError, not a silent NaN fit."""
    dataset = toy_motion_dataset()
    model = MotionClassifier(n_clusters=4, featurizer=NaNFeaturizer())
    with pytest.raises(FeatureError, match="non-finite"):
        model.fit(dataset, seed=0)


def test_nan_record_fails_typed_end_to_end(records):
    """A NaN stream with no robust policy raises ReproError everywhere."""
    from repro.robust import NaNBurst

    faulted = NaNBurst(stream="emg", bursts_per_s=5.0).apply(records[0], seed=0)
    featurizer = WindowFeaturizer(window_ms=100.0)
    with pytest.raises(ReproError, match="robust"):
        featurize_records(featurizer, [faulted])


# ----------------------------------------------------------------------
# Cache races and disappearing directories
# ----------------------------------------------------------------------


def test_concurrent_writers_racing_on_one_key(records, tmp_path):
    """Many threads storing the same key: last write wins, entry readable."""
    featurizer = WindowFeaturizer(window_ms=100.0)
    features = featurizer.features(records[0])
    key = record_cache_key(records[0], featurizer.cache_fingerprint())
    cache = FeatureCache(tmp_path / "cache")

    errors = []
    barrier = threading.Barrier(8)

    def writer():
        try:
            barrier.wait(timeout=10)
            for _ in range(10):
                cache.store(key, features)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "writer hung"
    assert errors == []
    loaded = cache.load(key)
    assert loaded is not None
    assert loaded.matrix.tobytes() == features.matrix.tobytes()


def test_concurrent_reader_and_writer_never_see_torn_entry(records, tmp_path):
    featurizer = WindowFeaturizer(window_ms=100.0)
    features = featurizer.features(records[0])
    key = record_cache_key(records[0], featurizer.cache_fingerprint())
    cache = FeatureCache(tmp_path / "cache")
    cache.store(key, features)

    stop = threading.Event()
    torn = []

    def reader():
        while not stop.is_set():
            loaded = cache.load(key)
            # A miss (None) is acceptable mid-replace; a torn matrix is not.
            if loaded is not None and (
                loaded.matrix.shape != features.matrix.shape
                or loaded.matrix.tobytes() != features.matrix.tobytes()
            ):
                torn.append(loaded)
                return

    t = threading.Thread(target=reader)
    t.start()
    for _ in range(50):
        cache.store(key, features)
    stop.set()
    t.join(timeout=30)
    assert not t.is_alive(), "reader hung"
    assert torn == []


def test_cache_dir_deleted_between_lookup_and_store(records, tmp_path):
    """rmtree after the miss, before the store: the store recreates it."""
    cache_dir = tmp_path / "cache"
    cache = FeatureCache(cache_dir)
    featurizer = WindowFeaturizer(window_ms=100.0)
    key = record_cache_key(records[0], featurizer.cache_fingerprint())
    assert cache.load(key) is None
    cache_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(cache_dir)

    features = featurizer.features(records[0])
    cache.store(key, features)
    recovered = cache.load(key)
    assert recovered is not None
    assert recovered.matrix.tobytes() == features.matrix.tobytes()


def test_cache_dir_deleted_mid_featurize_run_recovers(records, tmp_path):
    """Deleting the directory between two runs only costs recomputation."""
    cache_dir = tmp_path / "cache"
    cache = FeatureCache(cache_dir)
    featurizer = WindowFeaturizer(window_ms=100.0)
    first = featurize_records(featurizer, records, cache=cache)
    shutil.rmtree(cache_dir)
    second = featurize_records(featurizer, records, cache=cache)
    for a, b in zip(first, second):
        assert a.matrix.tobytes() == b.matrix.tobytes()


def test_cache_path_replaced_by_file_raises_cache_error(records, tmp_path):
    """The entry's parent directory turning into a file is a typed error."""
    cache_dir = tmp_path / "cache"
    cache = FeatureCache(cache_dir)
    featurizer = WindowFeaturizer(window_ms=100.0)
    key = record_cache_key(records[0], featurizer.cache_fingerprint())
    features = featurizer.features(records[0])
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Occupy the two-level fan-out path with a plain file.
    (cache_dir / key[:2]).write_text("not a directory")
    with pytest.raises(CacheError, match="could not write"):
        cache.store(key, features)


def test_corrupt_entry_is_evicted_and_recomputed(records, tmp_path):
    cache = FeatureCache(tmp_path / "cache")
    featurizer = WindowFeaturizer(window_ms=100.0)
    key = record_cache_key(records[0], featurizer.cache_fingerprint())
    features = featurizer.features(records[0])
    path = cache.store(key, features)
    path.write_bytes(b"garbage, not an npz payload")
    assert cache.load(key) is None
    assert cache.stats.evictions == 1
    result = featurize_records(featurizer, [records[0]], cache=cache)[0]
    assert result.matrix.tobytes() == features.matrix.tobytes()


def test_robust_and_plain_features_never_collide_in_cache(records, tmp_path):
    """Same record, same cache dir, different policies → different keys."""
    from repro.robust import REPAIR, NaNBurst, RobustFeaturizer

    faulted = NaNBurst(stream="emg", bursts_per_s=3.0).apply(records[0], seed=1)
    base = WindowFeaturizer(window_ms=100.0)
    robust = RobustFeaturizer(base, REPAIR)
    cache = FeatureCache(tmp_path / "cache")
    robust_wf = featurize_records(robust, [faulted], cache=cache)[0]
    assert np.isfinite(robust_wf.matrix).all()
    key_base = record_cache_key(faulted, base.cache_fingerprint())
    key_robust = record_cache_key(faulted, robust.cache_fingerprint())
    assert key_base != key_robust
    assert cache.load(key_base) is None  # the plain key was never stored


def test_degraded_dataset_fit_survives_process_backend(tmp_path):
    """End-to-end chaos: faulted records, process fan-out, cache on."""
    from repro.robust import EMGChannelDropout, inject

    dataset = toy_motion_dataset()
    faulted_records = [
        inject(rec, [EMGChannelDropout(n_channels=1)], seed=i)
        if i % 3 == 0 else rec
        for i, rec in enumerate(dataset)
    ]
    degraded = MotionDataset(name="degraded-toy", records=faulted_records)
    model = MotionClassifier(
        n_clusters=4, window_ms=100.0, robust_policy="repair",
        n_jobs=2, cache_dir=tmp_path / "cache",
    )
    model.fit(degraded, seed=0)
    result = model.classify_with_report(faulted_records[0], k=1)
    assert result.label in {r.label for r in dataset}
    # Second fit from the warm cache is byte-identical.
    model2 = MotionClassifier(
        n_clusters=4, window_ms=100.0, robust_policy="repair",
        cache_dir=tmp_path / "cache",
    )
    model2.fit(degraded, seed=0)
    assert (model.database_signatures.tobytes()
            == model2.database_signatures.tobytes())
