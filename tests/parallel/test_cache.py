"""Feature cache: content addressing, dtype/layout keys, corruption recovery."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.parallel.cache as cache_module
from repro.errors import CacheError
from repro.features.combine import WindowFeaturizer
from repro.parallel.cache import (
    FEATURE_CACHE_VERSION,
    FeatureCache,
    hash_stream,
    record_cache_key,
)
from repro.parallel.runner import featurize_records


def _digest_of(array: np.ndarray) -> str:
    hasher = hashlib.sha256()
    hash_stream(hasher, array)
    return hasher.hexdigest()


class TestHashStream:
    def test_equal_arrays_hash_equal(self):
        a = np.arange(12.0).reshape(3, 4)
        assert _digest_of(a) == _digest_of(a.copy())

    def test_dtype_is_part_of_the_key(self):
        # float32 data must never hit a float64 entry even when the values
        # are exactly representable in both dtypes.
        values = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        assert _digest_of(values.astype(np.float64)) != _digest_of(
            values.astype(np.float32)
        )

    def test_memory_layout_is_normalized(self):
        # A Fortran-ordered copy holds different bytes in memory but is the
        # same logical array, so it maps to the same entry.
        c_order = np.arange(12.0).reshape(3, 4)
        f_order = np.asfortranarray(c_order)
        assert not f_order.flags["C_CONTIGUOUS"]
        assert _digest_of(c_order) == _digest_of(f_order)

    def test_shape_is_part_of_the_key(self):
        flat = np.arange(12.0)
        assert _digest_of(flat.reshape(3, 4)) != _digest_of(flat.reshape(4, 3))


class TestRecordCacheKey:
    def test_deterministic_and_fingerprint_sensitive(self, make_record):
        record = make_record(seed=3)
        fp_a = WindowFeaturizer(window_ms=100.0).cache_fingerprint()
        fp_b = WindowFeaturizer(window_ms=50.0).cache_fingerprint()
        assert record_cache_key(record, fp_a) == record_cache_key(record, fp_a)
        assert record_cache_key(record, fp_a) != record_cache_key(record, fp_b)

    def test_different_streams_different_keys(self, make_record):
        fp = WindowFeaturizer().cache_fingerprint()
        assert record_cache_key(make_record(seed=0), fp) != record_cache_key(
            make_record(seed=1), fp
        )

    def test_default_fingerprint_is_pinned(self):
        # Existing cache entries are addressed by this exact string; any
        # change to it silently turns every cached motion into a miss.
        assert WindowFeaturizer(window_ms=100.0, stride_ms=25.0).cache_fingerprint() == (
            "window_ms=100.0|stride_ms=25.0|use_emg=True|use_mocap=True"
            "|emg=repro.features.iav.IAVExtractor/fpc=1"
            "|mocap=repro.features.svd.WeightedSVDExtractor/fpj=3"
        )

    def test_version_constant_pins_the_format(self):
        # Bumping this constant must invalidate every existing entry; the
        # pin makes version changes an explicit, reviewed event.
        assert FEATURE_CACHE_VERSION == 3

    def test_entry_stored_under_the_previous_version_misses(
        self, tmp_path, monkeypatch, make_record
    ):
        # Version 2 entries hold the one-row windows' features from the
        # matrix-vector projection; a warm version 2 cache must not mix
        # them into a version 3 signature set.
        cache = FeatureCache(tmp_path / "cache")
        featurizer = WindowFeaturizer(window_ms=100.0)
        record = make_record()
        fp = featurizer.cache_fingerprint()
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "FEATURE_CACHE_VERSION", 2)
            old_path = cache.store(record_cache_key(record, fp),
                                   featurizer.features(record))
        assert old_path.exists()
        assert cache.load(record_cache_key(record, fp)) is None
        assert cache.stats.misses == 1


class TestFeatureCache:
    def test_store_then_load_round_trips(self, tmp_path, make_record):
        cache = FeatureCache(tmp_path / "cache")
        featurizer = WindowFeaturizer(window_ms=100.0)
        record = make_record()
        features = featurizer.features(record)
        key = record_cache_key(record, featurizer.cache_fingerprint())

        assert cache.load(key) is None  # cold
        cache.store(key, features)
        loaded = cache.load(key)

        assert loaded is not None
        assert loaded.matrix.tobytes() == features.matrix.tobytes()
        assert loaded.bounds == features.bounds
        assert loaded.names == features.names
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_two_level_fanout(self, tmp_path):
        cache = FeatureCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        assert path.parent == tmp_path / "ab"
        assert path.name == f"{key}.npz"

    def test_existing_file_as_cache_dir_raises(self, tmp_path):
        bogus = tmp_path / "not_a_dir"
        bogus.write_text("occupied")
        with pytest.raises(CacheError, match="not a directory"):
            FeatureCache(bogus)

    def test_corrupted_entry_is_evicted_and_recomputed(self, tmp_path, make_record):
        cache = FeatureCache(tmp_path / "cache")
        featurizer = WindowFeaturizer(window_ms=100.0)
        record = make_record()
        expected = featurizer.features(record)
        key = record_cache_key(record, featurizer.cache_fingerprint())
        cache.store(key, expected)

        # Truncated/garbage entry, as after a crashed writer or disk fault.
        cache.path_for(key).write_bytes(b"this is not an npz file")

        result = featurize_records(featurizer, [record], cache=cache)
        assert result[0].matrix.tobytes() == expected.matrix.tobytes()
        assert cache.stats.evictions == 1
        # The bad entry was replaced by a fresh store; the next load hits.
        assert cache.load(key) is not None

    def test_entry_missing_arrays_is_a_miss(self, tmp_path, make_record):
        cache = FeatureCache(tmp_path / "cache")
        featurizer = WindowFeaturizer(window_ms=100.0)
        record = make_record()
        key = record_cache_key(record, featurizer.cache_fingerprint())
        # A well-formed npz that lacks the expected arrays (foreign file).
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, unrelated=np.zeros(3))
        assert cache.load(key) is None
        assert cache.stats.evictions == 1

    def test_evict_missing_entry_is_a_noop(self, tmp_path):
        cache = FeatureCache(tmp_path)
        assert cache.evict("0" * 64) is False
        assert cache.stats.evictions == 0


class TestFeaturizeRecordsCaching:
    def test_cold_then_warm_byte_identical(self, tmp_path, make_record):
        featurizer = WindowFeaturizer(window_ms=100.0)
        records = [make_record(seed=i, trial=i) for i in range(4)]
        reference = [featurizer.features(r) for r in records]

        cache = FeatureCache(tmp_path / "cache")
        cold = featurize_records(featurizer, records, cache=cache)
        assert cache.stats.misses == 4 and cache.stats.stores == 4

        warm = featurize_records(featurizer, records, cache=cache)
        assert cache.stats.hits == 4

        for ref, c, w in zip(reference, cold, warm):
            assert c.matrix.tobytes() == ref.matrix.tobytes()
            assert w.matrix.tobytes() == ref.matrix.tobytes()
            assert c.bounds == ref.bounds == w.bounds
