"""Content-addressed on-disk cache for per-motion window features.

A cache entry is one motion's :class:`~repro.features.base.WindowFeatures`
under a SHA-256 key derived from everything the features depend on:

* the raw stream bytes of both modalities — hashed with their **dtype and
  shape**, after normalizing to C order, so a float32 stream can never hit
  a float64 entry and a Fortran-ordered view of the same values maps to the
  same key as its C-ordered copy;
* the stream layout (channel and segment names, frame rate);
* the featurizer's parameters (window/stride, modality switches, extractor
  fingerprints) via ``WindowFeaturizer.cache_fingerprint()``;
* :data:`FEATURE_CACHE_VERSION` — bump it whenever the feature code changes
  meaning, and every stale entry misses.

Entries are ``.npz`` files under ``cache_dir/<kk>/<key>.npz`` (two-level
fan-out keeps directories small).  Writes go through
:func:`repro.utils.atomicio.atomic_write` (temp file + ``os.replace``,
statically enforced by lint rule R8) so concurrent workers never observe
a torn entry; unreadable or malformed entries are **evicted and
recomputed**, never raised.  Hit,
miss, store and eviction counts are kept on :attr:`FeatureCache.stats` and
mirrored into :mod:`repro.obs` counters (``parallel.cache.*``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.data.record import RecordedMotion
from repro.errors import CacheError
from repro.features.base import WindowFeatures
from repro.obs.config import record_counter, record_gauge, span
from repro.utils.atomicio import atomic_write
from repro.utils.validation import check_array

__all__ = [
    "FEATURE_CACHE_VERSION",
    "CacheStats",
    "FeatureCache",
    "hash_stream",
    "record_cache_key",
]

#: Version of the featurization code the cache contents assume.  Bump on any
#: change that can alter feature values (windowing arithmetic, IAV/SVD
#: kernels, sign stabilization, combined-vector layout ...).
FEATURE_CACHE_VERSION = 2


def hash_stream(hasher, array: np.ndarray) -> None:
    """Fold one stream array into ``hasher``: dtype, shape, then C-order bytes.

    The dtype string (which encodes byte order) and the shape are hashed
    explicitly *before* the data, so arrays with identical bytes but
    different element types or shapes produce different digests.  The data
    is normalized to C order first: logically equal arrays hash equal
    regardless of memory layout.
    """
    array = check_array(array, name="array", dtype=None, allow_non_finite=True)
    hasher.update(array.dtype.str.encode())
    hasher.update(repr(array.shape).encode())
    hasher.update(np.ascontiguousarray(array).tobytes())


def record_cache_key(record: RecordedMotion, featurizer_fingerprint: str) -> str:
    """The cache key of one motion under one featurizer configuration.

    Parameters
    ----------
    record:
        The motion whose streams feed the features.
    featurizer_fingerprint:
        Stable description of the feature parameters, from
        :meth:`repro.features.combine.WindowFeaturizer.cache_fingerprint`.
    """
    hasher = hashlib.sha256()
    hasher.update(f"repro.features/v{FEATURE_CACHE_VERSION}".encode())
    hasher.update(featurizer_fingerprint.encode())
    hasher.update(json.dumps(
        {
            "channels": list(record.emg.channels),
            "segments": list(record.mocap.segments),
            "fps": record.fps,
            "emg_fs": record.emg.fs,
        },
        sort_keys=True,
    ).encode())
    hash_stream(hasher, record.emg.data_volts)
    hash_stream(hasher, record.mocap.matrix_mm)
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Running counts of one :class:`FeatureCache`'s traffic."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """Plain-dict snapshot (for reports and metric exports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class FeatureCache:
    """On-disk store of per-motion window features, addressed by content.

    Parameters
    ----------
    cache_dir:
        Directory for the entries; created on first use.  Pointing it at an
        existing non-directory raises :class:`~repro.errors.CacheError`.
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise CacheError(
                f"cache_dir {self.cache_dir} exists and is not a directory"
            )
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Entry path for a cache key (two-level directory fan-out)."""
        return self.cache_dir / key[:2] / f"{key}.npz"

    def load(self, key: str) -> Optional[WindowFeatures]:
        """The stored features for ``key``, or ``None`` on a miss.

        A present-but-unreadable entry (truncated write, foreign file,
        missing arrays) is evicted and reported as a miss so the caller
        recomputes instead of crashing.
        """
        path = self.path_for(key)
        with span("parallel.cache.lookup", key=key[:12]):
            if not path.exists():
                self.stats.misses += 1
                record_counter("parallel.cache.misses")
                record_gauge("cache.hit_rate", self.stats.hit_rate)
                return None
            try:
                with np.load(path, allow_pickle=False) as payload:
                    matrix = np.asarray(payload["matrix"])
                    bounds = np.asarray(payload["bounds"], dtype=np.int64)
                    names = [str(n) for n in payload["names"]]
                features = WindowFeatures(
                    matrix=matrix,
                    bounds=tuple((int(a), int(b)) for a, b in bounds),
                    names=tuple(names),
                )
            except Exception:
                self.evict(key)
                self.stats.misses += 1
                record_counter("parallel.cache.misses")
                record_gauge("cache.hit_rate", self.stats.hit_rate)
                return None
        self.stats.hits += 1
        record_counter("parallel.cache.hits")
        record_gauge("cache.hit_rate", self.stats.hit_rate)
        return features

    def store(self, key: str, features: WindowFeatures) -> Path:
        """Persist one entry atomically via :func:`atomic_write`."""
        path = self.path_for(key)
        try:
            with atomic_write(path) as handle:
                np.savez(
                    handle,
                    matrix=np.asarray(features.matrix),
                    bounds=np.asarray(features.bounds, dtype=np.int64).reshape(-1, 2),
                    names=np.asarray(features.names, dtype=np.str_),
                )
        except OSError as exc:
            raise CacheError(f"could not write cache entry {path}: {exc}") from exc
        self.stats.stores += 1
        record_counter("parallel.cache.stores")
        return path

    def evict(self, key: str) -> bool:
        """Remove one entry (used for corrupted files); True if removed."""
        path = self.path_for(key)
        try:
            path.unlink()
        except OSError:
            return False
        self.stats.evictions += 1
        record_counter("parallel.cache.evictions")
        return True
