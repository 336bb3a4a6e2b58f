"""Parallel, cached execution of the per-motion feature pipeline.

The paper's database side is embarrassingly parallel: every motion is
windowed and featurized independently (IAV per EMG channel, weighted SVD per
joint) before the single global FCM pass.  This package supplies the three
pieces that exploit that structure without changing any result:

* :mod:`repro.parallel.executor` — one ``pool_map`` API, serial for one job
  and a process pool otherwise, with an order-stable, deterministic merge;
* :mod:`repro.parallel.cache` — a content-addressed on-disk feature cache
  keyed by stream bytes, window/feature parameters and a code version, with
  hit/miss counters wired into :mod:`repro.obs`;
* :mod:`repro.parallel.runner` — the fan-out itself:
  :func:`~repro.parallel.runner.featurize_records` consults the cache,
  computes only the misses, serially or on worker processes, and returns
  per-motion :class:`~repro.features.base.WindowFeatures` in input order.

``n_jobs=1`` with the cache off is the default everywhere, and both the
parallel and the cached paths are byte-identical to the serial cold path
(see ``tests/parallel/test_determinism.py``).
"""

from repro.parallel.cache import FEATURE_CACHE_VERSION, CacheStats, FeatureCache
from repro.parallel.executor import effective_n_jobs, pool_map
from repro.parallel.runner import featurize_records

__all__ = [
    "FEATURE_CACHE_VERSION",
    "CacheStats",
    "FeatureCache",
    "effective_n_jobs",
    "pool_map",
    "featurize_records",
]
