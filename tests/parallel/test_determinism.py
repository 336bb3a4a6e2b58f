"""Determinism harness: every ``n_jobs`` and cache state is byte-identical.

The contract under test (the whole point of ``repro.parallel``): the fitted
signatures, the per-motion window memberships, the classifications and the
``repro.obs`` metric exports of a pipeline run must not change when the work
is fanned out over worker processes, or served from a warm cache.

Comparison rules
----------------
* Arrays are compared as raw bytes (``tobytes()``), not with tolerances —
  parallelism must not change a single bit.
* Metric exports are compared over counters, gauges and series.  Spans and
  histograms carry timings of the process that ran them, so they are
  execution *descriptions*, not results, and are excluded.
* Cold- vs warm-cache runs compare outputs only: the ``parallel.cache.*``
  counters intentionally differ (that difference is asserted separately).
"""

from __future__ import annotations

import pytest

from repro.core.model import MotionClassifier
from repro.obs.clock import ManualClock
from repro.obs.config import capture
from tests.factories import toy_motion_dataset

N_CLUSTERS = 4


def run_pipeline(dataset, **model_kwargs):
    """Fit + query the full pipeline under a fresh capture session.

    Returns a dict of byte-level outputs plus the comparable slice of the
    metric export.
    """
    with capture(clock=ManualClock()) as state:
        model = MotionClassifier(n_clusters=N_CLUSTERS, window_ms=100.0,
                                 **model_kwargs)
        model.fit(dataset, seed=0)
        signatures = model.database_signatures.tobytes()
        queries = []
        for record in dataset:
            sig = model.signature(record)
            queries.append(
                (
                    sig.vector.tobytes(),
                    sig.window_memberships.tobytes(),
                    sig.window_clusters.tobytes(),
                )
            )
        predictions = [model.classify(record) for record in dataset]
        metrics = state.registry.to_dict()
    return {
        "signatures": signatures,
        "queries": queries,
        "predictions": predictions,
        "metrics": {k: metrics[k] for k in ("counters", "gauges", "series")},
        "cache_stats": (
            model.feature_cache.stats.as_dict()
            if model.feature_cache is not None else None
        ),
    }


@pytest.fixture(scope="module")
def toy_dataset_module():
    # Module-scoped dataset so the serial baseline is fitted once for the
    # whole harness.
    return toy_motion_dataset()


@pytest.fixture(scope="module")
def serial_baseline(toy_dataset_module):
    return run_pipeline(toy_dataset_module)


class TestProcessPool:
    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_matches_serial(self, toy_dataset_module, serial_baseline, n_jobs):
        parallel = run_pipeline(toy_dataset_module, n_jobs=n_jobs)
        assert parallel["signatures"] == serial_baseline["signatures"]
        assert parallel["queries"] == serial_baseline["queries"]
        assert parallel["predictions"] == serial_baseline["predictions"]
        assert parallel["metrics"] == serial_baseline["metrics"]


class TestCacheStates:
    def test_cold_and_warm_cache_match_serial(self, toy_dataset_module,
                                              serial_baseline, tmp_path):
        cache_dir = tmp_path / "features"

        cold = run_pipeline(toy_dataset_module, cache_dir=cache_dir)
        assert cold["signatures"] == serial_baseline["signatures"]
        assert cold["queries"] == serial_baseline["queries"]
        assert cold["predictions"] == serial_baseline["predictions"]
        # Every record missed once at fit time, then hit on both query-side
        # passes (signature + classify).
        n = len(toy_dataset_module)
        assert cold["cache_stats"]["misses"] == n
        assert cold["cache_stats"]["stores"] == n
        assert cold["cache_stats"]["hits"] == 2 * n

        warm = run_pipeline(toy_dataset_module, cache_dir=cache_dir)
        assert warm["signatures"] == serial_baseline["signatures"]
        assert warm["queries"] == serial_baseline["queries"]
        assert warm["predictions"] == serial_baseline["predictions"]
        assert warm["cache_stats"]["misses"] == 0
        assert warm["cache_stats"]["stores"] == 0
        assert warm["cache_stats"]["hits"] == 3 * n  # fit + signature + classify

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_cold_and_warm_cache_with_process_pool_match_serial(
            self, toy_dataset_module, serial_baseline, tmp_path, n_jobs):
        # Each n_jobs fills its own cache, then reads it back; the cache
        # counters belong to the metrics compared, so the serial runs go
        # through a cache too.
        runs = {}
        for jobs in (1, n_jobs):
            cache_dir = tmp_path / f"features-{jobs}"
            runs[jobs] = [run_pipeline(toy_dataset_module, n_jobs=jobs,
                                       cache_dir=cache_dir)
                          for _ in ("cold", "warm")]
        for serial, fanned in zip(runs[1], runs[n_jobs]):
            assert fanned["signatures"] == serial_baseline["signatures"]
            assert fanned["queries"] == serial_baseline["queries"]
            assert fanned["predictions"] == serial_baseline["predictions"]
            assert fanned["metrics"] == serial["metrics"]
            assert fanned["cache_stats"] == serial["cache_stats"]
        cold, warm = runs[n_jobs]
        assert cold["cache_stats"]["misses"] == len(toy_dataset_module)
        assert warm["cache_stats"]["misses"] == 0
