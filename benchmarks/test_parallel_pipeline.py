"""Benchmark: the parallel, cached feature pipeline vs the serial cold path.

Featurizes the full hand campaign three ways — serial and cold, serial with
a warm content-addressed cache, and on a two-worker process pool — asserts
the warm cache is at least 2x faster than cold computation, re-checks that
all three paths are **byte-identical**, and records the evidence
(wall-clock plus the ``repro.obs`` ``parallel.featurize`` stage aggregates)
to ``benchmarks/_cache/parallel_pipeline.json``.

Only the cache speedup is asserted.  It replaces windowing + SVD work with
one hash + one ``.npz`` read per motion whatever the core count, while a
process pool's gain depends on the host: on a shared 2-core host two
workers took 0.353 s against 0.400 s serial for these 128 records at
100 ms windows (best of three), and on one core they cannot win.
"""

from __future__ import annotations

import time

from conftest import CACHE_DIR, STRIDE_MS

from repro.features.combine import WindowFeaturizer
from repro.obs.config import current_state
from repro.obs.export import collect_payload, write_json
from repro.parallel.cache import FeatureCache
from repro.parallel.runner import featurize_records

WINDOW_MS = 100.0
MIN_SPEEDUP = 2.0


def _featurize_stage_total() -> float:
    stages = collect_payload(current_state(), meta={})["stages"]
    stage = stages.get("parallel.featurize")
    return float(stage["total_s"]) if stage else 0.0


def test_warm_cache_at_least_2x_faster_than_cold(hand_dataset, tmp_path):
    featurizer = WindowFeaturizer(window_ms=WINDOW_MS, stride_ms=STRIDE_MS)
    records = list(hand_dataset)
    cache = FeatureCache(tmp_path / "features")

    stage_before = _featurize_stage_total()
    t0 = time.perf_counter()
    cold = featurize_records(featurizer, records, cache=cache)
    cold_s = time.perf_counter() - t0
    stage_cold = _featurize_stage_total()

    t0 = time.perf_counter()
    warm = featurize_records(featurizer, records, cache=cache)
    warm_s = time.perf_counter() - t0
    stage_warm = _featurize_stage_total()

    t0 = time.perf_counter()
    pooled = featurize_records(featurizer, records, n_jobs=2)
    pool_s = time.perf_counter() - t0

    for reference, candidate in zip(cold, warm):
        assert candidate.matrix.tobytes() == reference.matrix.tobytes()
        assert candidate.bounds == reference.bounds
    for reference, candidate in zip(cold, pooled):
        assert candidate.matrix.tobytes() == reference.matrix.tobytes()
        assert candidate.bounds == reference.bounds

    n = len(records)
    assert cache.stats.misses == n and cache.stats.stores == n
    assert cache.stats.hits == n

    speedup = cold_s / warm_s
    artifact = {
        "n_records": n,
        "window_ms": WINDOW_MS,
        "stride_ms": STRIDE_MS,
        "cold_serial_s": cold_s,
        "warm_cache_s": warm_s,
        "process_pool_n_jobs2_s": pool_s,
        "warm_cache_speedup": speedup,
        "min_speedup_asserted": MIN_SPEEDUP,
        "cache_stats": cache.stats.as_dict(),
        "obs_stage_parallel_featurize_s": {
            "cold": stage_cold - stage_before,
            "warm": stage_warm - stage_cold,
        },
    }
    CACHE_DIR.mkdir(exist_ok=True)
    write_json(CACHE_DIR / "parallel_pipeline.json", artifact)

    assert speedup >= MIN_SPEEDUP, (
        f"warm cache only {speedup:.2f}x faster than cold serial "
        f"(cold {cold_s:.3f}s, warm {warm_s:.3f}s); evidence in "
        f"{CACHE_DIR / 'parallel_pipeline.json'}"
    )
