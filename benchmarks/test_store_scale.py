"""Benchmark: the persistent sharded store at 10^5 signatures.

Inflates the hand campaign's real signatures to a 100k-row synthetic
population (ROADMAP item 2's "millions of users" target, scaled to CI
budget), ingests it into a fresh :class:`SignatureStore` in batches,
answers a 256-query batched k-NN workload through a 16-shard
:class:`ShardedSignatureIndex`, and checks every answer against the
global :class:`LinearScanIndex` oracle — ids and distances must be
bit-identical, so recall@k is exactly 1.0 by construction and is
recorded as measured evidence anyway.

Timings land in ``benchmarks/_cache/store_scale.json``.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import CACHE_DIR

from repro.core.model import MotionClassifier
from repro.data.population import synthesize_population
from repro.features.combine import WindowFeaturizer
from repro.obs.export import write_json
from repro.retrieval.linear import LinearScanIndex
from repro.retrieval.shard import ShardedSignatureIndex
from repro.retrieval.store import SignatureStore

N_SIGNATURES = 100_000
N_TENANTS = 32
N_SHARDS = 16
N_QUERIES = 256
K = 10
BATCH_SIZE = 20_000
SEED = 0


def test_sharded_store_at_1e5_matches_linear_oracle(hand_dataset, tmp_path):
    # Base signatures: the real hand campaign, fitted as in the paper.
    classifier = MotionClassifier(
        n_clusters=15, featurizer=WindowFeaturizer(window_ms=100.0)
    ).fit(hand_dataset, seed=SEED)
    population = synthesize_population(
        classifier.database_signatures,
        classifier.database_labels,
        n_signatures=N_SIGNATURES,
        n_tenants=N_TENANTS,
        seed=SEED,
    )

    # Batched ingest into a fresh store.
    store = SignatureStore(tmp_path / "store")
    t0 = time.perf_counter()
    for start in range(0, N_SIGNATURES, BATCH_SIZE):
        stop = start + BATCH_SIZE
        store.ingest(
            population.vectors[start:stop],
            list(population.labels[start:stop]),
            list(population.tenants[start:stop]),
        )
    ingest_s = time.perf_counter() - t0
    assert store.n_records == N_SIGNATURES
    assert store.n_segments == N_SIGNATURES // BATCH_SIZE

    # Build the sharded index from the persisted segments.
    t0 = time.perf_counter()
    index = ShardedSignatureIndex(n_shards=N_SHARDS, seed=SEED).fit_store(store)
    build_s = time.perf_counter() - t0
    assert index.n_indexed == N_SIGNATURES

    # A batched query workload: perturbed copies of stored signatures.
    rng = np.random.default_rng(SEED)
    rows = rng.integers(0, N_SIGNATURES, size=N_QUERIES)
    queries = np.clip(
        population.vectors[rows]
        + rng.normal(0.0, 0.01, size=(N_QUERIES,
                                      population.vectors.shape[1])),
        0.0, 1.0,
    )
    t0 = time.perf_counter()
    ids, dists = index.query_batch(queries, K)
    query_s = time.perf_counter() - t0
    qps = N_QUERIES / query_s if query_s > 0 else float("inf")

    # Oracle: one global linear scan over the same id-sorted matrix.
    contents = store.records()
    oracle = LinearScanIndex().fit(contents.vectors)
    t0 = time.perf_counter()
    n_identical = 0
    overlap = 0
    for qi in range(N_QUERIES):
        li, ld = oracle.query(queries[qi], K)
        oracle_ids = contents.ids[li]
        if np.array_equal(ids[qi], oracle_ids) and np.array_equal(
            dists[qi], ld
        ):
            n_identical += 1
        overlap += len(np.intersect1d(ids[qi], oracle_ids))
    oracle_s = time.perf_counter() - t0
    recall_at_k = overlap / (N_QUERIES * K)

    config = {
        "source": "benchmarks/test_store_scale",
        "n_signatures": N_SIGNATURES,
        "n_tenants": N_TENANTS,
        "n_shards": N_SHARDS,
        "n_queries": N_QUERIES,
        "k": K,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
    }
    artifact = {
        **config,
        "dim": int(population.vectors.shape[1]),
        "n_segments": store.n_segments,
        "store_bytes": store.stats().n_bytes,
        "ingest_s": ingest_s,
        "index_build_s": build_s,
        "query_batch_s": query_s,
        "queries_per_s": qps,
        "oracle_scan_s": oracle_s,
        "recall_at_k": recall_at_k,
        "n_identical": n_identical,
        "shard_sizes": [int(s) for s in index.shard_sizes.values()],
    }
    CACHE_DIR.mkdir(exist_ok=True)
    write_json(CACHE_DIR / "store_scale.json", artifact)

    assert recall_at_k == 1.0, (
        f"sharded recall@{K} is {recall_at_k:.4f} over {N_QUERIES} queries; "
        f"evidence in {CACHE_DIR / 'store_scale.json'}"
    )
    assert n_identical == N_QUERIES, (
        f"only {n_identical}/{N_QUERIES} queries bit-identical to the "
        f"linear-scan oracle at n={N_SIGNATURES}"
    )
