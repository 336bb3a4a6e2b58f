"""Differential harness: sharded batched k-NN vs the linear-scan oracle.

The contract under test (ROADMAP item 2): a :class:`ShardedSignatureIndex`
answering over persisted, partitioned segments must return **bit-identical**
neighbour ids *and* distances to one global :class:`LinearScanIndex` over
the same id-sorted matrix — for every shard count, k, tenant filter and
tie pattern, including data far from the origin where the shards'
matrix-product scores round differently from the oracle's arithmetic.
Equality is asserted with ``np.array_equal`` on both arrays: no
tolerance, no sorting slack.
"""

import numpy as np
import pytest

from repro.errors import NotFittedError, RetrievalError
from repro.retrieval import (
    LinearScanIndex,
    ShardedSignatureIndex,
    ShardRouter,
    SignatureStore,
    tenant_shard,
)

SHARD_COUNTS = [1, 4, 16]
#: Every shard is searched by the one matrix-product scan; the axis keeps
#: the ``[linear-N]`` test ids of the suite's history.
BACKENDS = ["linear"]


def population(rng, n=300, dim=8, n_tenants=7):
    vectors = rng.uniform(0.0, 1.0, size=(n, dim))
    # Inject exact duplicates so ties are real, not hypothetical: rows
    # 10/11/12 and 50/51 are byte-identical.
    vectors[11] = vectors[10]
    vectors[12] = vectors[10]
    vectors[51] = vectors[50]
    labels = [f"motion-{i % 5}" for i in range(n)]
    tenants = [f"tenant-{i % n_tenants}" for i in range(n)]
    return vectors, labels, tenants


def oracle_answers(vectors, queries, k):
    """Ground truth straight from the seed linear index."""
    oracle = LinearScanIndex().fit(vectors)
    ids = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k))
    for qi, q in enumerate(queries):
        ids[qi], dists[qi] = oracle.query(q, k)
    return ids, dists


@pytest.fixture(scope="module")
def store_and_queries(tmp_path_factory):
    rng = np.random.default_rng(2024)
    vectors, labels, tenants = population(rng)
    store = SignatureStore(tmp_path_factory.mktemp("eqstore") / "store")
    # Three segments, so the sharded side reads a genuinely partitioned
    # store rather than one contiguous file.
    store.ingest(vectors[:100], labels[:100], tenants[:100])
    store.ingest(vectors[100:220], labels[100:220], tenants[100:220])
    store.ingest(vectors[220:], labels[220:], tenants[220:])
    queries = rng.uniform(0.0, 1.0, size=(32, vectors.shape[1]))
    # A handful of queries equidistant from duplicate rows.
    queries[0] = vectors[10]
    queries[1] = vectors[50]
    return store, vectors, tenants, queries


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestShardedEqualsOracle:
    def test_batched_knn_bit_identical(self, store_and_queries, n_shards,
                                       backend):
        store, vectors, _, queries = store_and_queries
        index = ShardedSignatureIndex(
            n_shards=n_shards, seed=0
        ).fit_store(store)
        assert index.n_indexed == len(vectors)
        for k in (1, 3, 10, 25):
            ids, dists = index.query_batch(queries, k)
            oracle_ids, oracle_dists = oracle_answers(vectors, queries, k)
            assert np.array_equal(ids, oracle_ids)
            assert np.array_equal(dists, oracle_dists)

    def test_tenant_filter_matches_filtered_oracle(self, store_and_queries,
                                                   n_shards, backend):
        store, _, tenants, queries = store_and_queries
        for tenant in ("tenant-0", "tenant-3"):
            contents = store.records(tenant=tenant)
            index = ShardedSignatureIndex(
                n_shards=n_shards, seed=0
            ).fit_store(store)
            ids, dists = index.query_batch(queries, 5, tenant=tenant)
            oracle_ids, oracle_dists = oracle_answers(
                contents.vectors, queries, 5
            )
            # The oracle returns row positions into the tenant-filtered
            # matrix; map them back to store ids.
            assert np.array_equal(ids, contents.ids[oracle_ids])
            assert np.array_equal(dists, oracle_dists)

    def test_single_query_matches_batched(self, store_and_queries, n_shards,
                                          backend):
        store, _, _, queries = store_and_queries
        index = ShardedSignatureIndex(
            n_shards=n_shards, seed=0
        ).fit_store(store)
        batch_ids, batch_dists = index.query_batch(queries[:4], 7)
        for qi in range(4):
            ids, dists = index.query(queries[qi], 7)
            assert np.array_equal(ids, batch_ids[qi])
            assert np.array_equal(dists, batch_dists[qi])

    def test_tie_order_is_ascending_id(self, store_and_queries, n_shards,
                                       backend):
        """Duplicate vectors resolve by ascending record id, like the oracle."""
        store, vectors, _, queries = store_and_queries
        index = ShardedSignatureIndex(
            n_shards=n_shards, seed=0
        ).fit_store(store)
        ids, dists = index.query_batch(queries[:1], 3)
        assert list(ids[0]) == [10, 11, 12]
        assert dists[0, 0] == dists[0, 1] == dists[0, 2] == 0.0


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_region_mode_matches_oracle(store_and_queries, n_shards):
    store, vectors, _, queries = store_and_queries
    index = ShardedSignatureIndex(
        n_shards=n_shards, mode="region", seed=3
    ).fit_store(store)
    ids, dists = index.query_batch(queries, 8)
    oracle_ids, oracle_dists = oracle_answers(vectors, queries, 8)
    assert np.array_equal(ids, oracle_ids)
    assert np.array_equal(dists, oracle_dists)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_margin_adds_only_exact_ties_on_fixture(store_and_queries, n_shards):
    """The rounding margin must not quietly widen the merge.

    Per query, a shard hands the merge its ``m = min(k, n)`` nearest rows
    plus the rows exactly tied with the m-th of them (the fixture's
    planted duplicates), and nothing else on this well-separated data.
    """
    store, vectors, tenants, queries = store_and_queries
    index = ShardedSignatureIndex(n_shards=n_shards, seed=0).fit_store(store)
    shard_of = index.router.assign(tenants, vectors)
    for k in (1, 3, 10, 25):
        index.query_batch(queries, k)
        expected = 0
        for shard in np.unique(shard_of):
            members = vectors[shard_of == shard]
            m = min(k, len(members))
            for q in queries:
                diff = members - q
                dists = np.sqrt(np.einsum("nd,nd->n", diff, diff))
                expected += int((dists <= np.sort(dists)[m - 1]).sum())
        assert index.last_candidates == expected


def adversarial_population(offset, n_anchors=12, dim=6, seed=11):
    """Groups of near-tied and duplicated rows, ``offset`` from the origin.

    Each group holds an anchor, an exact copy of it and four copies moved
    by at most 1e-6 per coordinate.  Far from the origin the shards'
    ``‖x‖² − 2·x·q + ‖q‖²`` scores carry rounding errors larger than the
    gaps inside a group, so only a correct margin keeps the oracle's
    winners among the candidates.
    """
    gen = np.random.default_rng(seed)
    anchors = offset + gen.uniform(0.0, 1.0, size=(n_anchors, dim))
    groups = [
        np.vstack([a, a, a + 1e-6 * gen.uniform(-1.0, 1.0, size=(4, dim))])
        for a in anchors
    ]
    vectors = np.vstack(groups)
    tenants = [f"tenant-{i % 3}" for i in range(len(vectors))]
    queries = np.vstack([
        anchors + 1e-3 * gen.normal(size=anchors.shape),
        anchors[:4],                       # exact hits on duplicated rows
        offset + gen.uniform(0.0, 1.0, size=(4, dim)),
    ])
    return vectors, tenants, queries


@pytest.mark.parametrize("tenant", [None, "tenant-1"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e4])
def test_near_ties_far_from_origin_match_oracle(offset, n_shards, tenant):
    vectors, tenants, queries = adversarial_population(offset)
    ids = np.arange(len(vectors), dtype=np.uint64)
    index = ShardedSignatureIndex(n_shards=n_shards, seed=0).fit_arrays(
        ids, vectors, tenants
    )
    mask = np.array([t == tenant or tenant is None for t in tenants])
    for k in (1, 5, int(mask.sum())):
        got_ids, got_dists = index.query_batch(queries, k, tenant=tenant)
        oracle_ids, oracle_dists = oracle_answers(vectors[mask], queries, k)
        assert np.array_equal(got_ids, ids[mask][oracle_ids])
        assert np.array_equal(got_dists, oracle_dists)


def test_fit_arrays_with_sparse_ids_matches_oracle(rng):
    """Non-contiguous ids (post-compaction stores) map back correctly."""
    vectors = rng.uniform(size=(120, 6))
    ids = np.arange(1000, 1000 + 240, 2, dtype=np.uint64)
    tenants = [f"t-{i % 3}" for i in range(120)]
    index = ShardedSignatureIndex(n_shards=4, seed=0).fit_arrays(
        ids, vectors, tenants
    )
    queries = rng.uniform(size=(8, 6))
    got_ids, got_dists = index.query_batch(queries, 6)
    oracle_ids, oracle_dists = oracle_answers(vectors, queries, 6)
    assert np.array_equal(got_ids, ids[oracle_ids])
    assert np.array_equal(got_dists, oracle_dists)


def test_fit_arrays_with_shuffled_ids_matches_oracle(rng):
    """Ties between duplicates break by record id, not by input row."""
    vectors = rng.uniform(size=(90, 5))
    vectors[30:40] = vectors[0]
    ids = rng.permutation(90).astype(np.uint64)
    tenants = [f"t-{i % 3}" for i in range(90)]
    by_id = np.argsort(ids)
    queries = np.vstack([vectors[:1], rng.uniform(size=(5, 5))])
    for mode in ("tenant", "region"):
        index = ShardedSignatureIndex(n_shards=4, mode=mode, seed=0)
        index.fit_arrays(ids, vectors, tenants)
        for k in (1, 11, 90):
            got_ids, got_dists = index.query_batch(queries, k)
            oracle_ids, oracle_dists = oracle_answers(vectors[by_id],
                                                      queries, k)
            assert np.array_equal(got_ids, ids[by_id][oracle_ids])
            assert np.array_equal(got_dists, oracle_dists)


@pytest.mark.parametrize("mode", ["tenant", "region"])
def test_shards_are_slices_of_one_matrix(store_and_queries, mode):
    """The index holds the population once; shards view into it."""
    store, vectors, _, _ = store_and_queries
    index = ShardedSignatureIndex(n_shards=16, mode=mode, seed=0)
    index.fit_store(store)
    assert sum(index.shard_sizes.values()) == len(vectors)
    for shard in index._shards.values():
        assert np.shares_memory(shard.vectors, index._vectors)


def test_router_hashes_each_tenant_once(monkeypatch):
    tenants = [f"tenant-{i % 7}" for i in range(500)]
    calls = []

    def counting(tenant, n_shards):
        calls.append(tenant)
        return tenant_shard(tenant, n_shards)

    monkeypatch.setattr("repro.retrieval.shard.tenant_shard", counting)
    assigned = ShardRouter(n_shards=5).assign(tenants, np.zeros((500, 2)))
    assert sorted(calls) == sorted(set(tenants))
    assert list(assigned) == [tenant_shard(t, 5) for t in tenants]


def test_tenant_mode_probes_one_shard(store_and_queries):
    store, _, _, queries = store_and_queries
    index = ShardedSignatureIndex(n_shards=16, seed=0).fit_store(store)
    index.query_batch(queries[:2], 3, tenant="tenant-0")
    assert index.last_shards_probed == 1
    index.query_batch(queries[:2], 3)
    assert index.last_shards_probed > 1


class TestValidation:
    def test_unknown_tenant_rejected(self, store_and_queries):
        store, _, _, queries = store_and_queries
        index = ShardedSignatureIndex(n_shards=4, seed=0).fit_store(store)
        with pytest.raises(RetrievalError):
            index.query_batch(queries[:1], 3, tenant="no-such-tenant")

    def test_k_larger_than_population_rejected(self, store_and_queries):
        store, vectors, _, queries = store_and_queries
        index = ShardedSignatureIndex(n_shards=4, seed=0).fit_store(store)
        with pytest.raises(RetrievalError):
            index.query_batch(queries[:1], len(vectors) + 1)

    def test_unfitted_query_raises(self, rng):
        with pytest.raises(NotFittedError):
            ShardedSignatureIndex().query(rng.uniform(size=4), 1)

    def test_overflowing_norms_rejected(self, rng):
        """The candidate margin needs finite ``‖v‖²`` and ``‖q‖²``."""
        huge = 1e155 * (1.0 + rng.uniform(size=(20, 4)))
        with pytest.raises(RetrievalError):
            ShardedSignatureIndex(n_shards=2).fit(huge)
        index = ShardedSignatureIndex(n_shards=2).fit(huge / 1e155)
        with pytest.raises(RetrievalError):
            index.query_batch(huge[:2], 3)
