"""Property-based tests for the signature store and shard router.

Four invariants that must hold for *arbitrary* inputs, not just the
hand-picked fixtures:

* segment round-trip identity — what goes in comes out bit-for-bit,
  through any number of ingest batches and a compaction;
* torn-tail recovery — cut a segment file at any byte offset and
  :func:`scan_segment` recovers exactly the complete records before the
  cut, never a partial one;
* router stability — the tenant→shard assignment is a pure function of
  the key and shard count, identical across router instances and runs;
* sharded search exactness — ``query_batch`` returns the linear-scan
  oracle's ids and distances bit for bit, at any size, dimension and
  scale.

Skipped entirely when ``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.retrieval.linear import LinearScanIndex  # noqa: E402
from repro.retrieval.shard import (  # noqa: E402
    ShardedSignatureIndex,
    ShardRouter,
    tenant_shard,
)
from repro.retrieval.store import (  # noqa: E402
    SignatureStore,
    record_width,
    scan_segment,
    segment_header_size,
)

SETTINGS = settings(max_examples=25, deadline=None)

batch_st = st.tuples(
    st.integers(min_value=1, max_value=30),   # records
    st.integers(min_value=1, max_value=12),   # dimensions
    st.integers(min_value=0, max_value=2**32 - 1),  # numpy seed
)

tenant_st = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=24,
)


def make_batch(n, dim, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-10.0, 10.0, size=(n, dim))
    labels = [f"label-{rng.integers(0, 4)}" for _ in range(n)]
    tenants = [f"tenant-{rng.integers(0, 3)}" for _ in range(n)]
    return vectors, labels, tenants


@SETTINGS
@given(batches=st.lists(batch_st, min_size=1, max_size=4))
def test_round_trip_and_compaction_identity(batches, tmp_path_factory):
    """write → read → compact → read is the identity on every field."""
    root = tmp_path_factory.mktemp("prop") / "store"
    store = SignatureStore(root)
    dim = batches[0][1]
    expected_vecs, expected_labels, expected_tenants = [], [], []
    for n, _, seed in batches:
        vectors, labels, tenants = make_batch(n, dim, seed)
        store.ingest(vectors, labels, tenants)
        expected_vecs.append(vectors)
        expected_labels.extend(labels)
        expected_tenants.extend(tenants)
    expected = np.vstack(expected_vecs)

    before = store.records()
    assert before.vectors.tobytes() == expected.tobytes()
    assert list(before.labels) == expected_labels
    assert list(before.tenants) == expected_tenants

    store.compact()
    after = SignatureStore(root).records()
    assert after.vectors.tobytes() == expected.tobytes()
    assert list(after.labels) == expected_labels
    assert list(after.tenants) == expected_tenants
    assert np.array_equal(after.ids, before.ids)


@SETTINGS
@given(batch=batch_st, cut=st.integers(min_value=0, max_value=10_000))
def test_torn_tail_recovers_every_complete_record(batch, cut,
                                                  tmp_path_factory):
    """Truncating at byte ``cut`` yields exactly the records before it."""
    n, dim, seed = batch
    root = tmp_path_factory.mktemp("torn") / "store"
    store = SignatureStore(root)
    vectors, labels, tenants = make_batch(n, dim, seed)
    result = store.ingest(vectors, labels, tenants)
    seg = root / result.segment
    raw = seg.read_bytes()
    cut = min(cut, len(raw))
    seg.write_bytes(raw[:cut])

    scan = scan_segment(seg)
    header = segment_header_size()
    if cut < header:
        expected_complete = 0
    else:
        expected_complete = min((cut - header) // record_width(dim), n)
    assert scan.n_complete == expected_complete
    # tobytes() sidesteps the (0, 0)-vs-(0, dim) empty-shape distinction.
    assert scan.vectors.tobytes() == vectors[:expected_complete].tobytes()
    assert np.array_equal(
        scan.ids, np.arange(expected_complete, dtype=np.uint64)
    )
    assert scan.truncated == (expected_complete < n) or cut < header


@SETTINGS
@given(tenant=tenant_st, n_shards=st.integers(min_value=1, max_value=64))
def test_router_is_stable_across_instances(tenant, n_shards):
    """Same key → same shard, for any router instance and any run."""
    direct = tenant_shard(tenant, n_shards)
    assert 0 <= direct < n_shards
    assert tenant_shard(tenant, n_shards) == direct
    a = ShardRouter(n_shards=n_shards).fit(np.zeros((1, 2)))
    b = ShardRouter(n_shards=n_shards).fit(np.ones((3, 5)))
    assert a.shard_of_tenant(tenant) == direct
    assert b.shard_of_tenant(tenant) == direct


@SETTINGS
@given(
    tenants=st.lists(tenant_st, min_size=1, max_size=40),
    n_shards=st.integers(min_value=1, max_value=16),
)
def test_router_assign_matches_elementwise(tenants, n_shards):
    router = ShardRouter(n_shards=n_shards).fit(np.zeros((1, 2)))
    assigned = router.assign(tenants, np.zeros((len(tenants), 2)))
    expected = [tenant_shard(t, n_shards) for t in tenants]
    assert list(assigned) == expected


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=60),
    dim=st.integers(min_value=1, max_value=10),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 1.0, 1e4]),
    n_shards=st.integers(min_value=1, max_value=8),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sharded_query_batch_equals_oracle(n, dim, scale, offset, n_shards,
                                           k_frac, seed):
    gen = np.random.default_rng(seed)
    # Rows drawn around a few anchors, 1e-6 apart, plus an exact
    # duplicate: the near-ties a candidate cut can break.
    anchors = offset + scale * gen.normal(size=(1 + n // 6, dim))
    vectors = (anchors[gen.integers(0, len(anchors), size=n)]
               + 1e-6 * scale * gen.normal(size=(n, dim)))
    vectors[n // 2] = vectors[0]
    queries = np.vstack([
        offset + scale * gen.normal(size=(5, dim)),
        vectors[gen.integers(0, n, size=3)],
    ])
    k = 1 + int(k_frac * (n - 1))
    index = ShardedSignatureIndex(n_shards=n_shards, seed=0).fit_arrays(
        np.arange(n, dtype=np.uint64), vectors,
        [f"t-{i % 4}" for i in range(n)],
    )
    ids, dists = index.query_batch(queries, k)
    oracle = LinearScanIndex().fit(vectors)
    for qi, q in enumerate(queries):
        oracle_ids, oracle_dists = oracle.query(q, k)
        assert np.array_equal(ids[qi], oracle_ids)
        assert np.array_equal(dists[qi], oracle_dists)
