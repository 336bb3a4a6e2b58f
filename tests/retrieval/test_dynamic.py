"""iDistance online inserts and deletes: bit-identity with linear scan under churn."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError, RetrievalError
from repro.retrieval.idistance import IDistanceIndex
from repro.retrieval.linear import LinearScanIndex


def clustered(rng, n_clusters=5, per=30, dim=6):
    centers = rng.normal(size=(n_clusters, dim)) * 4
    return np.vstack([
        c + rng.normal(0, 0.3, size=(per, dim)) for c in centers
    ])


def assert_matches_oracle(index, alive, q, k):
    """ids and distances equal a fresh linear scan over the live rows.

    ``alive`` maps id → vector; the oracle indexes the live vectors in
    ascending id order, so its row positions map back through the
    sorted ids.
    """
    ids = np.array(sorted(alive))
    oracle = LinearScanIndex().fit(np.vstack([alive[i] for i in ids]))
    rows, want = oracle.query(q, k)
    got_ids, got = index.query(q, k)
    np.testing.assert_array_equal(got_ids, ids[rows])
    np.testing.assert_array_equal(got, want)


class TestStaticBehaviour:
    def test_matches_linear_scan(self, rng):
        vectors = clustered(rng)
        dyn = IDistanceIndex(n_partitions=5).fit(vectors)
        lin = LinearScanIndex().fit(vectors)
        for _ in range(25):
            q = rng.normal(size=6) * 3
            di, dd = dyn.query(q, k=5)
            li, ld = lin.query(q, k=5)
            np.testing.assert_array_equal(di, li)
            np.testing.assert_array_equal(dd, ld)

    def test_ids_are_row_indices_after_fit(self, rng):
        vectors = clustered(rng)
        dyn = IDistanceIndex(n_partitions=4).fit(vectors)
        ids, dists = dyn.query(vectors[13], k=1)
        assert ids[0] == 13
        assert dists[0] == 0.0

    def test_unfitted(self, rng):
        with pytest.raises(NotFittedError):
            IDistanceIndex().query(rng.normal(size=3), k=1)
        with pytest.raises(NotFittedError):
            IDistanceIndex().insert(rng.normal(size=3))
        with pytest.raises(NotFittedError):
            IDistanceIndex().remove(0)


class TestInsertion:
    def test_inserted_vector_found(self, rng):
        vectors = clustered(rng)
        dyn = IDistanceIndex(n_partitions=5).fit(vectors)
        new = vectors[3] + 0.01
        vid = dyn.insert(new)
        ids, dists = dyn.query(new, k=1)
        assert ids[0] == vid == len(vectors)
        assert dists[0] == 0.0
        assert dyn.n_indexed == len(vectors) + 1

    def test_insert_matches_linear_after_growth(self, rng):
        base = clustered(rng)
        dyn = IDistanceIndex(n_partitions=5).fit(base)
        extra = clustered(np.random.default_rng(7), n_clusters=5, per=5)
        for row in extra:
            dyn.insert(row)
        all_vectors = np.vstack([base, extra])
        lin = LinearScanIndex().fit(all_vectors)
        for _ in range(15):
            q = rng.normal(size=6) * 3
            di, dd = dyn.query(q, k=4)
            li, ld = lin.query(q, k=4)
            np.testing.assert_array_equal(di, li)
            np.testing.assert_array_equal(dd, ld)

    def test_far_insert_accepted_and_exact(self, rng):
        """Inserts far outside the fitted extent join the nearest partition."""
        vectors = rng.normal(size=(30, 4))
        dyn = IDistanceIndex(n_partitions=3).fit(vectors)
        alive = dict(enumerate(vectors))
        for far in (np.full(4, 1e6), 50.0 * rng.normal(size=4),
                    np.full(4, 1e6) + 1e-9, -50.0 * rng.normal(size=4)):
            alive[dyn.insert(far)] = far
        assert dyn.n_indexed == len(alive)
        for q in (np.full(4, 1e6), rng.normal(size=4), 30.0 * rng.normal(size=4)):
            for k in (1, 3, len(alive)):
                assert_matches_oracle(dyn, alive, q, k)

    def test_dimension_mismatch(self, rng):
        dyn = IDistanceIndex(n_partitions=3).fit(rng.normal(size=(20, 4)))
        with pytest.raises(RetrievalError, match="dims"):
            dyn.insert(rng.normal(size=5))


class TestDeletion:
    def test_removed_vector_not_returned(self, rng):
        vectors = clustered(rng)
        dyn = IDistanceIndex(n_partitions=5).fit(vectors)
        assert dyn.remove(10)
        ids, _ = dyn.query(vectors[10], k=3)
        assert 10 not in ids
        assert dyn.n_indexed == len(vectors) - 1

    def test_remove_missing_id(self, rng):
        dyn = IDistanceIndex(n_partitions=3).fit(rng.normal(size=(10, 3)))
        assert not dyn.remove(999)
        assert not dyn.remove(-1)

    def test_remove_twice(self, rng):
        dyn = IDistanceIndex(n_partitions=3).fit(rng.normal(size=(10, 3)))
        assert dyn.remove(4)
        assert not dyn.remove(4)


class TestChurn:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_exactness_under_mixed_workload(self, seed):
        rng = np.random.default_rng(seed)
        base = clustered(rng, n_clusters=4, per=15, dim=5)
        dyn = IDistanceIndex(n_partitions=4).fit(base)
        alive = {i: base[i] for i in range(len(base))}
        for _ in range(60):
            if len(alive) > 8 and rng.random() < 0.45:
                vid = int(rng.choice(list(alive)))
                assert dyn.remove(vid)
                del alive[vid]
            else:
                vec = clustered(rng, n_clusters=4, per=1, dim=5)[
                    rng.integers(4)
                ]
                vid = dyn.insert(vec)
                alive[vid] = vec
        assert dyn.n_indexed == len(alive)
        assert_matches_oracle(dyn, alive, rng.normal(size=5) * 2, 5)
