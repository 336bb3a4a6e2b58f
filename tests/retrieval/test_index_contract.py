"""One contract, four backends.

Every :class:`NearestNeighborIndex` implementation must behave
identically at the API boundary: same validation errors, same tie
ordering, same neighbour sets as the linear-scan oracle.  This file
parametrizes that contract over all four backends so a fifth backend
only needs one new factory entry to inherit the whole suite.
"""

import numpy as np
import pytest

from repro.errors import NotFittedError, RetrievalError, ValidationError
from repro.retrieval import (
    BPlusTree,
    DynamicIDistanceIndex,
    IDistanceIndex,
    LinearScanIndex,
    NearestNeighborIndex,
    ShardedSignatureIndex,
)

BACKENDS = {
    "linear": lambda: LinearScanIndex(),
    "idistance": lambda: IDistanceIndex(n_partitions=4, seed=0),
    "dynamic": lambda: DynamicIDistanceIndex(n_partitions=4, seed=0),
    "sharded": lambda: ShardedSignatureIndex(n_shards=4, seed=0),
}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]


@pytest.fixture
def database(rng):
    vectors = rng.uniform(0.0, 1.0, size=(60, 5))
    vectors[7] = vectors[3]  # exact duplicate → guaranteed tie
    return vectors


class TestContract:
    def test_is_a_nearest_neighbor_index(self, backend):
        assert isinstance(backend(), NearestNeighborIndex)

    def test_fit_returns_self(self, backend, database):
        index = backend()
        assert index.fit(database) is index

    def test_matches_linear_oracle(self, backend, database, rng):
        index = backend().fit(database)
        oracle = LinearScanIndex().fit(database)
        for k in (1, 4, 12):
            for _ in range(8):
                q = rng.uniform(size=5)
                ids, dists = index.query(q, k)
                oracle_ids, oracle_dists = oracle.query(q, k)
                np.testing.assert_array_equal(ids, oracle_ids)
                np.testing.assert_allclose(dists, oracle_dists, atol=1e-12)

    def test_results_sorted_ascending(self, backend, database, rng):
        index = backend().fit(database)
        _, dists = index.query(rng.uniform(size=5), 10)
        assert np.all(np.diff(dists) >= 0)

    def test_duplicate_keys_tie_break_by_index(self, backend, database):
        """Rows 3 and 7 are identical; the lower index must come first."""
        index = backend().fit(database)
        ids, dists = index.query(database[3], 2)
        assert list(ids) == [3, 7]
        assert dists[0] == dists[1] == 0.0

    def test_head_of_k_list_is_the_nearest(self, backend, database, rng):
        """The first of k neighbours is the k=1 answer, ties included."""
        index = backend().fit(database)
        queries = [database[3], database[7]] + [rng.uniform(size=5)
                                                for _ in range(6)]
        for q in queries:
            nearest = index.query(q, 1)[0][0]
            for k in (1, 5, len(database)):
                assert index.query(q, k)[0][0] == nearest

    def test_k_equals_n(self, backend, database):
        index = backend().fit(database)
        ids, _ = index.query(database[0], len(database))
        assert sorted(ids) == list(range(len(database)))

    def test_k_beyond_n_rejected(self, backend, database):
        index = backend().fit(database)
        with pytest.raises(RetrievalError):
            index.query(database[0], len(database) + 1)

    def test_nonpositive_k_rejected(self, backend, database):
        index = backend().fit(database)
        with pytest.raises(ValidationError):
            index.query(database[0], 0)

    def test_wrong_query_dim_rejected(self, backend, database):
        index = backend().fit(database)
        with pytest.raises(RetrievalError):
            index.query(np.zeros(9), 1)

    def test_unfitted_raises_not_fitted(self, backend):
        with pytest.raises(NotFittedError):
            backend().query(np.zeros(5), 1)

    def test_nearest_to_database_row_is_itself(self, backend, database):
        index = backend().fit(database)
        for row in (0, 20, 59):
            ids, dists = index.query(database[row], 1)
            assert dists[0] == 0.0
            # Row 7 duplicates row 3, so "itself" is the lower of the pair.
            expected = 3 if row == 7 else row
            assert ids[0] == expected


class TestBPlusTreeEdges:
    """The key structure under iDistance gets its own edge cases."""

    def test_empty_tree(self):
        tree = BPlusTree(branching=4)
        assert len(tree) == 0
        assert tree.range_search(-1e9, 1e9) == []
        assert list(tree.items()) == []
        tree.check_invariants()

    def test_duplicate_keys_all_retained(self):
        tree = BPlusTree(branching=4)
        for value in range(10):
            tree.insert(1.5, value)
        tree.insert(0.5, "low")
        tree.insert(2.5, "high")
        hits = tree.range_search(1.5, 1.5)
        assert sorted(v for _, v in hits) == list(range(10))
        assert len(tree) == 12
        tree.check_invariants()

    def test_delete_one_duplicate_keeps_the_rest(self):
        tree = BPlusTree(branching=4)
        for value in range(6):
            tree.insert(2.0, value)
        assert tree.delete(2.0, 3)
        remaining = sorted(v for _, v in tree.range_search(2.0, 2.0))
        assert remaining == [0, 1, 2, 4, 5]
        assert not tree.delete(2.0, 3)
        tree.check_invariants()

    def test_range_search_empty_interval(self):
        tree = BPlusTree(branching=4)
        for key in range(20):
            tree.insert(float(key), key)
        assert tree.range_search(5.5, 5.9) == []
        assert [v for _, v in tree.range_search(3.0, 5.0)] == [3, 4, 5]
