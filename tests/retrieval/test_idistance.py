"""The iDistance index: bit-identity with linear scan, and pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError, RetrievalError, ValidationError
from repro.retrieval.idistance import IDistanceIndex
from repro.retrieval.linear import LinearScanIndex


def clustered(rng, n_clusters=6, per=40, dim=8, spread=0.3):
    centers = rng.normal(size=(n_clusters, dim)) * 5
    return np.vstack([
        c + rng.normal(0, spread, size=(per, dim)) for c in centers
    ]), centers


class TestExactness:
    def test_identical_to_linear_scan_on_clustered_data(self, rng):
        vectors, centers = clustered(rng)
        linear = LinearScanIndex().fit(vectors)
        idist = IDistanceIndex(n_partitions=6).fit(vectors)
        for i in range(40):
            q = centers[i % 6] + rng.normal(0, 0.5, size=8)
            li, ld = linear.query(q, k=5)
            ii, idd = idist.query(q, k=5)
            np.testing.assert_array_equal(li, ii)
            np.testing.assert_array_equal(ld, idd)

    def test_identical_on_uniform_data(self, rng):
        vectors = rng.uniform(-1, 1, size=(200, 5))
        linear = LinearScanIndex().fit(vectors)
        idist = IDistanceIndex(n_partitions=8).fit(vectors)
        for _ in range(25):
            q = rng.uniform(-1.5, 1.5, size=5)
            li, ld = linear.query(q, k=7)
            ii, idd = idist.query(q, k=7)
            np.testing.assert_array_equal(li, ii)
            np.testing.assert_array_equal(ld, idd)

    def test_query_far_outside_data(self, rng):
        vectors, _ = clustered(rng)
        linear = LinearScanIndex().fit(vectors)
        idist = IDistanceIndex(n_partitions=6).fit(vectors)
        q = np.full(8, 100.0)
        li, ld = linear.query(q, k=3)
        ii, idd = idist.query(q, k=3)
        np.testing.assert_array_equal(li, ii)
        np.testing.assert_array_equal(ld, idd)

    def test_k_equals_n(self, rng):
        vectors = rng.normal(size=(30, 4))
        linear = LinearScanIndex().fit(vectors)
        idist = IDistanceIndex(n_partitions=4).fit(vectors)
        q = rng.normal(size=4)
        li, ld = linear.query(q, k=30)
        ii, idd = idist.query(q, k=30)
        np.testing.assert_array_equal(li, ii)
        np.testing.assert_array_equal(ld, idd)

    def test_tie_on_the_stop_radius(self):
        """Rows 0 and 1 tie at exactly the first search radius.

        Row 0's key rounds just outside the first annulus while row 1 is
        inside it; without the stop rule's rounding slack the search stops
        there and returns row 1 instead of the lower-id row 0.
        """
        vectors = np.array([[3.1006732974976936], [0.678276373927059],
                            [7.888853629795464], [-12.260045056730824]])
        q = np.array([1.8894748357123763])
        ii, idd = IDistanceIndex(n_partitions=1).fit(vectors).query(q, k=1)
        li, ld = LinearScanIndex().fit(vectors).query(q, k=1)
        assert list(li) == [0]
        np.testing.assert_array_equal(ii, li)
        np.testing.assert_array_equal(idd, ld)

    @given(seed=st.integers(0, 200), k=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_exactness_property(self, seed, k):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(80, 4)) * rng.uniform(0.5, 5)
        linear = LinearScanIndex().fit(vectors)
        idist = IDistanceIndex(n_partitions=5).fit(vectors)
        q = rng.normal(size=4) * 3
        li, ld = linear.query(q, k=k)
        ii, idd = idist.query(q, k=k)
        np.testing.assert_array_equal(li, ii)
        np.testing.assert_array_equal(ld, idd)


class TestPruning:
    def test_prunes_on_clustered_data(self, rng):
        """On well-clustered data most candidates are never examined."""
        vectors, centers = clustered(rng, n_clusters=8, per=80)
        idist = IDistanceIndex(n_partitions=8).fit(vectors)
        examined = 0
        n_queries = 30
        for i in range(n_queries):
            q = centers[i % 8] + rng.normal(0, 0.3, size=8)
            idist.query(q, k=5)
            examined += idist.last_candidates
        assert examined / n_queries < 0.5 * len(vectors)

    def test_statistics_exposed(self, rng):
        vectors, _ = clustered(rng)
        idist = IDistanceIndex(n_partitions=4).fit(vectors)
        idist.query(vectors[0], k=3)
        assert idist.last_candidates >= 3
        assert idist.last_rounds >= 1


class TestEdgeCases:
    def test_single_partition(self, rng):
        vectors = rng.normal(size=(20, 3))
        idist = IDistanceIndex(n_partitions=1).fit(vectors)
        linear = LinearScanIndex().fit(vectors)
        q = rng.normal(size=3)
        np.testing.assert_array_equal(
            idist.query(q, k=4)[0], linear.query(q, k=4)[0]
        )

    def test_more_partitions_than_points(self, rng):
        vectors = rng.normal(size=(5, 3))
        idist = IDistanceIndex(n_partitions=20).fit(vectors)
        assert idist.n_indexed == 5
        ii, _ = idist.query(vectors[2], k=1)
        assert ii[0] == 2

    def test_duplicate_points(self):
        vectors = np.vstack([np.zeros((10, 2)), np.ones((10, 2))])
        idist = IDistanceIndex(n_partitions=2).fit(vectors)
        ii, dd = idist.query(np.zeros(2), k=10)
        assert set(ii) == set(range(10))
        np.testing.assert_array_equal(dd, 0.0)

    def test_unfitted(self, rng):
        with pytest.raises(NotFittedError):
            IDistanceIndex().query(rng.normal(size=3), k=1)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            IDistanceIndex(n_partitions=0)

    def test_k_exceeding_n_rejected(self, rng):
        idist = IDistanceIndex().fit(rng.normal(size=(10, 2)))
        with pytest.raises(RetrievalError):
            idist.query(rng.normal(size=2), k=11)
