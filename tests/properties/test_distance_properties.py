"""Property-based test: the distance kernel stays inside its documented band.

Random point and center counts, dimensions, offsets from the origin and
scales; :func:`repro.utils.distances.squared_distances` must stay within
``16·ε·(‖x‖² + ‖v‖²)`` of the naive loop of the oracle tier
(``tests/fuzzy/test_cmeans_oracle.py``) and never go negative, and
precomputed row norms (``x_sq``) must not change a single bit.  The
cluster-major form, :func:`~repro.utils.distances.squared_distances_cluster_major`,
is held to the same band and the same bits for ``x_sq`` and ``out``, over
point counts up to three blocks of ``CHUNK`` and a remainder.  Skipped
entirely when ``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.utils.distances import (  # noqa: E402
    CHUNK,
    squared_distances,
    squared_distances_cluster_major,
)
from tests.fuzzy.test_cmeans_oracle import (  # noqa: E402
    distance_band,
    naive_squared_distances,
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    c=st.integers(1, 12),
    d=st.integers(1, 12),
    offset=st.sampled_from([0.0, 1e-3, 1.0, 1e2, 1e4]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_squared_distances_within_band(n, c, d, offset, scale, seed):
    gen = np.random.default_rng(seed)
    x = offset + scale * gen.normal(size=(n, d))
    centers = offset + scale * gen.normal(size=(c, d))
    d2 = squared_distances(x, centers)
    assert d2.shape == (n, c)
    assert np.all(d2 >= 0.0)
    assert np.all(np.abs(d2 - naive_squared_distances(x, centers))
                  <= distance_band(x, centers))
    x_sq = np.einsum("nd,nd->n", x, x)
    assert np.array_equal(squared_distances(x, centers, x_sq=x_sq), d2)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3 * CHUNK + 10),
    c=st.integers(1, 8),
    d=st.integers(1, 6),
    offset=st.sampled_from([0.0, 1e-3, 1.0, 1e2, 1e4]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cluster_major_distances_within_band(n, c, d, offset, scale, seed):
    gen = np.random.default_rng(seed)
    x = offset + scale * gen.normal(size=(n, d))
    centers = offset + scale * gen.normal(size=(c, d))
    d2 = squared_distances_cluster_major(x, centers)
    assert d2.shape == (c, n)
    assert np.all(d2 >= 0.0)
    assert np.all(np.abs(d2.T - naive_squared_distances(x, centers))
                  <= distance_band(x, centers))
    x_sq = np.einsum("nd,nd->n", x, x)
    out = np.empty((c, n))
    squared_distances_cluster_major(x, centers, x_sq=x_sq, out=out)
    assert np.array_equal(out, d2)
