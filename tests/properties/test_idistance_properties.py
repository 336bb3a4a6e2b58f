"""Property: iDistance equals the linear-scan oracle bit for bit, under churn.

Random fit/insert/remove sequences over rows that tie: an exact duplicate
and near-tied rows ``spacing`` apart around a few anchors, at offsets far
from the origin where coordinates carry the most rounding.  After the
sequence, every query's ids (mapped to the live rows in id order) and
distances must be ``np.array_equal`` to a fresh
:class:`~repro.retrieval.linear.LinearScanIndex` over the live rows.

Skipped entirely when ``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.retrieval.idistance import IDistanceIndex  # noqa: E402
from repro.retrieval.linear import LinearScanIndex  # noqa: E402


def tied_rows(gen, n, dim, offset, spacing):
    """``n`` rows in groups: an anchor, its exact duplicate, near ties."""
    anchors = offset + gen.normal(size=(1 + n // 6, dim))
    rows = (anchors[gen.integers(0, len(anchors), size=n)]
            + spacing * gen.integers(-2, 3, size=(n, dim)))
    rows[n // 2] = rows[0]
    return rows


@settings(max_examples=60, deadline=None)
@given(
    n_fit=st.integers(min_value=1, max_value=40),
    dim=st.integers(min_value=1, max_value=8),
    offset=st.sampled_from([0.0, 1e3, 1e4]),
    spacing=st.sampled_from([1e-6, 1e-12, 1e-15]),
    n_partitions=st.integers(min_value=1, max_value=6),
    ops=st.lists(st.booleans(), max_size=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_idistance_churn_equals_oracle(n_fit, dim, offset, spacing,
                                       n_partitions, ops, seed):
    gen = np.random.default_rng(seed)
    pool = tied_rows(gen, n_fit + len(ops), dim, offset, spacing)
    index = IDistanceIndex(n_partitions=n_partitions, seed=0).fit(pool[:n_fit])
    alive = dict(enumerate(pool[:n_fit]))
    for step, insert in enumerate(ops):
        if insert or len(alive) == 1:
            row = pool[n_fit + step]
            alive[index.insert(row)] = row
        else:
            victim = int(gen.choice(sorted(alive)))
            assert index.remove(victim)
            assert not index.remove(victim)
            del alive[victim]
    ids = np.array(sorted(alive))
    live = np.vstack([alive[i] for i in ids])
    oracle = LinearScanIndex().fit(live)
    assert index.n_indexed == len(ids)
    queries = np.vstack([
        live[gen.integers(0, len(live), size=3)],
        live[gen.integers(0, len(live), size=3)]
        + spacing * gen.integers(-2, 3, size=(3, dim)),
        offset + gen.normal(size=(2, dim)),
    ])
    for q in queries:
        for k in sorted({1, min(5, len(ids)), len(ids)}):
            rows, want = oracle.query(q, k)
            got_ids, got = index.query(q, k)
            assert np.array_equal(got_ids, ids[rows])
            assert np.array_equal(got, want)
