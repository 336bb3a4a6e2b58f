"""Property-based test: the FCM loop is bit-identical to its former iteration.

Random point counts, cluster counts, dimensions, fuzzifiers, restart
counts, iteration caps, tolerances and seeds; :class:`FuzzyCMeans` must
return the same bytes as ``OracleFuzzyCMeans`` (``tests/fuzzy/fcm_oracle.py``)
for the centers, memberships and objective history, and the same
iteration count and convergence flag.  Some draws duplicate data points,
so centers can sit on points mid-fit.  Skipped entirely when
``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.fuzzy.cmeans import FuzzyCMeans  # noqa: E402
from tests.fuzzy.fcm_oracle import OracleFuzzyCMeans  # noqa: E402
from tests.fuzzy.test_fcm_oracle_equivalence import assert_same_fit  # noqa: E402


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 80),
    c=st.integers(2, 10),
    d=st.integers(1, 8),
    m=st.sampled_from([1.5, 2.0, 3.0]),
    n_init=st.sampled_from([1, 2]),
    max_iter=st.integers(1, 60),
    tol=st.sampled_from([0.0, 1e-9, 1e-6]),
    duplicates=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    fit_seed=st.integers(0, 2**32 - 1),
)
def test_fit_matches_oracle_bits(n, c, d, m, n_init, max_iter, tol,
                                 duplicates, data_seed, fit_seed):
    assume(c <= n)
    gen = np.random.default_rng(data_seed)
    x = gen.normal(size=(n, d)) * gen.choice([1e-3, 1.0, 1e3])
    if duplicates:
        x[gen.integers(0, n, size=n // 2)] = x[0]
    kwargs = dict(n_clusters=c, m=m, max_iter=max_iter, tol=tol, n_init=n_init)
    assert_same_fit(FuzzyCMeans(**kwargs).fit(x, seed=fit_seed),
                    OracleFuzzyCMeans(**kwargs).fit(x, seed=fit_seed))
