"""Property-based test: the first FCM iterations stay inside the oracle's band.

Random point counts (up to 80, or 250–600 so that whole blocks of 256 windows
and a remainder both occur), cluster counts, dimensions, fuzzifiers,
iteration caps of 1–5, tolerances, data scales from 1e-4 to 1e4 and seeds;
some draws duplicate data points, so centers can sit on points mid-fit.
:class:`FuzzyCMeans` must stop at an iteration the oracle's objective
allows, and its centers, memberships and objective history must lie inside
the band that ``tests/fuzzy/test_fcm_oracle_equivalence.py`` derives along
the trajectory of ``OracleFuzzyCMeans`` (``tests/fuzzy/fcm_oracle.py``).
Skipped entirely when ``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.fuzzy.test_fcm_oracle_equivalence import assert_fit_within_band  # noqa: E402


@settings(max_examples=80, deadline=None)
@given(
    n=st.one_of(st.integers(2, 80), st.integers(250, 600)),
    c=st.integers(2, 10),
    d=st.integers(1, 8),
    m=st.sampled_from([1.5, 2.0, 3.0]),
    max_iter=st.integers(1, 5),
    tol=st.sampled_from([0.0, 1e-9, 1e-6]),
    scale=st.sampled_from([1e-4, 1e-2, 1.0, 1e2, 1e4]),
    duplicates=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    fit_seed=st.integers(0, 2**32 - 1),
)
def test_first_iterations_within_band_of_oracle(n, c, d, m, max_iter, tol,
                                                scale, duplicates, data_seed,
                                                fit_seed):
    assume(c <= n)
    gen = np.random.default_rng(data_seed)
    x = gen.normal(size=(n, d)) * scale
    if duplicates:
        x[gen.integers(0, n, size=n // 2)] = x[0]
    assert_fit_within_band(x, c, m, max_iter, tol, fit_seed)
