"""Property-based test: the block filter kernel matches the per-sample oracle.

Random lengths (across the padding and several block boundaries) and channel
counts, for every filter the library designs, at the differential tier's
tolerance (``tests/signal/test_filter_kernel.py``).  Skipped entirely when
``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.signal.filters import _BLOCK, filtfilt  # noqa: E402
from tests.signal import iir_oracle  # noqa: E402
from tests.signal.test_filter_kernel import FILTERS, assert_close  # noqa: E402


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(sorted(FILTERS)),
    n=st.integers(1, 4 * _BLOCK + 7),
    channels=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_filtfilt_matches_oracle(name, n, channels, seed):
    filt = FILTERS[name]
    x = np.random.default_rng(seed).normal(size=(n, channels))
    assert_close(filtfilt(filt.b, filt.a, x), iir_oracle.filtfilt(filt.b, filt.a, x), x)
