"""Property-based test: the cascade kernel stays inside the per-sample oracle's band.

Butterworth low-pass designs of order 1–8 and band-pass designs of prototype
order 1–4 (digital order 2–8), at lengths 1–700 (with multiples of the
kernel's block length and their neighbours drawn often), 1–4 channels,
``axis`` 0 or 1 and amplitudes from 1e-6 to 1e6.  :func:`filtfilt` must stay
within ``iir_oracle.filtfilt``'s band and :meth:`IIRFilter.apply` within
``iir_oracle.lfilter``'s, the band of ``tests/signal/test_filter_kernel.py``:
1e-8 of the oracle's peak plus one ulp of the input's.

Cutoffs are drawn only where that transfer-function-form oracle itself
agrees with ``scipy.signal.filtfilt`` inside the band: low-pass cutoffs and
band edges between 0.1 and 0.9 of the Nyquist frequency, with bands at least
0.1 of it wide.  There the two differ by at most 0.02 of the band (an
order-8 low-pass at 0.1, an order-4 band-pass at 0.1–0.2), and the kernel
differs from the oracle by at most 0.11.  Outside it the oracle is the
inaccurate side: an order-8 low-pass at 0.05 of Nyquist, or an order-4
band-pass at 0.9–0.98, misses scipy by 1.6 and 2 bands.
:func:`test_oracle_agrees_with_scipy_at_the_range_edges` checks the corners.
Skipped entirely when ``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties

hypothesis = pytest.importorskip("hypothesis")
ss = pytest.importorskip("scipy.signal")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.signal.filters import (  # noqa: E402
    _BLOCK,
    IIRFilter,
    butter_bandpass,
    butter_lowpass,
    filtfilt,
)
from tests.signal import iir_oracle  # noqa: E402
from tests.signal.test_filter_kernel import assert_close  # noqa: E402

#: Cutoffs and band edges, as fractions of the Nyquist frequency.
LOW, HIGH, MIN_WIDTH = 0.1, 0.9, 0.1
#: A sampling rate whose Nyquist frequency is 1.
FS = 2.0

LENGTHS = st.one_of(
    st.integers(1, 700),
    st.sampled_from([k * _BLOCK + d for k in range(1, 11) for d in (-1, 0, 1)]),
)


@st.composite
def designs(draw) -> IIRFilter:
    if draw(st.booleans()):
        cutoff = draw(st.floats(LOW, HIGH))
        return butter_lowpass(cutoff, FS, order=draw(st.integers(1, 8)))
    low = draw(st.floats(LOW, HIGH - MIN_WIDTH))
    high = draw(st.floats(low + MIN_WIDTH, HIGH))
    return butter_bandpass(low, high, FS, order=draw(st.integers(1, 4)))


def signal(n: int, channels: int, axis: int, exponent: float, seed: int) -> np.ndarray:
    shape = (n, channels) if axis == 0 else (channels, n)
    return 10.0**exponent * np.random.default_rng(seed).normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(
    filt=designs(),
    n=LENGTHS,
    channels=st.integers(1, 4),
    axis=st.sampled_from([0, 1]),
    exponent=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_filtfilt_within_oracle_band(filt, n, channels, axis, exponent, seed):
    x = signal(n, channels, axis, exponent, seed)
    assert_close(filtfilt(filt.b, filt.a, x, axis=axis),
                 iir_oracle.filtfilt(filt.b, filt.a, x, axis=axis), x)


@settings(max_examples=60, deadline=None)
@given(
    filt=designs(),
    n=LENGTHS,
    channels=st.integers(1, 4),
    axis=st.sampled_from([0, 1]),
    exponent=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_within_oracle_band(filt, n, channels, axis, exponent, seed):
    x = signal(n, channels, axis, exponent, seed)
    assert_close(filt.apply(x, axis=axis),
                 iir_oracle.lfilter(filt.b, filt.a, x, axis=axis), x)


@pytest.mark.parametrize("design", [
    *[("lowpass", order, (edge,)) for order in (4, 8) for edge in (LOW, HIGH)],
    ("bandpass", 4, (LOW, LOW + MIN_WIDTH)),
    ("bandpass", 4, (HIGH - MIN_WIDTH, HIGH)),
])
def test_oracle_agrees_with_scipy_at_the_range_edges(design):
    kind, order, edges = design
    design_fn = butter_lowpass if kind == "lowpass" else butter_bandpass
    filt = design_fn(*edges, FS, order=order)
    x = np.random.default_rng(order).normal(size=(700, 2))
    pad = 3 * max(len(filt.a), len(filt.b))
    assert_close(ss.filtfilt(filt.b, filt.a, x, axis=0, padlen=pad),
                 iir_oracle.filtfilt(filt.b, filt.a, x), x)
