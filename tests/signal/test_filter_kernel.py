"""The block-recursive cascade kernel against the per-sample oracle and scipy.

Every filter the library designs, two more low-passes and a notch are run
through :func:`filtfilt` and compared with the difference-equation loop it
replaced (``tests/signal/iir_oracle.py``) and with ``scipy.signal.filtfilt``,
over 1-D, multi-channel and ``axis=1`` inputs whose lengths straddle the
padding and the kernel's block length.

The tolerance was fixed before the kernel was written:
``max|kernel - oracle| <= 1e-8 * max|oracle|``.  One ulp of the input's peak
is added to it, for outputs that are exactly zero: a band-pass has no gain at
DC, so one sample in gives ``H(1)^2 * x[0] = 0`` out, which both
implementations reach only to rounding.
"""

import numpy as np
import pytest
import scipy.signal as ss

from repro.errors import SignalError
from repro.signal import filters
from repro.signal.filters import _BLOCK, IIRFilter, butter_bandpass, butter_lowpass, filtfilt
from tests.signal import iir_oracle

FS = 1000.0
RTOL = 1e-8

#: Every filter the library designs, at the settings its callers use, two
#: more low-passes and scipy's 60 Hz notch: a biquad with its zeros on the
#: unit circle.
FILTERS = {
    # Myomonitor.condition -> downsample_to_rate(1000 Hz -> 120 Hz) anti-alias.
    "condition-lowpass": butter_lowpass(0.8 * 120.0 / 2.0, FS, order=8),
    # Myomonitor.acquire and the EMG carrier synthesizer.
    "acquire-bandpass": butter_bandpass(20.0, 450.0, FS, order=4),
    # A classic EMG envelope smoothing, and the kernel's worst-agreeing filter.
    "envelope-lowpass": butter_lowpass(6.0, FS, order=4),
    # An order-8 low-pass at a tenth of the sampling rate.
    "lowpass-100hz": butter_lowpass(100.0, FS, order=8),
    "notch-60hz": IIRFilter(*ss.iirnotch(60.0, 30.0, fs=FS)),
}


def _pad(filt: IIRFilter) -> int:
    return 3 * max(len(filt.a), len(filt.b))


#: Lengths 1 and 2, one at each filter's pad length (27, 15 or 9), one block
#: either side of a block boundary and one that is not a multiple of a block.
LENGTHS = (1, 2, "pad", _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000)

#: (input shape for length n, axis) — 1-D, channels in columns, channels in rows.
LAYOUTS = {
    "1d": (lambda n: (n,), 0),
    "channels": (lambda n: (n, 3), 0),
    "axis1": (lambda n: (3, n), 1),
}


def assert_close(got: np.ndarray, want: np.ndarray, x: np.ndarray) -> None:
    """The differential tolerance: ``RTOL`` of the oracle's peak plus one ulp of the input's."""
    assert got.shape == want.shape
    bound = RTOL * np.max(np.abs(want)) + np.spacing(np.max(np.abs(x)))
    err = np.max(np.abs(got - want))
    assert err <= bound, f"max error {err:.3g} > bound {bound:.3g}"


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", FILTERS)
def test_filtfilt_matches_oracle_and_scipy(name, length, layout):
    filt = FILTERS[name]
    n = _pad(filt) if length == "pad" else length
    shape, axis = LAYOUTS[layout]
    x = np.random.default_rng(n).normal(size=shape(n))
    got = filtfilt(filt.b, filt.a, x, axis=axis)
    assert_close(got, iir_oracle.filtfilt(filt.b, filt.a, x, axis=axis), x)
    padlen = min(_pad(filt), n - 1)
    assert_close(got, ss.filtfilt(filt.b, filt.a, x, axis=axis, padlen=padlen), x)


@pytest.mark.parametrize("name", FILTERS)
def test_apply_matches_oracle_from_rest(name, rng):
    filt = FILTERS[name]
    x = rng.normal(size=(3 * _BLOCK + 5, 2))
    assert_close(filt.apply(x), iir_oracle.lfilter(filt.b, filt.a, x), x)


@pytest.mark.parametrize(
    "b, a",
    [
        ([0.25, 0.25, 0.25, 0.25], [1.0]),  # FIR: every pole at the origin
        ([0.0, 1.0], [1.0]),                # pure delay: a zero at infinity
        ([2.0], [1.0]),                     # order 0: gain only
        ([1.0, 0.0], [1.0, 0.5]),           # odd order
    ],
)
def test_degenerate_transfer_functions(b, a, rng):
    x = rng.normal(size=200)
    assert_close(filtfilt(b, a, x), iir_oracle.filtfilt(b, a, x), x)
    assert_close(IIRFilter(b=b, a=a).apply(x), iir_oracle.lfilter(b, a, x), x)


def test_plan_memo_follows_the_callers_coefficients(rng):
    """A plan is memoized per coefficient values, not per caller array."""
    first = butter_lowpass(100.0, FS, order=4)
    b, a = first.b.copy(), first.a.copy()
    x = rng.normal(size=(3 * _BLOCK + 5, 2))
    assert_close(filtfilt(b, a, x), iir_oracle.filtfilt(b, a, x), x)
    # The same five coefficients each, so the arrays can be reused in place.
    other = butter_bandpass(20.0, 450.0, FS, order=2)
    b[:], a[:] = other.b, other.a
    assert_close(filtfilt(b, a, x), iir_oracle.filtfilt(b, a, x), x)
    assert_close(IIRFilter(b=b, a=a).apply(x), iir_oracle.lfilter(b, a, x), x)
    plan = filters._plan(other.b.tobytes(), other.a.tobytes())
    for array in plan:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0.0


def test_pole_at_one_raises_on_every_call_but_applies_causally(rng):
    """No plan or memo hides the missing steady state; ``apply`` needs none."""
    b, a = [1.0], [1.0, -1.0]  # a running sum
    x = rng.normal(size=3 * _BLOCK + 5)
    for _ in range(2):
        with pytest.raises(SignalError, match="pole at z = 1"):
            filtfilt(b, a, x)
    assert_close(IIRFilter(b=b, a=a).apply(x), iir_oracle.lfilter(b, a, x), x)
