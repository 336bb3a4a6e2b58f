"""Down-sampling with anti-alias pre-filtering.

The Myomonitor chain in the paper down-samples rectified 1000 Hz EMG to
120 Hz to align it with the motion-capture frame rate.  1000/120 is not an
integer, so we support rational decimation by low-pass pre-filtering and then
resampling on the exact target time grid with linear interpolation — the
standard approach for biomechanics envelope signals.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SignalError
from repro.obs.config import span
from repro.signal.filters import butter_lowpass
from repro.utils.validation import check_array, check_in_range, check_positive_int

__all__ = ["downsample_to_rate"]


def downsample_to_rate(
    x: np.ndarray,
    fs_in: float,
    fs_out: float,
    *,
    antialias: bool = True,
    n_out: Optional[int] = None,
) -> np.ndarray:
    """Resample ``x`` from ``fs_in`` to ``fs_out`` (``fs_out <= fs_in``).

    The signal is optionally low-pass filtered at 80 % of the output Nyquist
    frequency and then evaluated on the output time grid ``k / fs_out`` by
    linear interpolation.  Rational ratios such as 1000 Hz → 120 Hz are
    handled exactly.

    Parameters
    ----------
    x:
        Signal with time on axis 0 (1-D or 2-D).
    fs_in, fs_out:
        Input and output sampling rates in Hz.
    antialias:
        Disable only when the signal is already band-limited below the output
        Nyquist frequency (e.g. a rectified envelope that was pre-smoothed).
    n_out:
        Force the output length (e.g. to match a motion-capture stream of a
        known frame count); defaults to ``floor(duration * fs_out) + 1``
        samples that fit in the input span.
    """
    x = check_array(x, name="x")
    fs_in = check_in_range(fs_in, name="fs_in", low=0.0, high=float("inf"),
                           inclusive_low=False)
    fs_out = check_in_range(fs_out, name="fs_out", low=0.0, high=float("inf"),
                            inclusive_low=False)
    if fs_out > fs_in:
        raise SignalError(
            f"downsample_to_rate only reduces rate: fs_out {fs_out} > fs_in {fs_in}"
        )
    if x.ndim not in (1, 2):
        raise SignalError(f"x must be 1-D or 2-D, got shape {x.shape}")
    n_in = x.shape[0]
    if n_in < 2:
        raise SignalError("need at least two samples to resample")
    if x.ndim == 2 and x.shape[1] == 0:
        # Without this, the column-wise interpolation below falls over with
        # a raw "need at least one array to stack" ValueError.
        raise SignalError("cannot resample a signal with zero columns")

    with span("signal.resample", n_in=n_in, fs_in=fs_in, fs_out=fs_out):
        y = x
        if antialias and fs_out < fs_in:
            cutoff = 0.8 * fs_out / 2.0
            filt = butter_lowpass(cutoff, fs_in, order=8)
            y = filt.apply_zero_phase(x, axis=0)

        duration = (n_in - 1) / fs_in
        if n_out is None:
            n_out = int(np.floor(duration * fs_out)) + 1
        else:
            n_out = check_positive_int(n_out, name="n_out")
        t_out = np.arange(n_out) / fs_out
        t_out = np.clip(t_out, 0.0, duration)
        t_in = np.arange(n_in) / fs_in
        if y.ndim == 1:
            return np.interp(t_out, t_in, y)
        cols = [np.interp(t_out, t_in, y[:, j]) for j in range(y.shape[1])]
        return np.stack(cols, axis=1)
