"""Window arithmetic shared by the EMG and motion-capture feature extractors.

The paper cuts both synchronized streams into the *same* windows (Section 3.3:
a motion of length ``L`` is "divided into ⌈L/w⌉ windows").  Centralizing the
arithmetic here guarantees the two extractors can never disagree about window
boundaries.

Conventions
-----------
* Windows are half-open frame ranges ``[start, stop)``.
* The default stride equals the window length (non-overlapping windows), but
  an explicit stride enables overlapping sliding windows.
* The final window may be shorter than ``window`` when the stream length is
  not a multiple of the stride; it is kept when it has at least
  ``min_fraction`` of the nominal window length, mirroring the paper's
  ceiling division.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.obs.config import is_enabled, record_counter
from repro.utils.validation import check_in_range, check_positive_int, shapes

__all__ = [
    "num_windows",
    "window_bounds",
    "iter_windows",
    "sliding_window_view_2d",
    "window_size_frames",
]


def window_size_frames(window_ms: float, rate_hz: float) -> int:
    """Convert a window duration in milliseconds to a frame count.

    The paper specifies windows of 50–200 ms over 120 Hz streams; 50 ms at
    120 Hz is exactly 6 frames.  Durations that do not land on a frame
    boundary are rounded to the nearest frame, with a floor of one frame.
    """
    window_ms = check_in_range(window_ms, name="window_ms", low=0.0, high=float("inf"),
                               inclusive_low=False)
    rate_hz = check_in_range(rate_hz, name="rate_hz", low=0.0, high=float("inf"),
                             inclusive_low=False)
    return max(1, round(window_ms * rate_hz / 1000.0))


def _bounds_impl(
    n_frames: int,
    window: int,
    stride: Optional[int],
    min_fraction: float,
) -> list[Tuple[int, int]]:
    """The bounds arithmetic shared by the counting and materializing paths."""
    n_frames = check_positive_int(n_frames, name="n_frames", minimum=0)
    window = check_positive_int(window, name="window")
    if stride is None:
        stride = window
    stride = check_positive_int(stride, name="stride")
    min_fraction = check_in_range(min_fraction, name="min_fraction", low=0.0, high=1.0)

    if n_frames == 0:
        return []
    bounds: list[Tuple[int, int]] = []
    start = 0
    while start < n_frames:
        stop = min(start + window, n_frames)
        length = stop - start
        if length == window or length >= max(1, int(np.ceil(min_fraction * window))):
            bounds.append((start, stop))
        start += stride
    if not bounds:
        # Stream shorter than the minimum partial window: use it whole rather
        # than silently producing a featureless motion.
        bounds.append((0, n_frames))
    return bounds


def window_bounds(
    n_frames: int,
    window: int,
    stride: Optional[int] = None,
    min_fraction: float = 0.5,
) -> list[Tuple[int, int]]:
    """Return the list of ``(start, stop)`` frame ranges for a stream.

    Parameters
    ----------
    n_frames:
        Total number of frames in the stream.
    window:
        Nominal window length in frames.
    stride:
        Step between window starts; defaults to ``window`` (non-overlapping).
    min_fraction:
        A trailing partial window is kept only if its length is at least
        ``min_fraction * window`` frames.  With the default 0.5 a 100-frame
        stream and 30-frame windows yields windows at 0, 30, 60 and a final
        10-frame remainder is dropped, while a 16-frame remainder is kept.
    """
    bounds = _bounds_impl(n_frames, window, stride, min_fraction)
    if is_enabled():
        record_counter("utils.windows.produced", len(bounds))
    return bounds


def num_windows(
    n_frames: int,
    window: int,
    stride: Optional[int] = None,
    min_fraction: float = 0.5,
) -> int:
    """Number of windows :func:`window_bounds` would produce.

    Purely arithmetic: the ``utils.windows.produced`` counter is recorded
    only by the materializing :func:`window_bounds` path, so callers that
    first count and then iterate do not inflate the metric.
    """
    return len(_bounds_impl(n_frames, window, stride, min_fraction))


@shapes(data="(n, ...)")
def iter_windows(
    data: np.ndarray,
    window: int,
    stride: Optional[int] = None,
    min_fraction: float = 0.5,
) -> Iterator[np.ndarray]:
    """Yield window slices of ``data`` along axis 0 (views, not copies)."""
    data = np.asarray(data)
    if data.ndim < 1:
        raise ValidationError("data must have at least one dimension")
    for start, stop in window_bounds(data.shape[0], window, stride, min_fraction):
        yield data[start:stop]


@shapes(data="(n, d)")
def sliding_window_view_2d(data: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Strided view of shape ``(n_windows, window, n_cols)`` over a 2-D array.

    Only full windows are included (no ragged trailing window).  When
    partial trailing windows matter, use :func:`iter_windows`, or zero-pad
    ``data`` to the last window's start plus ``window`` rows, as
    :meth:`repro.features.combine.WindowFeaturizer.features` does.  The
    result is a read-only view — no data is copied.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValidationError(f"data must be 2-D, got shape {data.shape}")
    window = check_positive_int(window, name="window")
    stride = check_positive_int(stride, name="stride")
    n = data.shape[0]
    if n < window:
        return np.empty((0, window, data.shape[1]), dtype=data.dtype)
    count = 1 + (n - window) // stride
    view = np.lib.stride_tricks.sliding_window_view(data, (window, data.shape[1]))
    view = view[::stride, 0][:count]
    return view
