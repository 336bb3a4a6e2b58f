"""Window arithmetic: bounds, partial windows, views, unit properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.utils.windows import (
    iter_windows,
    num_windows,
    sliding_window_view_2d,
    window_bounds,
    window_size_frames,
)


class TestWindowSizeFrames:
    def test_paper_values_at_120hz(self):
        """50/100/150/200 ms at 120 Hz are 6/12/18/24 frames."""
        assert window_size_frames(50, 120) == 6
        assert window_size_frames(100, 120) == 12
        assert window_size_frames(150, 120) == 18
        assert window_size_frames(200, 120) == 24

    def test_rounds_to_nearest_frame(self):
        assert window_size_frames(55, 120) == 7  # 6.6 frames

    def test_floor_of_one_frame(self):
        assert window_size_frames(1, 120) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            window_size_frames(0, 120)
        with pytest.raises(ValidationError):
            window_size_frames(50, 0)


class TestWindowBounds:
    def test_exact_division(self):
        assert window_bounds(12, 4) == [(0, 4), (4, 8), (8, 12)]

    def test_partial_window_kept_above_half(self):
        # remainder of 3 frames >= 0.5 * 4
        assert window_bounds(11, 4)[-1] == (8, 11)

    def test_partial_window_dropped_below_half(self):
        # remainder of 1 frame < 0.5 * 4
        assert window_bounds(9, 4) == [(0, 4), (4, 8)]

    def test_overlapping_stride(self):
        assert window_bounds(10, 4, stride=2) == [
            (0, 4), (2, 6), (4, 8), (6, 10), (8, 10),
        ]

    def test_stream_shorter_than_window(self):
        """A too-short stream still yields one (whole) window."""
        assert window_bounds(3, 10) == [(0, 3)]

    def test_empty_stream(self):
        assert window_bounds(0, 4) == []

    def test_min_fraction_zero_keeps_everything(self):
        assert window_bounds(9, 4, min_fraction=0.0)[-1] == (8, 9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            window_bounds(10, 0)
        with pytest.raises(ValidationError):
            window_bounds(10, 4, stride=0)
        with pytest.raises(ValidationError):
            window_bounds(10, 4, min_fraction=1.5)

    @given(
        n=st.integers(1, 500),
        window=st.integers(1, 60),
        stride=st.integers(1, 60),
    )
    @settings(max_examples=200)
    def test_bounds_are_valid_ranges(self, n, window, stride):
        bounds = window_bounds(n, window, stride)
        assert bounds, "non-empty stream must yield at least one window"
        for start, stop in bounds:
            assert 0 <= start < stop <= n
            assert stop - start <= window
        starts = [b[0] for b in bounds]
        assert starts == sorted(starts)

    @given(n=st.integers(1, 500), window=st.integers(1, 60))
    @settings(max_examples=100)
    def test_default_stride_windows_are_disjoint_and_ordered(self, n, window):
        bounds = window_bounds(n, window)
        for (s1, e1), (s2, e2) in zip(bounds, bounds[1:]):
            assert e1 <= s2


class TestNumWindows:
    def test_matches_bounds(self):
        for n in (0, 1, 5, 100, 101):
            assert num_windows(n, 7) == len(window_bounds(n, 7))

    def test_counter_recorded_only_by_materializing_path(self):
        """Regression: num_windows used to delegate to window_bounds, so a
        count-then-iterate caller double-counted ``utils.windows.produced``."""
        from repro.obs.config import capture

        with capture() as state:
            n = num_windows(100, 7)
            bounds = window_bounds(100, 7)
        assert n == len(bounds)
        counter = state.registry.counter("utils.windows.produced")
        assert counter.value == len(bounds)

    def test_num_windows_alone_records_nothing(self):
        from repro.obs.config import capture

        with capture() as state:
            num_windows(100, 7)
        assert state.registry.counter("utils.windows.produced").value == 0


class TestIterWindows:
    def test_yields_views(self):
        data = np.arange(20.0).reshape(10, 2)
        chunks = list(iter_windows(data, 4))
        assert [c.shape[0] for c in chunks] == [4, 4, 2]
        assert chunks[0].base is not None  # a view, not a copy

    def test_concatenation_covers_stream(self):
        data = np.arange(24.0).reshape(12, 2)
        joined = np.vstack(list(iter_windows(data, 4)))
        np.testing.assert_array_equal(joined, data)

    def test_rejects_scalars(self):
        with pytest.raises(ValidationError):
            list(iter_windows(np.float64(3.0), 4))


class TestSlidingWindowView:
    def test_shape_and_content(self):
        data = np.arange(20.0).reshape(10, 2)
        view = sliding_window_view_2d(data, window=4, stride=3)
        assert view.shape == (3, 4, 2)
        np.testing.assert_array_equal(view[1], data[3:7])
        assert np.shares_memory(view, data)  # a view, not a copy

    def test_short_input_gives_empty(self):
        data = np.zeros((2, 3))
        assert sliding_window_view_2d(data, 5, 1).shape[0] == 0

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            sliding_window_view_2d(np.zeros(5), 2, 1)

    @given(
        n=st.integers(1, 100),
        window=st.integers(1, 20),
        stride=st.integers(1, 20),
    )
    @settings(max_examples=100)
    def test_matches_manual_slicing(self, n, window, stride):
        data = np.arange(n * 2, dtype=float).reshape(n, 2)
        view = sliding_window_view_2d(data, window, stride)
        expected = [
            data[s : s + window]
            for s in range(0, n - window + 1, stride)
        ]
        assert view.shape[0] == len(expected)
        for got, want in zip(view, expected):
            np.testing.assert_array_equal(got, want)


class TestShortStreamEdges:
    """Regression tier for the short/odd-stream edges: typed errors in,
    whole-stream fallbacks out — never a raw numpy failure."""

    def test_one_frame_stream_yields_one_window(self):
        assert window_bounds(1, 12) == [(0, 1)]
        assert num_windows(1, 12) == 1

    def test_short_stream_whole_window_fallback_any_stride(self):
        for stride in (1, 3, 50):
            assert window_bounds(4, 10, stride=stride) == [(0, 4)]

    def test_zero_frames_is_empty_not_fallback(self):
        assert window_bounds(0, 4) == []
        assert num_windows(0, 4) == 0

    def test_negative_frames_is_typed(self):
        with pytest.raises(ValidationError):
            window_bounds(-1, 4)

    def test_negative_stride_is_typed(self):
        with pytest.raises(ValidationError):
            window_bounds(10, 4, stride=-1)

    def test_bad_min_fraction_is_typed(self):
        with pytest.raises(ValidationError):
            window_bounds(10, 4, min_fraction=1.5)

    def test_iter_windows_short_stream_yields_whole_chunk(self):
        data = np.arange(6.0).reshape(3, 2)
        chunks = list(iter_windows(data, window=10, stride=10))
        assert len(chunks) == 1
        np.testing.assert_array_equal(chunks[0], data)

    def test_sliding_view_zero_columns(self):
        view = sliding_window_view_2d(np.zeros((10, 0)), window=4, stride=3)
        assert view.shape == (3, 4, 0)

    def test_trailing_partial_window_is_odd_sized(self):
        # 13 frames, window 4: the 1-frame tail is dropped at the default
        # half-window threshold but kept at min_fraction=0.
        assert window_bounds(13, 4)[-1] == (8, 12)
        assert window_bounds(13, 4, min_fraction=0.0)[-1] == (12, 13)
