"""Shared low-level helpers: validation, RNG plumbing, window arithmetic and
the pairwise squared-distance kernel."""

from repro.utils.atomicio import atomic_write
from repro.utils.distances import squared_distances
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_array,
    check_positive_int,
    check_probability,
    check_in_range,
    parse_shape_spec,
    shapes,
)
from repro.utils.windows import (
    num_windows,
    window_bounds,
    iter_windows,
    sliding_window_view_2d,
    window_size_frames,
)

__all__ = [
    "atomic_write",
    "squared_distances",
    "as_generator",
    "spawn_generators",
    "check_array",
    "check_positive_int",
    "check_probability",
    "check_in_range",
    "parse_shape_spec",
    "shapes",
    "num_windows",
    "window_bounds",
    "iter_windows",
    "sliding_window_view_2d",
    "window_size_frames",
]
