"""The FCM loop against its former iteration, bit for bit (fixed cases).

:func:`membership_from_distances` tests the whole matrix for zero distances
once and takes the masked equal-split path only when that test fails; these
cases put entries on both sides of the ``_EPS`` threshold, and NaN, and
require the same bytes as the oracle in ``tests/fuzzy/fcm_oracle.py``.  A
fit whose center lands exactly on a data point after the first iteration
sends the masked path through the middle of the loop.  The random-shape
property is ``tests/properties/test_fcm_oracle_properties.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzzy.cmeans import _EPS, FCMResult, FuzzyCMeans, membership_from_distances
from tests.fuzzy import fcm_oracle
from tests.fuzzy.fcm_oracle import OracleFuzzyCMeans

FUZZIFIERS = [1.5, 2.0, 3.0]
ABOVE_EPS = np.nextafter(_EPS, np.inf)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_fit(got: FCMResult, want: FCMResult) -> None:
    assert_same_bits(got.centers, want.centers)
    assert_same_bits(got.membership, want.membership)
    assert_same_bits(got.objective_history, want.objective_history)
    assert got.n_iter == want.n_iter
    assert got.converged == want.converged
    assert got.convergence_reason == want.convergence_reason


def distances() -> np.ndarray:
    return np.random.default_rng(7).uniform(0.5, 2.0, size=(6, 5))


def planted(*entries) -> np.ndarray:
    """Distances with ``(row, columns, value)`` entries planted."""
    d2 = distances()
    for row, columns, value in entries:
        d2[row, columns] = value
    return d2


CASES = {
    "regular": distances(),
    "one_zero": planted((1, [2], 0.0)),
    "several_zeros": planted((1, [0, 3], 0.0), (4, [1], 0.0)),
    "all_zeros": planted((2, slice(None), 0.0)),
    "at_eps": planted((3, [4], _EPS)),
    "just_above_eps": planted((3, [4], ABOVE_EPS)),
    "nan": planted((0, [1], np.nan)),
    "nan_and_zero": planted((0, [1], np.nan), (5, [0], 0.0)),
    "wide_range": planted((0, [0], ABOVE_EPS), (0, [1], 1e300), (1, [2], 1e-300)),
}


@pytest.mark.parametrize("m", FUZZIFIERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_membership_matches_oracle_bits(case, m):
    d2 = CASES[case]
    before = d2.copy()
    assert_same_bits(membership_from_distances(d2, m),
                     fcm_oracle.membership_from_distances(d2, m))
    assert_same_bits(d2, before)  # the fast path normalizes its own array


def test_m2_division_keeps_power_bits_across_magnitudes():
    # The m = 2 fast path divides where the oracle raises to -1.0.
    gen = np.random.default_rng(5)
    d2 = np.exp(gen.uniform(np.log(ABOVE_EPS), np.log(1e300), size=(4000, 25)))
    assert_same_bits(membership_from_distances(d2, 2.0),
                     fcm_oracle.membership_from_distances(d2, 2.0))


def test_equal_split_and_threshold_sides():
    u = membership_from_distances(CASES["several_zeros"], 2.0)
    np.testing.assert_array_equal(u[1], [0.5, 0.0, 0.0, 0.5, 0.0])
    np.testing.assert_array_equal(u[4], [0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(
        membership_from_distances(CASES["all_zeros"], 2.0)[2], np.full(5, 0.2))
    # Exactly _EPS counts as "on the center"; the next float up does not.
    np.testing.assert_array_equal(
        membership_from_distances(CASES["at_eps"], 2.0)[3], [0, 0, 0, 0, 1.0])
    assert 0.0 < membership_from_distances(CASES["just_above_eps"], 2.0)[3, 0]
    assert np.isnan(membership_from_distances(CASES["nan"], 2.0)[0]).all()


@pytest.mark.parametrize("m", FUZZIFIERS)
def test_center_landing_on_a_point_after_first_iteration(m):
    # One point sits about 1e6 from a unit cloud.  Once a center claims it, its
    # membership there rounds to exactly 1 and the cloud's weights vanish
    # beside it, so the center update returns the point itself; the
    # distance is exactly 0 and the masked path runs inside the loop.
    x = np.random.default_rng(3).normal(size=(20, 2))
    x[0] = [1e6, 1e6]
    kwargs = dict(n_clusters=3, m=m, max_iter=30, tol=0.0)
    got = FuzzyCMeans(**kwargs).fit(x, seed=11)
    assert got.n_iter == 30
    assert any(np.array_equal(center, x[0]) for center in got.centers)
    # Only the equal-split branch gives the other clusters exactly 0.
    assert np.count_nonzero(got.membership[0]) == 1
    assert_same_fit(got, OracleFuzzyCMeans(**kwargs).fit(x, seed=11))
