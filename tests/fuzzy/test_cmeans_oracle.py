"""Oracle tests: the vectorized FCM kernels against naive Eq. 4 loops.

The production kernels in :mod:`repro.fuzzy.cmeans` are whole-matrix
vectorized for speed.  Here every kernel is re-implemented as the slowest
possible literal transcription of Bezdek's update rules (nested Python
loops, no numpy tricks) and the two are compared at ``rtol=1e-10`` across
cluster counts and fuzzifiers, including a full fit run step-by-step.

The matrix-product distance kernel is additionally pinned to the naive loop
by its documented band, ``|d2 - naive| <= 16·ε·(‖x‖² + ‖v‖²)`` per entry,
including points far from the origin where the expansion cancels, and is
never negative.  Its cluster-major form, which the FCM loop uses, is held to
the same band, with point counts on both sides of its block size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzzy import cmeans
from repro.fuzzy.cmeans import (
    FuzzyCMeans,
    membership_from_distances,
    squared_distances,
)
from repro.utils.distances import CHUNK, squared_distances_cluster_major
from repro.utils.rng import as_generator

RTOL = 1e-10
#: The distance kernel's band, in float64 epsilons of ``‖x‖² + ‖v‖²``.
BAND_EPSILONS = 16.0


def naive_squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    n, d = x.shape
    c = centers.shape[0]
    out = np.empty((n, c))
    for k in range(n):
        for i in range(c):
            total = 0.0
            for j in range(d):
                diff = x[k, j] - centers[i, j]
                total += diff * diff
            out[k, i] = total
    return out


def distance_band(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per-entry bound ``16·ε·(‖x‖² + ‖v‖²)`` on the kernel's error."""
    norms = (x * x).sum(axis=1)[:, None] + (centers * centers).sum(axis=1)
    return BAND_EPSILONS * np.finfo(float).eps * norms


def naive_membership(d2: np.ndarray, m: float) -> np.ndarray:
    # u_ik = 1 / Σ_j (d_ik / d_jk)^(2/(m-1)), with equal split over centers
    # the point coincides with.
    n, c = d2.shape
    u = np.empty((n, c))
    for k in range(n):
        zeros = [i for i in range(c) if d2[k, i] <= cmeans._EPS]
        if zeros:
            for i in range(c):
                u[k, i] = 1.0 / len(zeros) if i in zeros else 0.0
            continue
        for i in range(c):
            total = 0.0
            for j in range(c):
                total += (d2[k, i] / d2[k, j]) ** (1.0 / (m - 1.0))
            u[k, i] = 1.0 / total
    return u


def naive_centers(x: np.ndarray, u: np.ndarray, m: float) -> np.ndarray:
    n, d = x.shape
    c = u.shape[1]
    centers = np.empty((c, d))
    for i in range(c):
        denom = 0.0
        for k in range(n):
            denom += u[k, i] ** m
        if denom < cmeans._EPS:
            denom = 1.0
        for j in range(d):
            num = 0.0
            for k in range(n):
                num += (u[k, i] ** m) * x[k, j]
            centers[i, j] = num / denom
    return centers


def naive_objective(x, centers, u, m) -> float:
    total = 0.0
    d2 = naive_squared_distances(x, centers)
    for k in range(x.shape[0]):
        for i in range(centers.shape[0]):
            total += (u[k, i] ** m) * d2[k, i]
    return total


@pytest.fixture
def points(rng):
    return rng.normal(size=(60, 3))


@pytest.mark.parametrize("c", [2, 3, 5, 8])
def test_squared_distances_matches_naive(points, rng, c):
    centers = rng.normal(size=(c, points.shape[1]))
    np.testing.assert_allclose(
        squared_distances(points, centers),
        naive_squared_distances(points, centers),
        rtol=RTOL,
    )


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_squared_distances_within_band_of_naive(points, rng, offset):
    # offset=1e3 puts unit-spread points ~1e3 from the origin, where
    # ‖x‖² − 2x·v + ‖v‖² cancels six digits; the first six points sit on
    # the centers, where that cancellation can round below zero.
    x = points + offset
    centers = rng.normal(size=(6, points.shape[1])) + offset
    x[:6] = centers
    d2 = squared_distances(x, centers)
    assert np.all(d2 >= 0.0)
    assert np.all(np.abs(d2 - naive_squared_distances(x, centers))
                  <= distance_band(x, centers))


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, 2 * CHUNK + 3])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_cluster_major_distances_within_band_of_naive(rng, n, offset):
    # Whole blocks of CHUNK points, and a remainder, on both sides of the
    # block size; the first six points sit on the centers, as above.
    x = rng.normal(size=(n, 3)) + offset
    centers = rng.normal(size=(6, 3)) + offset
    x[:6] = centers
    d2 = squared_distances_cluster_major(x, centers)
    assert d2.shape == (6, n) and d2.flags.c_contiguous
    assert np.all(d2 >= 0.0)
    assert np.all(np.abs(d2.T - naive_squared_distances(x, centers))
                  <= distance_band(x, centers))
    out = np.full((6, n), np.nan)
    x_sq = np.einsum("nd,nd->n", x, x)
    assert squared_distances_cluster_major(x, centers, x_sq, out=out) is out
    assert out.tobytes() == d2.tobytes()


def test_point_on_center_takes_equal_split_branch(points, rng):
    centers = rng.normal(size=(4, points.shape[1]))
    x = points.copy()
    x[0] = centers[1]
    d2 = squared_distances(x, centers)
    assert d2[0, 1] <= cmeans._EPS
    np.testing.assert_array_equal(membership_from_distances(d2, 2.0)[0],
                                  [0.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("c", [2, 4, 8])
def test_membership_matches_naive(points, rng, c, m):
    centers = rng.normal(size=(c, points.shape[1]))
    d2 = squared_distances(points, centers)
    u = membership_from_distances(d2, m)
    np.testing.assert_allclose(u, naive_membership(d2, m), rtol=RTOL)
    np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=RTOL)


@pytest.mark.parametrize("m", [1.5, 2.0])
def test_membership_degenerate_rows_match_naive(points, rng, m):
    centers = rng.normal(size=(4, points.shape[1]))
    # Plant points exactly on centers: one on a single center, one on two.
    x = points.copy()
    x[0] = centers[1]
    x[1] = centers[2]
    centers[3] = centers[2]  # x[1] now coincides with two centers
    d2 = squared_distances(x, centers)
    np.testing.assert_allclose(
        membership_from_distances(d2, m), naive_membership(d2, m), rtol=RTOL
    )


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_centers_match_naive(points, rng, m):
    c = 5
    centers = rng.normal(size=(c, points.shape[1]))
    u = membership_from_distances(squared_distances(points, centers), m)
    estimator = FuzzyCMeans(n_clusters=c, m=m)
    # The fit keeps its weights cluster-major, (c, n).
    weights = np.ascontiguousarray((u**m).T)
    np.testing.assert_allclose(
        estimator._centers(points, weights), naive_centers(points, u, m), rtol=RTOL
    )


@pytest.mark.parametrize("m", [1.5, 2.0])
@pytest.mark.parametrize("c", [2, 4])
def test_full_fit_matches_naive_iteration(points, c, m):
    """Replay the whole alternating optimization with the naive kernels."""
    max_iter, tol, seed = 25, 1e-9, 123
    result = FuzzyCMeans(n_clusters=c, m=m, max_iter=max_iter, tol=tol).fit(
        points, seed=seed
    )

    # Same init as FuzzyCMeans._fit_once: centers on distinct random points.
    rng = as_generator(seed)
    centers = points[rng.choice(points.shape[0], size=c, replace=False)].copy()
    u = naive_membership(naive_squared_distances(points, centers), m)
    history = []
    for _ in range(1, max_iter + 1):
        centers = naive_centers(points, u, m)
        u = naive_membership(naive_squared_distances(points, centers), m)
        history.append(naive_objective(points, centers, u, m))
        if len(history) >= 2 and abs(history[-2] - history[-1]) <= tol:
            break

    assert result.n_iter == len(history)
    np.testing.assert_allclose(result.centers, centers, rtol=1e-8)
    np.testing.assert_allclose(result.membership, u, rtol=1e-8)
    np.testing.assert_allclose(result.objective_history, history, rtol=1e-8)
