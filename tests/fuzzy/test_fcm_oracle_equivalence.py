"""The FCM loop against its former iteration, inside a derived band.

:func:`membership_from_distances` is unchanged by the cluster-major loop and
still matches the oracle in ``tests/fuzzy/fcm_oracle.py`` bit for bit: these
cases put entries on both sides of the ``_EPS`` threshold, and NaN.

:meth:`FuzzyCMeans._fit_once` rounds differently from the oracle's
iteration (``(c, n)`` layout, products over fixed blocks of windows, ``J``
from the normalizers), so a fit is compared with the oracle over its first
one to five iterations, inside a band carried along the oracle's own
trajectory.

The band
--------
With ``γ_k = kε/(1 − kε)`` (``ε`` the float64 machine epsilon), each step
bounds what the two loops may differ by, given what they differed by before:

* **Distances.**  Each kernel is within ``16·ε·(‖x‖² + ‖v‖²)`` of the naive
  loop (``tests/fuzzy/test_cmeans_oracle.py``), the naive loop within
  ``γ_{d+2}`` of the exact value, and centers ``γ`` apart move an exact
  squared distance by at most ``2‖x − v‖γ + γ²``.  Summed, this is ``β``.
* **Memberships.**  ``u_i = 1 / (1 + Σ_{j≠i} (d_i/d_j)^(1/(m−1)))`` falls as
  ``d_i`` grows and rises as any other ``d_j`` grows, so over the box
  ``d ± β`` its extremes sit at the box's corners.  A distance that may fall
  to ``_EPS`` or below may send the point down the equal-split path, so the
  split over every admissible zero set joins the range.  Rounding adds
  ``γ_{c+3}`` per evaluation.
* **Weights.**  ``u^m`` is monotone, so its range is the range of ``u``
  raised to ``m``, widened by ``2ε`` for ``pow``.
* **Centers.**  For exact weighted means ``v̂ − v = Σ_k e_k (x_k − v) / Ŵ``
  with ``|e_k| ≤ δw_k``, so ``‖v̂ − v‖ ≤ Σ_k δw_k ‖x_k − v‖ / (W − Σ_k δw_k)``.
  Summing ``n`` products in any order, blocked or not, errs by at most
  ``γ_n`` of the sum of their magnitudes, which adds
  ``4(γ_n + ε)·‖max_k |x_k|‖`` for the two loops.  A cluster whose weight
  sum may cross ``_EPS`` (the abandoned-cluster rule) gets no bound.
* **Objective.**  ``Σ (δw (d2 + β) + w β)`` bounds the exact values, and
  rounding adds ``2(γ_{nc} + γ_n + 2m·γ_{c+3})`` of ``Σ (w + δw)(d2 + β)``:
  a direct sum of ``nc`` terms on the oracle's side, normalizers and
  ``Σ_k S_k^(1−m)`` on the loop's.

The bound is first order and worst case, so it is loose: on z-scored data
it sits near 1e-12–1e-9 after five iterations, 3–7 orders of magnitude
above the observed differences, which are a few ε.  It is infinite only
where a cluster may be abandoned, and it still fails on a dropped block
remainder or a wrong exponent in ``J``, which are off by far more.  Where
``‖x‖²`` exceeds about 70, the distance band at a point reaches ``_EPS``,
so an initial center, which is a data point, may or may not send its own
point down the equal-split path; for ``m = 3`` that alone widens the band
to about 1e-4 of the data's scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

import numpy as np
import pytest

from repro.fuzzy.cmeans import (
    _EPS,
    FuzzyCMeans,
    _update_memberships,
    membership_from_distances,
)
from repro.utils.distances import squared_distances
from repro.utils.rng import as_generator
from tests.fuzzy import fcm_oracle
from tests.fuzzy.fcm_oracle import OracleFuzzyCMeans

FUZZIFIERS = [1.5, 2.0, 3.0]
ABOVE_EPS = np.nextafter(_EPS, np.inf)
EPS = np.finfo(float).eps


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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


# ----------------------------------------------------------------------
# The band (derived in the module docstring)
# ----------------------------------------------------------------------


def gamma(k: float) -> float:
    """``γ_k``: the relative error bound of ``k`` rounded operations."""
    return k * EPS / (1.0 - k * EPS)


def distance_band(x: np.ndarray, centers: np.ndarray, center_band: np.ndarray,
                  d2: np.ndarray) -> np.ndarray:
    """``β``: how far the loop's ``(n, c)`` distances may be from ``d2``,
    the oracle's at ``centers``, when the loop's centers are within
    ``center_band`` of them."""
    x_sq = np.einsum("nd,nd->n", x, x)[:, None]
    v_norm = np.linalg.norm(centers, axis=1)[None, :]
    g = center_band[None, :]
    kernels = 16 * EPS * (2 * x_sq + v_norm**2 + (v_norm + g) ** 2)
    spread = np.sqrt(d2 + kernels)
    with np.errstate(invalid="ignore"):
        moved = np.where(np.isinf(g), np.inf, 2 * spread * g + g * g)
    return kernels + moved + gamma(x.shape[1] + 2) * (2 * d2 + moved)


def membership_range(lo: np.ndarray, hi: np.ndarray, m: float):
    """Least and greatest membership over squared distances in ``[lo, hi]``."""
    p = 1.0 / (m - 1.0)
    certain = hi <= _EPS  # on a center for certain
    possible = lo <= _EPS  # on a center, perhaps
    n_certain = certain.sum(axis=1, keepdims=True)
    n_possible = possible.sum(axis=1, keepdims=True)
    # The equal split 1/|Z| over a zero set Z with certain <= Z <= possible.
    # A possible zero is left out of Z only if Z can be nonempty without it.
    optional = (n_possible >= 2) | (n_certain >= 1)
    split_lo = np.where(certain, 1.0 / np.maximum(n_possible, 1),
                        np.where(possible & ~optional, 1.0, 0.0))
    split_hi = np.where(certain, 1.0 / np.maximum(n_certain, 1),
                        np.where(possible, 1.0 / (n_certain + 1), 0.0))
    u_lo = np.where(n_possible > 0, split_lo, np.inf)
    u_hi = np.where(n_possible > 0, split_hi, -np.inf)
    # The regular formula, unless some distance is certainly a zero.
    regular = n_certain == 0
    above = np.maximum(lo, _EPS)
    others = ~np.eye(lo.shape[1], dtype=bool)[None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        worst = np.where(others, (hi[:, :, None] / above[:, None, :]) ** p, 0.0)
        best = np.where(others, (above[:, :, None] / hi[:, None, :]) ** p, 0.0)
    u_lo = np.where(regular, np.minimum(u_lo, 1.0 / (1.0 + worst.sum(axis=2))), u_lo)
    u_hi = np.where(regular, np.maximum(u_hi, 1.0 / (1.0 + best.sum(axis=2))), u_hi)
    return u_lo, u_hi


def membership_bands(x, centers, center_band, d2, u, m):
    """``(δu, δw, δJ)`` at one state of the oracle."""
    n, c = u.shape
    beta = distance_band(x, centers, center_band, d2)
    u_lo, u_hi = membership_range(np.maximum(d2 - beta, 0.0), d2 + beta, m)
    du = np.maximum(u_hi - u, u - u_lo) + 4 * gamma(c + 3)
    w = u**m
    w_hi = np.minimum(u + du, 1.0) ** m * (1 + 2 * EPS)
    w_lo = np.maximum(u - du, 0.0) ** m * (1 - 2 * EPS)
    dw = np.maximum(w_hi - w, w - w_lo)
    if not np.isfinite(beta).all():
        return du, dw, np.inf
    reach = np.sum((w + dw) * (d2 + beta))
    rounding = 2 * (gamma(n * c) + gamma(n) + 2 * m * gamma(c + 3)) * reach
    return du, dw, float(np.sum(dw * (d2 + beta) + w * beta) + rounding)


def center_band(x: np.ndarray, centers: np.ndarray, w: np.ndarray,
                dw: np.ndarray) -> np.ndarray:
    """How far the loop's centers may be from ``centers``, the oracle's
    update from weights ``w``, when the loop's weights are within ``dw``."""
    n = x.shape[0]
    total = w.sum(axis=0)
    slack = dw.sum(axis=0)
    band = np.full(centers.shape[0], np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.linalg.norm(x[:, None, :] - centers[None, :, :], axis=2)
        kept = total - slack > _EPS
        band[kept] = ((dw * spread).sum(axis=0) / (total - slack))[kept]
        band[kept] += 4 * (gamma(n) + EPS) * np.linalg.norm(np.abs(x).max(axis=0))
        # Abandoned on both sides: the denominator is 1 and v = Σ w x.
        norms = np.linalg.norm(x, axis=1)[:, None]
        gone = total + slack < _EPS
        band[gone] = ((dw * norms).sum(axis=0)
                      + 2 * (gamma(n) + EPS) * ((w + dw) * norms).sum(axis=0))[gone]
    return band


@dataclass
class OracleStep:
    """The oracle's state after one iteration, with the loop's band."""

    centers: np.ndarray
    membership: np.ndarray
    objective: float
    center_band: np.ndarray
    membership_band: np.ndarray
    objective_band: float


def oracle_steps(x: np.ndarray, c: int, m: float, seed: int,
                 iterations: int) -> List[OracleStep]:
    """The oracle's iteration (``fcm_oracle``), run ``iterations`` times
    without a stopping rule, carrying the band from one step to the next."""
    rng = as_generator(seed)
    centers = x[rng.choice(x.shape[0], size=c, replace=False)].copy()
    oracle = OracleFuzzyCMeans(n_clusters=c, m=m)
    d2 = squared_distances(x, centers)
    u = fcm_oracle.membership_from_distances(d2, m)
    _, dw, _ = membership_bands(x, centers, np.zeros(c), d2, u, m)
    steps = []
    for _ in range(iterations):
        weights = u**m
        centers = oracle._centers(x, u)
        band = center_band(x, centers, weights, dw)
        d2 = squared_distances(x, centers)
        u = fcm_oracle.membership_from_distances(d2, m)
        du, dw, dj = membership_bands(x, centers, band, d2, u, m)
        steps.append(OracleStep(centers, u, float(np.sum((u**m) * d2)),
                                band, du, dj))
    return steps


def admissible_stops(steps: List[OracleStep], tol: float) -> Set[int]:
    """Iteration counts the loop may stop at: wherever ``|ΔJ| <= tol`` may
    hold within the objective bands, up to the first where it must."""
    stops = set()
    for t in range(2, len(steps) + 1):
        change = abs(steps[t - 2].objective - steps[t - 1].objective)
        slack = steps[t - 2].objective_band + steps[t - 1].objective_band
        if change - slack <= tol:
            stops.add(t)
        if change + slack <= tol:
            return stops
    stops.add(len(steps))
    return stops


def assert_fit_within_band(x: np.ndarray, c: int, m: float, max_iter: int,
                           tol: float, seed: int) -> List[OracleStep]:
    """Fit both loops and require the loop's fit inside the band."""
    steps = oracle_steps(x, c, m, seed, max_iter)
    kwargs = dict(n_clusters=c, m=m, max_iter=max_iter, tol=tol)
    # oracle_steps replays the oracle exactly.
    want = OracleFuzzyCMeans(**kwargs).fit(x, seed=seed)
    assert_same_bits(want.centers, steps[want.n_iter - 1].centers)
    assert_same_bits(want.membership, steps[want.n_iter - 1].membership)
    assert want.objective_history.tolist() == [
        step.objective for step in steps[:want.n_iter]]

    got = FuzzyCMeans(**kwargs).fit(x, seed=seed)
    assert got.n_iter in admissible_stops(steps, tol)
    step = steps[got.n_iter - 1]
    assert got.membership.shape == step.membership.shape
    assert got.membership.flags.c_contiguous
    assert np.all(np.linalg.norm(got.centers - step.centers, axis=1)
                  <= step.center_band)
    assert np.all(np.abs(got.membership - step.membership)
                  <= step.membership_band)
    for objective, oracle_step in zip(got.objective_history, steps):
        assert abs(objective - oracle_step.objective) <= oracle_step.objective_band
    return steps


def zscored_blobs(n: int, c: int, d: int, seed: int) -> np.ndarray:
    """Points around ``c`` means, z-scored per feature as the model's
    windows are."""
    gen = np.random.default_rng(seed)
    means = gen.normal(scale=4.0, size=(c, d))
    x = means[gen.integers(0, c, size=n)] + gen.normal(size=(n, d))
    return (x - x.mean(axis=0)) / x.std(axis=0)


@pytest.mark.parametrize("m", FUZZIFIERS)
@pytest.mark.parametrize("n", [255, 256, 257, 600])
def test_first_iterations_within_band_of_oracle(n, m):
    # Windows fill 0, 1 or 2 whole blocks of 256 and leave 0 to 255 over.
    x = zscored_blobs(n, 5, 4, seed=n)
    for max_iter in range(1, 6):
        steps = assert_fit_within_band(x, 5, m, max_iter, tol=0.0, seed=3)
    # On z-scored data the band is finite and far below the data's scale.
    assert np.all(steps[-1].center_band <= 1e-6 * np.abs(x).max())
    assert np.all(steps[-1].membership_band <= 1e-6)


@pytest.mark.parametrize("m", FUZZIFIERS)
def test_objective_from_normalizers_matches_direct_sum(m):
    # J = Σ_k S_k^(1−m) equals Σ_ik u^m d² algebraically.  The closed form
    # errs by at most γ_{2(n + mc + 4)} of J (2ε per pow, c-term sums, one
    # n-term sum), the direct sum by γ_{2(nc + m(c + 3) + 4)}.
    c, n = 7, 1000
    d2 = np.random.default_rng(9).uniform(1e-3, 1e3, size=(c, n))
    membership, weights, normalizer = (np.empty_like(d2), np.empty_like(d2),
                                       np.empty(n))
    objective = _update_memberships(d2, m, membership, weights, normalizer)
    direct = float(np.sum(weights * d2))
    band = (gamma(2 * (n + m * c + 4))
            + gamma(2 * (n * c + m * (c + 3) + 4))) * direct
    assert abs(objective - direct) <= band
    np.testing.assert_allclose(membership.sum(axis=0), 1.0, rtol=4 * gamma(c))


@pytest.mark.parametrize("m", FUZZIFIERS)
def test_masked_path_sums_the_objective_directly(m):
    d2 = np.random.default_rng(4).uniform(0.5, 2.0, size=(4, 9))
    d2[2, 5] = 0.0
    membership, weights, normalizer = (np.empty_like(d2), np.empty_like(d2),
                                       np.empty(9))
    objective = _update_memberships(d2, m, membership, weights, normalizer)
    assert_same_bits(membership,
                     np.ascontiguousarray(membership_from_distances(d2.T, m).T))
    np.testing.assert_array_equal(membership[:, 5], [0.0, 0.0, 1.0, 0.0])
    assert objective == float(np.sum(weights * d2))
