"""Fuzzy c-means clustering (Bezdek 1981), the paper's Eq. 4.

The paper calls ``fcm(points, c)`` and keeps the cluster centers and the
membership matrix (discarding the objective history, which we keep anyway
for diagnostics): "``center`` gives the center/median points for all
clusters ... and matrix ``U`` gives the degree of membership for each
point ... with respect to each cluster.  ``obj_fcn`` contains a history of
the objective function across the iterations."

Algorithm
---------
Minimize ``J_m = Σ_i Σ_k u_ik^m ||x_k - v_i||²`` subject to column-stochastic
memberships, by alternating:

* centers:      ``v_i = Σ_k u_ik^m x_k / Σ_k u_ik^m``
* memberships:  ``u_ik = 1 / Σ_j (d_ik / d_jk)^(2/(m-1))``

until the objective improvement falls below ``tol`` or ``max_iter`` passes.
The fuzzifier defaults to ``m = 2`` — the paper: "parameter m is chosen in
range of [1, ∞] ... we choose m = 2 as it is most widely used".

Layout
------
The loop keeps its distances, memberships and weights ``u^m`` cluster-major,
``(c, n)``, in buffers allocated once per fit and updated in place, so
every reduction over windows runs along contiguous memory: the per-window
normalizer ``S_k = Σ_j d_jk^(−2/(m−1))`` is ``c`` vector adds down the
columns, and each cluster's weight sum is one pairwise sum along its row.
``FCMResult.membership`` is transposed to ``(n, c)`` once, at the end.

Both products over windows run in fixed blocks of
:data:`~repro.utils.distances.CHUNK` windows.  The distances come from
:func:`~repro.utils.distances.squared_distances_cluster_major`, the shared
kernel's ``(c, n)`` form; the center numerators ``Σ_k u_ik^m x_k`` are the
sum, in block order, of stacked ``(c, CHUNK) × (CHUNK, d)`` products plus
the remainder's.  A single product over all windows rounds differently
depending on how many threads BLAS splits it over; fixed blocks give the
same fit at any BLAS thread count.

Where no point sits on a center, ``u_ik = d_ik^(−2/(m−1)) / S_k`` and the
objective is ``J_m = Σ_k S_k^(1−m)`` (``Σ_k 1/S_k`` for ``m = 2``), which
equals ``Σ_i Σ_k u_ik^m d_ik²`` algebraically and costs one pass over ``n``
normalizers.  A distance at or below ``_EPS`` (or NaN) sends the update down
:func:`membership_from_distances`'s masked equal-split path, and ``J_m``
is then summed directly.  The initial memberships, whose centers are data
points, normally take that path.

The former ``(n, c)`` iteration, kept as ``tests/fuzzy/fcm_oracle.py``,
is the reference.  The two round differently, so they are compared over
the first few iterations inside a band derived in
``tests/fuzzy/test_fcm_oracle_equivalence.py``, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ClusteringError
from repro.obs.config import (
    is_enabled,
    record_counter,
    record_gauge,
    record_series,
    span,
)
from repro.utils.distances import (
    CHUNK,
    squared_distances,
    squared_distances_cluster_major,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_array, check_in_range, check_positive_int, shapes

__all__ = ["FCMResult", "FuzzyCMeans", "squared_distances", "membership_from_distances"]

#: Distances below this are treated as "point sits on a center".
_EPS = 1e-12


@dataclass(frozen=True)
class FCMResult:
    """The output of one FCM fit.

    Attributes
    ----------
    centers:
        ``(c, d)`` cluster centers (the paper's ``center``).
    membership:
        ``(n, c)`` degrees of membership, rows summing to 1 (the paper's
        ``U``, transposed to the row-per-point convention).
    objective_history:
        ``J_m`` per iteration (the paper's ``obj_fcn``).
    n_iter:
        Iterations actually run.
    converged:
        Whether the tolerance was reached before ``max_iter``.
    convergence_reason:
        Why iteration stopped: ``"tol"`` (objective improvement fell below
        the tolerance) or ``"max_iter"`` (iteration cap reached).
    """

    centers: np.ndarray
    membership: np.ndarray
    objective_history: np.ndarray
    n_iter: int
    converged: bool
    convergence_reason: str = "max_iter"

    @property
    def n_clusters(self) -> int:
        """Number of clusters ``c``."""
        return self.centers.shape[0]

    @property
    def objective(self) -> float:
        """The final objective value ``J_m`` (last entry of the history)."""
        return float(self.objective_history[-1])

    @property
    def objective_per_window(self) -> float:
        """Final ``J_m`` per clustered point — the per-window quantization
        error the drift detectors compare query workloads against (see
        :class:`repro.obs.drift.ObjectiveTrendDetector`)."""
        return self.objective / self.membership.shape[0]

    def hard_labels(self) -> np.ndarray:
        """Arg-max defuzzification: each point's best cluster index."""
        return np.argmax(self.membership, axis=1)


class FuzzyCMeans:
    """Fuzzy c-means estimator.

    Parameters
    ----------
    n_clusters:
        The pre-determined cluster count ``c`` (the paper sweeps 2–40).
    m:
        Fuzzifier; must exceed 1 (``m → 1`` approaches hard clustering).
    max_iter:
        Iteration cap.
    tol:
        Convergence threshold on the objective decrease.
    n_init:
        Independent restarts; the best objective wins.  FCM is sensitive to
        initialization, so a couple of restarts stabilize the benchmarks.
    """

    def __init__(
        self,
        n_clusters: int,
        m: float = 2.0,
        max_iter: int = 200,
        tol: float = 1e-6,
        n_init: int = 1,
    ):
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=2)
        self.m = check_in_range(m, name="m", low=1.0, high=float("inf"),
                                inclusive_low=False)
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = check_in_range(tol, name="tol", low=0.0, high=1.0)
        self.n_init = check_positive_int(n_init, name="n_init")

    # ------------------------------------------------------------------

    def fit(self, points: np.ndarray, seed: SeedLike = None) -> FCMResult:
        """Cluster ``points`` of shape ``(n, d)``.

        Raises
        ------
        ClusteringError
            If there are fewer points than clusters.
        """
        x = check_array(points, name="points", ndim=2, allow_empty=False)
        n = x.shape[0]
        if n < self.n_clusters:
            raise ClusteringError(
                f"cannot form {self.n_clusters} clusters from {n} points"
            )
        rng = as_generator(seed)
        best: Optional[FCMResult] = None
        with span("fcm.fit", n_points=n, n_clusters=self.n_clusters,
                  m=self.m, n_init=self.n_init) as sp:
            for restart in range(self.n_init):
                with span("fcm.restart", restart=restart):
                    result = self._fit_once(x, rng)
                if best is None or (
                    result.objective_history[-1] < best.objective_history[-1]
                ):
                    best = result
            assert best is not None
            sp.set(n_iter=best.n_iter, converged=best.converged,
                   reason=best.convergence_reason, objective=best.objective)
        if is_enabled():
            record_counter("fcm.fits")
            record_counter("fcm.iterations", best.n_iter)
            record_counter(f"fcm.converged.{best.convergence_reason}")
            record_gauge("fcm.objective_final", best.objective)
        return best

    def _fit_once(self, x: np.ndarray, rng: np.random.Generator) -> FCMResult:
        x = np.ascontiguousarray(x)  # the chunked products take views of it
        n = x.shape[0]
        c = self.n_clusters
        # Initialize centers on distinct random points; this converges faster
        # and more reproducibly than random memberships.
        centers = x[rng.choice(n, size=c, replace=False)].copy()
        # The row norms never change within a fit; the (c, n) distances,
        # memberships and weights u^m are overwritten in place every
        # iteration.  The initial memberships, whose centers are data
        # points, take the masked path; its temporaries and the first
        # distances are freed before the other two buffers are allocated,
        # which kept the sweep's peak RSS at the former loop's.
        x_sq = np.einsum("nd,nd->n", x, x)
        membership = np.ascontiguousarray(membership_from_distances(
            squared_distances_cluster_major(x, centers, x_sq).T, self.m).T)
        weights = membership**self.m
        d2 = np.empty_like(membership)
        normalizer = np.empty(n)
        # Membership shift is pure telemetry (the stopping rule is the
        # objective), so the previous memberships are kept, in a second
        # buffer that trades places with the current one, only when
        # observability is on.
        previous = np.empty_like(d2) if is_enabled() else None
        history = []
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            with span("fcm.iterate", iteration=iteration) as sp:
                centers = self._centers(x, weights)
                squared_distances_cluster_major(x, centers, x_sq, out=d2)
                if previous is not None:
                    membership, previous = previous, membership
                objective = _update_memberships(
                    d2, self.m, membership, weights, normalizer)
                if previous is not None:
                    # d2 is spent until the next distance pass.
                    np.subtract(membership, previous, out=d2)
                    shift = float(np.abs(d2, out=d2).max())
                    record_series("fcm.objective", objective)
                    record_series("fcm.membership_shift", shift)
                    sp.set(objective=objective, shift=shift)
            history.append(objective)
            if len(history) >= 2 and abs(history[-2] - history[-1]) <= self.tol:
                converged = True
                break
        return FCMResult(
            centers=centers,
            membership=np.ascontiguousarray(membership.T),
            objective_history=np.asarray(history),
            n_iter=iteration,
            converged=converged,
            convergence_reason="tol" if converged else "max_iter",
        )

    # ------------------------------------------------------------------
    # Update steps
    # ------------------------------------------------------------------

    def _centers(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Centers from the ``(c, n)`` weights ``u^m``."""
        denom = weights.sum(axis=1)  # (c,)
        # A cluster abandoned by every point gets the denominator 1 rather
        # than a division by zero, so its center is Σ_k u_ik^m x_k, about
        # the origin: the grand mean only when the data are z-scored.
        denom = np.where(denom < _EPS, 1.0, denom)
        # Fixed blocks of windows, summed in block order, then the rest.
        c, n = weights.shape
        full = n - n % CHUNK
        numerator = np.matmul(
            weights[:, :full].reshape(c, -1, CHUNK).transpose(1, 0, 2),
            x[:full].reshape(-1, CHUNK, x.shape[1]),
        ).sum(axis=0)
        if full < n:
            numerator += weights[:, full:] @ x[full:]
        return numerator / denom[:, None]


def _update_memberships(d2: np.ndarray, m: float, membership: np.ndarray,
                        weights: np.ndarray, normalizer: np.ndarray) -> float:
    """Write the ``(c, n)`` memberships and weights ``u^m``; return ``J_m``.

    ``membership``, ``weights`` and the ``(n,)`` ``normalizer`` are
    overwritten.  With no distance at or below ``_EPS``, each column is
    ``d2^(−1/(m−1))`` over its sum ``S`` and ``J_m = Σ S^(1−m)``; otherwise
    :func:`membership_from_distances` takes its masked path on the
    transpose and ``J_m = Σ u^m d²``.
    """
    if d2.min() > _EPS:
        # Only m exactly 2 gives the exponent -1.0, which a division
        # computes at half the cost of a power.
        if m == 2.0:  # lint: ignore[R4]
            np.divide(1.0, d2, out=membership)
        else:
            np.power(d2, -1.0 / (m - 1.0), out=membership)
        np.sum(membership, axis=0, out=normalizer)
        membership /= normalizer
        np.power(membership, m, out=weights)
        return float(np.sum(normalizer ** (1.0 - m)))
    membership[...] = membership_from_distances(d2.T, m).T
    np.power(membership, m, out=weights)
    return float(np.sum(weights * d2))


@shapes(d2="(n, c)")
def membership_from_distances(d2: np.ndarray, m: float) -> np.ndarray:
    """Standard FCM membership update from squared distances.

    Points coinciding with one or more centers get membership split equally
    among the coinciding centers (the limit of the update rule).  Both the
    regular and the degenerate branch are whole-matrix operations — no
    per-point Python loop.

    One whole-matrix test, ``d2.min() > _EPS``, sends the common case down
    a fast path with no zero mask; the masked path runs only when it fails,
    which includes NaN.  For ``m = 2`` the fast path divides ``1.0 / d2``,
    which matched ``d2 ** -1.0`` bit for bit on every input tried, at about
    half the cost.  Every output is bit-identical to the former single
    masked path (``tests/fuzzy/fcm_oracle.py``).
    """
    power = 1.0 / (m - 1.0)
    if d2.size and d2.min() > _EPS:
        # Only m exactly 2 gives the exponent -1.0, whose bits a division
        # reproduces at half the cost; any other m keeps the power, since
        # an equivalent formula could differ in the last bit.
        u = 1.0 / d2 if m == 2.0 else d2 ** (-power)  # lint: ignore[R4]
        u /= u.sum(axis=1, keepdims=True)
        return u
    zero_mask = d2 <= _EPS
    has_zero = zero_mask.any(axis=1)
    safe = np.where(zero_mask, 1.0, d2)
    inv = safe ** (-power)
    u = inv / inv.sum(axis=1, keepdims=True)
    if has_zero.any():
        counts = zero_mask.sum(axis=1, keepdims=True)
        equal_split = zero_mask / np.maximum(counts, 1)
        u = np.where(has_zero[:, None], equal_split, u)
    return u
