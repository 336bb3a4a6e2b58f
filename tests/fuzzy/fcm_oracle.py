"""The FCM iteration: the reference the production loop is tested against.

This is the library's former iteration, kept verbatim as the oracle for
:meth:`repro.fuzzy.cmeans.FuzzyCMeans._fit_once` and
:func:`repro.fuzzy.cmeans.membership_from_distances`.  It keeps its arrays
window-major, ``(n, c)``: each iteration recomputes the row norms inside
:func:`squared_distances`, raises the memberships to the power ``m`` twice
(for the objective and again for the next center update), sums
``u^m d²`` for the objective, and builds the zero-distance mask on every
call.  ``OracleFuzzyCMeans`` runs :meth:`FuzzyCMeans.fit`'s restart loop
over this iteration.  ``membership_from_distances`` must match it bit for
bit; the cluster-major loop rounds differently and must stay inside the
band that ``tests/fuzzy/test_fcm_oracle_equivalence.py`` derives along
this iteration's trajectory (also the property in
``tests/properties/test_fcm_oracle_properties.py``).
"""

from __future__ import annotations

import numpy as np

from repro.fuzzy.cmeans import _EPS, FCMResult, FuzzyCMeans
from repro.obs.config import is_enabled, record_series, span
from repro.utils.distances import squared_distances
from repro.utils.validation import shapes

__all__ = ["OracleFuzzyCMeans", "membership_from_distances"]


class OracleFuzzyCMeans(FuzzyCMeans):
    """:class:`FuzzyCMeans` whose restarts run the former iteration."""

    def _fit_once(self, x: np.ndarray, rng: np.random.Generator) -> FCMResult:
        n = x.shape[0]
        c = self.n_clusters
        # Initialize centers on distinct random points; this converges faster
        # and more reproducibly than random memberships.
        centers = x[rng.choice(n, size=c, replace=False)].copy()
        membership = membership_from_distances(
            squared_distances(x, centers), self.m
        )
        history = []
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            with span("fcm.iterate", iteration=iteration) as sp:
                previous = membership
                centers = self._centers(x, membership)
                # One distance pass per iteration feeds both the membership
                # update and the objective (previously computed twice).
                d2 = squared_distances(x, centers)
                membership = membership_from_distances(d2, self.m)
                objective = float(np.sum((membership**self.m) * d2))
                if is_enabled():
                    # Membership shift is pure telemetry (the stopping rule is
                    # the objective), so the extra O(nc) pass only runs when
                    # observability is on.
                    shift = float(np.abs(membership - previous).max())
                    record_series("fcm.objective", objective)
                    record_series("fcm.membership_shift", shift)
                    sp.set(objective=objective, shift=shift)
            history.append(objective)
            if len(history) >= 2 and abs(history[-2] - history[-1]) <= self.tol:
                converged = True
                break
        return FCMResult(
            centers=centers,
            membership=membership,
            objective_history=np.asarray(history),
            n_iter=iteration,
            converged=converged,
            convergence_reason="tol" if converged else "max_iter",
        )

    def _centers(self, x: np.ndarray, membership: np.ndarray) -> np.ndarray:
        weights = membership**self.m  # (n, c)
        denom = weights.sum(axis=0)  # (c,)
        # A cluster abandoned by every point keeps a center at the weighted
        # grand mean rather than dividing by zero.
        denom = np.where(denom < _EPS, 1.0, denom)
        return (weights.T @ x) / denom[:, None]


@shapes(d2="(n, c)")
def membership_from_distances(d2: np.ndarray, m: float) -> np.ndarray:
    """Standard FCM membership update from squared distances.

    Points coinciding with one or more centers get membership split equally
    among the coinciding centers (the limit of the update rule).  Both the
    regular and the degenerate branch are whole-matrix operations — no
    per-point Python loop.
    """
    zero_mask = d2 <= _EPS
    has_zero = zero_mask.any(axis=1)
    power = 1.0 / (m - 1.0)
    safe = np.where(zero_mask, 1.0, d2)
    inv = safe ** (-power)
    u = inv / inv.sum(axis=1, keepdims=True)
    if has_zero.any():
        counts = zero_mask.sum(axis=1, keepdims=True)
        equal_split = zero_mask / np.maximum(counts, 1)
        u = np.where(has_zero[:, None], equal_split, u)
    return u
