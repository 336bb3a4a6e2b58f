"""The final per-motion feature vector (paper Eqs. 5–8).

Each motion is divided into windows; every window is a point in the combined
feature space with a degree of membership for every cluster.  Per window the
*highest* membership and the cluster achieving it are taken (Eqs. 5–6); per
cluster, the minimum and maximum of the highest memberships it won form the
motion's feature components (Eqs. 7–8):

    "for the given motion which is represented in form of feature points in
    (m+n)-d feature space, we have final feature vector corresponding to
    this motion in form of the maximum and minimum of the highest degree of
    membership for each cluster. ... Thus the length of the final feature
    vector is 2c where c is the number of clusters."

Clusters that win no window of the motion contribute ``(0, 0)`` — in the
paper's Figure 4 unused clusters sit on the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import FeatureError
from repro.obs.config import span
from repro.utils.validation import check_array, shapes

__all__ = ["MotionSignature", "motion_signature"]


@dataclass(frozen=True)
class MotionSignature:
    """A motion's final 2c-dimensional feature vector.

    Attributes
    ----------
    minima:
        ``(c,)`` — Eq. 8: per cluster, the minimum of the highest memberships
        it won (0 if it won none).
    maxima:
        ``(c,)`` — Eq. 7: per cluster, the maximum of the highest memberships
        it won (0 if it won none).
    window_clusters:
        ``(n_windows,)`` winning cluster index per window (Eq. 6).
    window_memberships:
        ``(n_windows,)`` highest membership per window (Eq. 5).
    """

    minima: np.ndarray
    maxima: np.ndarray
    window_clusters: np.ndarray
    window_memberships: np.ndarray

    def __post_init__(self) -> None:
        minima = check_array(self.minima, name="minima", ndim=1)
        maxima = check_array(self.maxima, name="maxima", ndim=1)
        if len(minima) != len(maxima):
            raise FeatureError(
                f"minima ({len(minima)}) and maxima ({len(maxima)}) differ in length"
            )
        if np.any(minima > maxima):
            raise FeatureError("per-cluster minimum exceeds maximum")
        object.__setattr__(self, "minima", minima)
        object.__setattr__(self, "maxima", maxima)

    @property
    def n_clusters(self) -> int:
        """Number of clusters ``c``."""
        return len(self.minima)

    @property
    def vector(self) -> np.ndarray:
        """The 2c feature vector, laid out ``(min_1, max_1, ..., min_c, max_c)``.

        This interleaved layout matches the paper's Figure 4 axis
        ("min  max" per cluster).
        """
        out = np.empty(2 * self.n_clusters)
        out[0::2] = self.minima
        out[1::2] = self.maxima
        return out

    def occupied_clusters(self) -> Tuple[int, ...]:
        """Indices of clusters that won at least one window."""
        return tuple(int(i) for i in np.unique(self.window_clusters))


@shapes(membership="(w, c)")
def motion_signature(membership: np.ndarray, n_clusters: int | None = None) -> MotionSignature:
    """Build the Eq. 5–8 signature from a motion's window membership matrix.

    Parameters
    ----------
    membership:
        ``(n_windows, c)`` degrees of membership of this motion's windows —
        either rows of the database FCM's ``U`` or Eq. 9 memberships for a
        query.
    n_clusters:
        Expected ``c`` (defaults to ``membership.shape[1]``; passing it
        catches shape mix-ups early).
    """
    u = check_array(membership, name="membership", ndim=2, allow_empty=False)
    c = u.shape[1]
    if n_clusters is not None and n_clusters != c:
        raise FeatureError(
            f"membership has {c} clusters, expected {n_clusters}"
        )
    if np.any(u < -1e-9) or np.any(u > 1 + 1e-9):
        raise FeatureError("membership values must lie in [0, 1]")

    with span("signature.build", n_windows=u.shape[0], n_clusters=c):
        highest = u.max(axis=1)  # Eq. 5
        winners = u.argmax(axis=1)  # Eq. 6
        minima = np.full(c, np.inf)
        maxima = np.full(c, -np.inf)
        np.minimum.at(minima, winners, highest)  # Eq. 8
        np.maximum.at(maxima, winners, highest)  # Eq. 7
        unused = np.isinf(minima)
        minima[unused] = 0.0
        maxima[unused] = 0.0
        return MotionSignature(
            minima=minima,
            maxima=maxima,
            window_clusters=winners.astype(np.int64),
            window_memberships=highest,
        )
