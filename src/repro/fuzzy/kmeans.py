"""Hard k-means baseline (Lloyd's algorithm).

Used by the ``abl-fcm`` ablation: the paper argues fuzzy memberships tolerate
the vagueness of biomedical data better than crisp assignments.  This
estimator exposes the same shape of result as
:class:`~repro.fuzzy.cmeans.FuzzyCMeans` — a 0/1 "membership" matrix — so the
signature-building code runs unchanged on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ClusteringError
from repro.utils.distances import squared_distances
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_array, check_in_range, check_positive_int

__all__ = ["KMeansResult", "KMeans"]


@dataclass(frozen=True)
class KMeansResult:
    """The output of one k-means fit.

    Attributes
    ----------
    centers:
        ``(c, d)`` cluster centers.
    membership:
        ``(n, c)`` crisp one-hot assignment matrix (for drop-in use where
        fuzzy memberships are expected).
    inertia:
        Sum of squared distances to assigned centers.
    n_iter:
        Iterations actually run.
    converged:
        Whether assignments stopped changing before the cap.
    """

    centers: np.ndarray
    membership: np.ndarray
    inertia: float
    n_iter: int
    converged: bool

    @property
    def n_clusters(self) -> int:
        """Number of clusters ``c``."""
        return self.centers.shape[0]

    def hard_labels(self) -> np.ndarray:
        """Assigned cluster index per point."""
        return np.argmax(self.membership, axis=1)


class KMeans:
    """Lloyd's k-means with k-means++-style greedy init.

    Parameters mirror :class:`~repro.fuzzy.cmeans.FuzzyCMeans` where
    applicable.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 200,
        tol: float = 1e-8,
        n_init: int = 1,
    ):
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=2)
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = check_in_range(tol, name="tol", low=0.0, high=1.0)
        self.n_init = check_positive_int(n_init, name="n_init")

    def fit(self, points: np.ndarray, seed: SeedLike = None) -> KMeansResult:
        """Cluster ``points`` of shape ``(n, d)``."""
        x = check_array(points, name="points", ndim=2, allow_empty=False)
        if x.shape[0] < self.n_clusters:
            raise ClusteringError(
                f"cannot form {self.n_clusters} clusters from {x.shape[0]} points"
            )
        rng = as_generator(seed)
        best: Optional[KMeansResult] = None
        for _ in range(self.n_init):
            result = self._fit_once(x, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        return best

    def _fit_once(self, x: np.ndarray, rng: np.random.Generator) -> KMeansResult:
        centers = self._init_centers(x, rng)
        labels = np.full(x.shape[0], -1)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            d2 = squared_distances(x, centers)
            new_labels = np.argmin(d2, axis=1)
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
            for i in range(self.n_clusters):
                mask = labels == i
                if mask.any():
                    centers[i] = x[mask].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the worst-served point.
                    worst = int(np.argmax(np.min(d2, axis=1)))
                    centers[i] = x[worst]
        d2 = squared_distances(x, centers)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(len(labels)), labels].sum())
        membership = np.zeros((x.shape[0], self.n_clusters))
        membership[np.arange(len(labels)), labels] = 1.0
        return KMeansResult(
            centers=centers,
            membership=membership,
            inertia=inertia,
            n_iter=iteration,
            converged=converged,
        )

    def _init_centers(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding: spread initial centers by squared distance."""
        n = x.shape[0]
        centers = np.empty((self.n_clusters, x.shape[1]))
        centers[0] = x[rng.integers(n)]
        closest = np.full(n, np.inf)
        for i in range(1, self.n_clusters):
            diff = x - centers[i - 1]
            closest = np.minimum(closest, np.einsum("nd,nd->n", diff, diff))
            total = closest.sum()
            if total <= 0:
                centers[i:] = x[rng.choice(n, size=self.n_clusters - i)]
                break
            probs = closest / total
            centers[i] = x[rng.choice(n, p=probs)]
        return centers
