"""Closed-form membership of new points against fitted centers (paper Eq. 9).

For a query window's feature point ``q`` and database cluster centers
``v_i``, the degree of membership with cluster ``i`` is

.. math::

   u_i(q) = \\left[ \\sum_{j=1}^{c}
            \\left( \\frac{\\|q - v_i\\|}{\\|q - v_j\\|} \\right)^{2/(m-1)}
            \\right]^{-1}

— the FCM membership update evaluated once, without moving the centers.
The paper: "where ``center_i`` is the centroid of the cluster i, while
``d`` is the euclidean distance expressing the similarity between query
feature point and the center ... we choose m = 2 as it is most widely used."
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClusteringError
from repro.fuzzy.cmeans import membership_from_distances
from repro.obs.config import span
from repro.utils.distances import squared_distances
from repro.utils.validation import check_array, check_in_range

__all__ = ["membership_matrix"]


def membership_matrix(
    points: np.ndarray, centers: np.ndarray, m: float = 2.0
) -> np.ndarray:
    """Degrees of membership of ``points`` with the given ``centers``.

    Parameters
    ----------
    points:
        ``(n, d)`` feature points (query windows).
    centers:
        ``(c, d)`` fitted cluster centers.
    m:
        Fuzzifier; must match the value used when fitting (2 in the paper).

    Returns
    -------
    numpy.ndarray
        ``(n, c)`` membership matrix, rows summing to 1.

    Notes
    -----
    Operates on the whole window matrix at once: one matrix-product
    distance pass (:func:`~repro.utils.distances.squared_distances`) plus
    one vectorized membership update, the kernels shared with
    :class:`~repro.fuzzy.cmeans.FuzzyCMeans`, so Eq. 9 queries cost the
    same per window as a single fit iteration.
    """
    points = check_array(points, name="points", ndim=2, allow_empty=False)
    centers = check_array(centers, name="centers", ndim=2, allow_empty=False)
    if points.shape[1] != centers.shape[1]:
        raise ClusteringError(
            f"points have {points.shape[1]} dims, centers have {centers.shape[1]}"
        )
    m = check_in_range(m, name="m", low=1.0, high=float("inf"), inclusive_low=False)
    with span("fcm.membership_query", n_points=points.shape[0],
              n_clusters=centers.shape[0]):
        d2 = squared_distances(points, centers)
        return membership_from_distances(d2, m)
