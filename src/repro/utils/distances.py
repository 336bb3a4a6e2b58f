"""The pairwise squared-distance kernel shared by clustering, drift and retrieval.

Fuzzy c-means (paper Eq. 4), the Eq. 9 query memberships, k-means, the
drift statistics in :mod:`repro.obs.drift` and the sharded k-NN scan all
score ``n`` points against ``c`` centers.  The kernel lives here, below
all of them, so every caller shares one implementation.

Numerics
--------
The expansion ``‖x‖² − 2·x·vᵀ + ‖v‖²`` is one matrix product instead of an
``(n, c, d)`` difference tensor.  It is not bit-identical to summing squared
differences: each entry is within ``16·ε·(‖x‖² + ‖v‖²)`` of the naive loop
(``ε`` the float64 machine epsilon), results below zero from cancellation are
clamped to ``0``, and a single row may differ from the same row inside a
larger matrix by rounding, because BLAS takes a different route for it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import shapes

__all__ = ["squared_distances"]


@shapes(x="(n, d)", centers="(c, d)", x_sq="(n,)")
def squared_distances(x: np.ndarray, centers: np.ndarray,
                      x_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(n, c)``.

    One ``x @ centersᵀ`` product plus the two row-norm vectors, added in
    place; see the module docstring for the tolerance band.  ``x_sq``,
    ``np.einsum("nd,nd->n", x, x)`` precomputed by a caller that scores
    the same ``x`` often, leaves the result bit-identical.
    """
    if x_sq is None:
        x_sq = np.einsum("nd,nd->n", x, x)
    # Scaling the (c, d) centers by -2 is exact and saves a pass over the
    # (n, c) product.
    d2 = x @ (-2.0 * centers).T
    d2 += x_sq[:, None]
    d2 += np.einsum("cd,cd->c", centers, centers)
    np.maximum(d2, 0.0, out=d2)
    return d2
