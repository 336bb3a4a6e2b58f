"""The pairwise squared-distance kernel shared by clustering and drift checks.

Fuzzy c-means (paper Eq. 4), the Eq. 9 query memberships, k-means and the
drift statistics in :mod:`repro.obs.drift` all score ``n`` points against
``c`` centers.  The kernel lives here, below both :mod:`repro.fuzzy` and
:mod:`repro.obs`, so every caller shares one implementation.

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

import numpy as np

from repro.utils.validation import shapes

__all__ = ["squared_distances"]


@shapes(x="(n, d)", centers="(c, d)")
def squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(n, c)``.

    One ``x @ centersᵀ`` product plus the two row-norm vectors, added in
    place; see the module docstring for the tolerance band.
    """
    # Scaling the (c, d) centers by -2 is exact and saves a pass over the
    # (n, c) product.
    d2 = x @ (-2.0 * centers).T
    d2 += np.einsum("nd,nd->n", x, x)[:, None]
    d2 += np.einsum("cd,cd->c", centers, centers)
    np.maximum(d2, 0.0, out=d2)
    return d2
