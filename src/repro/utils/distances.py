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

:func:`squared_distances_cluster_major` is the same expansion laid out
``(c, n)``, for fuzzy c-means, whose reductions run over windows.  Its
product is a stack of ``(c, d) × (d, CHUNK)`` products over fixed blocks
of ``CHUNK`` points plus the remainder, and the result is written into a
caller's buffer.  It obeys the same band.  One unchunked ``(c, d) × (d, n)``
product changed bits between one and two OpenBLAS threads at
``(n, c, d) = (14812, 15, 16)``; the chunked stack gave the same bits at
every shape tried, and so does the ``(n, c)`` product of
:func:`squared_distances`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import shapes

__all__ = ["CHUNK", "squared_distances", "squared_distances_cluster_major"]

#: Points per block of the chunked products.  Blocks of a fixed size keep
#: the rounding of a product over many points independent of the BLAS
#: thread count (see the module docstring).
CHUNK = 256


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


@shapes(x="(n, d)", centers="(c, d)", x_sq="(n,)", out="(c, n)")
def squared_distances_cluster_major(x: np.ndarray, centers: np.ndarray,
                                    x_sq: Optional[np.ndarray] = None,
                                    out: Optional[np.ndarray] = None
                                    ) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(c, n)``.

    The expansion of :func:`squared_distances`, transposed: one
    ``(c, d) × (d, CHUNK)`` product per block of ``CHUNK`` points, stacked
    into one ``matmul`` that writes ``out`` (allocated when ``None``), then
    the remainder's product and the two row-norm vectors added in place.
    ``x`` should be C-contiguous, so the blocks are views.
    """
    n, d = x.shape
    c = centers.shape[0]
    if x_sq is None:
        x_sq = np.einsum("nd,nd->n", x, x)
    if out is None:
        out = np.empty((c, n))
    full = n - n % CHUNK
    neg2 = -2.0 * centers
    np.matmul(neg2, x[:full].reshape(-1, CHUNK, d).transpose(0, 2, 1),
              out=out[:, :full].reshape(c, -1, CHUNK).transpose(1, 0, 2))
    if full < n:
        np.matmul(neg2, x[full:].T, out=out[:, full:])
    out += x_sq
    out += np.einsum("cd,cd->c", centers, centers)[:, None]
    np.maximum(out, 0.0, out=out)
    return out
