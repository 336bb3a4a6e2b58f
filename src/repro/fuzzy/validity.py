"""Cluster-validity indices for fuzzy partitions.

The paper sweeps the cluster count 2–40 and observes classification quality;
these indices give the complementary unsupervised view (used in the extended
analysis benchmarks): partition coefficient and entropy (Bezdek) measure
partition crispness, Xie–Beni measures compactness versus separation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClusteringError
from repro.utils.distances import squared_distances
from repro.utils.validation import check_array

__all__ = ["partition_coefficient", "partition_entropy", "xie_beni_index"]


def _check_membership(membership: np.ndarray) -> np.ndarray:
    u = check_array(membership, name="membership", ndim=2, allow_empty=False)
    if np.any(u < -1e-9) or np.any(u > 1 + 1e-9):
        raise ClusteringError("membership values must lie in [0, 1]")
    sums = u.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise ClusteringError("membership rows must sum to 1")
    return np.clip(u, 0.0, 1.0)


def partition_coefficient(membership: np.ndarray) -> float:
    """Bezdek's partition coefficient ``PC = (1/n) Σ_k Σ_i u_ik²``.

    1 for a crisp partition, ``1/c`` for the maximally fuzzy one.
    """
    u = _check_membership(membership)
    return float(np.sum(u**2) / u.shape[0])


def partition_entropy(membership: np.ndarray) -> float:
    """Bezdek's partition entropy ``PE = -(1/n) Σ u log u`` (natural log).

    0 for a crisp partition, ``log c`` for the maximally fuzzy one.
    """
    u = _check_membership(membership)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(u > 0, u * np.log(u), 0.0)
    return float(-np.sum(terms) / u.shape[0])


def xie_beni_index(
    points: np.ndarray, centers: np.ndarray, membership: np.ndarray, m: float = 2.0
) -> float:
    """Xie–Beni index: compactness over separation (lower is better).

    ``XB = Σ_i Σ_k u_ik^m ||x_k − v_i||² / (n · min_{i≠j} ||v_i − v_j||²)``.
    """
    x = check_array(points, name="points", ndim=2, allow_empty=False)
    v = check_array(centers, name="centers", ndim=2, allow_empty=False)
    u = _check_membership(membership)
    if u.shape != (x.shape[0], v.shape[0]):
        raise ClusteringError(
            f"membership shape {u.shape} incompatible with "
            f"{x.shape[0]} points x {v.shape[0]} centers"
        )
    if v.shape[0] < 2:
        raise ClusteringError("Xie-Beni needs at least two centers")
    compactness = float(np.sum((u**m) * squared_distances(x, v)))
    center_diff = v[:, None, :] - v[None, :, :]
    center_d2 = np.einsum("ijd,ijd->ij", center_diff, center_diff)
    np.fill_diagonal(center_d2, np.inf)
    separation = float(center_d2.min())
    if separation <= 0:
        raise ClusteringError("coincident centers: Xie-Beni separation is zero")
    return compactness / (x.shape[0] * separation)
