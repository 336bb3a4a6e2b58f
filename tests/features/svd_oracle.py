"""LAPACK-SVD Eq. 3: the reference the Gram-eigenvector kernel is tested against.

This is the library's former Eq. 3 kernel, kept as the oracle for
:func:`repro.features.batched.stacked_weighted_svd`: one stacked
``numpy.linalg.svd`` over the joint windows, the dominant-component sign
rule, singular values normalized by their sum and the same zero-motion
threshold.  :func:`eq3_band` is the tolerance band derived in the kernel's
docstring; ``tests/properties/test_eq3_band_properties.py`` requires the
kernel to stay inside it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.features.batched import ZERO_MOTION_TOTAL, stabilize_signs_batched

__all__ = ["EPS", "eq3_band", "svd_weighted_features"]

EPS = np.finfo(np.float64).eps


def svd_weighted_features(joints: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 3 features and singular values of a ``(batch, w, 3)`` joint stack.

    Returns ``(features, singular)``: features ``(batch, 3)`` and the
    singular values ``(batch, 3)``, descending, zero-padded when ``w < 3``.
    """
    joints = np.asarray(joints, dtype=np.float64)
    _, singular, vt = np.linalg.svd(joints, full_matrices=False)
    totals = singular.sum(axis=-1)
    degenerate = totals <= ZERO_MOTION_TOTAL
    weights = singular / np.where(degenerate, 1.0, totals)[..., None]
    features = np.matmul(weights[:, None, :],
                         stabilize_signs_batched(vt))[:, 0, :]
    features[degenerate] = 0.0
    padded = np.zeros((joints.shape[0], 3))
    padded[:, :singular.shape[1]] = singular
    return features, padded


def eq3_band(singular: np.ndarray) -> np.ndarray:
    """``16·ε·(1 + K)`` per window, from the oracle's ``(batch, 3)`` singular values::

        K = Σ_{i<j} (σᵢ + σⱼ)/Σσ
                    · min(σ₁²/|σᵢ² − σⱼ²| + σ₁/|σᵢ − σⱼ|, 1/(8ε))

    Per pair: the first-order rotation of the kernel's eigenvectors plus
    the SVD's own, times the share of the feature the pair carries, capped
    where the pair can move the feature by no more than two unit vectors'
    worth.
    """
    singular = np.asarray(singular, dtype=np.float64)
    totals = singular.sum(axis=-1)
    top = singular[:, 0]
    k = np.zeros(singular.shape[0])
    for i in range(3):
        for j in range(i + 1, 3):
            share = singular[:, i] + singular[:, j]
            gap = np.abs(singular[:, i] - singular[:, j])
            with np.errstate(divide="ignore", invalid="ignore"):
                rotation = top * top / (gap * share) + top / gap
                rotation = np.minimum(rotation, 1.0 / (8.0 * EPS))
                k += np.where(share > 0.0, share / totals * rotation, 0.0)
    return 16.0 * EPS * (1.0 + k)
