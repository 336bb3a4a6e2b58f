"""Weighted-SVD joint features for motion capture (paper Eqs. 2–3).

For a joint matrix window ``A`` (``w × 3``) the paper computes the SVD
``A = U Σ Vᵀ`` and builds the joint's feature as the sum of the three right
singular vectors weighted by their normalized singular values:

.. math::

   f = \\sum_{j} \\hat{\\sigma}_j \\, v_j, \\qquad
   \\hat{\\sigma}_j = \\sigma_j / \\textstyle\\sum_k \\sigma_k

yielding a 3-vector per joint per window that "represents the contribution
of the corresponding joint to the motion data in 3D space ... and also
captures the geometric similarity of motion matrices".

Only ``V`` and ``Σ`` enter Eq. 3, and they are the eigenvectors of the
``3 × 3`` Gram matrix ``AᵀA`` and the norms ``σⱼ = ‖A vⱼ‖``.  That is how
:func:`repro.features.batched.stacked_weighted_svd`, the library's one Eq. 3
kernel, computes them; every function here calls it.  It is not
bit-identical to a LAPACK SVD of the window; that function's docstring
derives the tolerance band it keeps to one.

Sign convention
---------------
Singular vectors are only defined up to sign; a naive implementation would
produce features that flip arbitrarily between otherwise-identical windows.
We resolve each right singular vector's sign deterministically so that the
component with the largest absolute value is positive — a standard
sign-stabilization rule (the paper does not discuss this, but without it the
method is not reproducible).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import FeatureError
from repro.features.base import MocapFeatureExtractor
from repro.features.batched import stacked_weighted_svd
from repro.obs.config import span
from repro.utils.validation import check_array, shapes

__all__ = ["weighted_svd_feature", "stabilize_signs", "WeightedSVDExtractor"]


def stabilize_signs(vt: np.ndarray) -> np.ndarray:
    """Flip rows of ``Vᵀ`` so each right singular vector's dominant component is positive.

    Parameters
    ----------
    vt:
        A ``Vᵀ`` factor (rows are right singular vectors).  The dtype is
        preserved (float32 factors stay float32).
    """
    vt = check_array(vt, name="vt", ndim=2, dtype=None).copy()
    for i in range(vt.shape[0]):
        row = vt[i]
        dominant = int(np.argmax(np.abs(row)))
        if row[dominant] < 0:
            vt[i] = -row
    return vt


def weighted_svd_feature(window: np.ndarray) -> np.ndarray:
    """The paper's Eq. 3 feature for one ``(w, 3)`` joint window.

    :func:`~repro.features.batched.stacked_weighted_svd` with a batch of
    one, so it is bit-identical to the batched path.  Returns a float64
    3-vector, whatever the input dtype.  Degenerate cases:

    * a window of all (numerically) zero positions returns the zero vector
      (a joint that does not move relative to the pelvis contributes
      nothing);
    * a window with fewer than 3 rows has ``3 − w`` null directions, whose
      singular values are zero up to rounding.
    """
    window = check_array(window, name="window", ndim=2, allow_empty=False)
    if window.shape[1] != 3:
        raise FeatureError(f"joint window must have 3 columns, got {window.shape[1]}")
    return stacked_weighted_svd(window[None])[0]


class WeightedSVDExtractor(MocapFeatureExtractor):
    """Weighted-SVD feature: 3 values per joint per window (Eqs. 2–3)."""

    features_per_joint = 3

    @shapes(window="(w, d)")
    def extract(self, window: np.ndarray) -> np.ndarray:
        """Features for an ``(w, 3k)`` multi-joint window, joint-major."""
        with span("features.svd"):
            return super().extract(window)

    @shapes(window="(w, 3)")
    def extract_joint(self, window: np.ndarray) -> np.ndarray:
        """Eq. 3 feature for one joint window."""
        return weighted_svd_feature(window)

    @shapes(windows="(b, w, d)")
    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        """Stacked Eq. 3 features for a ``(batch, w, 3k)`` window stack.

        One stacked ``numpy.linalg.eigh`` call over all ``batch * k`` joint
        Gram matrices; bit-identical to looping :meth:`extract` (the
        differential harness pins this).
        """
        with span("features.svd"):
            with span("features.batched.svd", n_windows=len(windows)):
                return stacked_weighted_svd(windows)

    def feature_names(self, segments: Sequence[str]) -> List[str]:
        """``svd:<segment>:<axis>`` per joint, axes x/y/z."""
        return [f"svd:{s}:{axis}" for s in segments for axis in "xyz"]
