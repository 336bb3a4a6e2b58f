"""Batched hot-path featurization kernels (stacked SVD + vectorized EMG).

The scalar extractors in :mod:`repro.features.svd` and
:mod:`repro.features.iav` loop Python-level over joints and windows,
calling ``numpy.linalg.svd`` one ``w x 3`` matrix at a time — the
whole-pipeline profile shows that loop dominating cold featurization.
This module computes the same features over **stacks of windows**:

* :func:`stacked_weighted_svd` — the paper's Eq. 3 feature for a
  ``(n_windows, w, 3k)`` batch, via one stacked ``numpy.linalg.svd`` call
  over ``(n_windows * k, w, 3)``;
* :func:`stabilize_signs_batched` — the dominant-component-positive sign
  rule of :func:`repro.features.svd.stabilize_signs` applied along the
  batch axis (``numpy.argmax`` keeps the scalar rule's deterministic
  first-index tie-breaking);
* :func:`batched_iav` / :func:`batched_mav` /
  :func:`batched_waveform_length` / :func:`batched_zero_crossings` — the
  EMG features of Eq. 1 and the related-work baselines, vectorized over
  ``(n_windows, w, n_channels)``.

Numerical contract
------------------
Every kernel computes in float64, whatever the input dtype, and is
**bit-identical** to its scalar counterpart: the stacked SVD gufunc runs
the same LAPACK routine per matrix, the weighted combination uses the same
``matmul`` contraction, and the axis reductions share numpy's
pairwise-summation tree for a fixed window length.
``tests/features/test_batched_equivalence.py`` is the differential harness
pinning this.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FeatureError
from repro.utils.validation import check_array, shapes

__all__ = [
    "batched_iav",
    "batched_mav",
    "batched_waveform_length",
    "batched_zero_crossings",
    "stabilize_signs_batched",
    "stacked_weighted_svd",
]

#: Degenerate-window threshold shared with the scalar Eq. 3 path: a window
#: whose singular values sum to at most this is treated as zero motion.
ZERO_MOTION_TOTAL = 1e-12


@shapes(vt="(..., m, d)")
def stabilize_signs_batched(vt: np.ndarray) -> np.ndarray:
    """Sign-stabilize stacked ``Vᵀ`` factors along the batch axes.

    Each row (right singular vector) is flipped so its dominant component
    is positive, exactly as :func:`repro.features.svd.stabilize_signs`
    does for one matrix; ``numpy.argmax`` resolves ties at the first
    maximal index in both, so the two agree bit-for-bit.
    """
    vt = np.asarray(vt)
    dominant = np.argmax(np.abs(vt), axis=-1)
    lead = np.take_along_axis(vt, dominant[..., None], axis=-1)[..., 0]
    signs = np.where(lead < 0, -1.0, 1.0).astype(vt.dtype)
    return vt * signs[..., None]


@shapes(windows="(b, w, d)")
def stacked_weighted_svd(windows: np.ndarray) -> np.ndarray:
    """Eq. 3 features for a ``(batch, w, 3k)`` stack of multi-joint windows.

    Returns a ``(batch, 3k)`` array laid out joint-major, matching
    ``MocapFeatureExtractor.extract`` applied per window.  All ``batch * k``
    joint matrices go through **one** stacked ``numpy.linalg.svd`` call;
    sign stabilization, singular-value normalization and the all-zero
    degenerate case (zero vector) are vectorized along the batch axis.
    """
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    batch, w, cols = windows.shape
    if cols % 3 != 0:
        raise FeatureError(
            f"multi-joint windows must have 3 columns per joint, got {cols}"
        )
    k = cols // 3
    # (batch, w, k, 3) -> (batch, k, w, 3) -> (batch * k, w, 3)
    joints = np.ascontiguousarray(
        windows.reshape(batch, w, k, 3).transpose(0, 2, 1, 3)
    ).reshape(batch * k, w, 3)
    _, singular, vt = np.linalg.svd(joints, full_matrices=False)
    totals = singular.sum(axis=-1)
    degenerate = totals <= ZERO_MOTION_TOTAL
    safe_totals = np.where(degenerate, 1.0, totals)
    weights = singular / safe_totals[..., None]
    vt = stabilize_signs_batched(vt)
    # (B, 1, m) @ (B, m, 3) -> (B, 1, 3): the same matmul contraction the
    # scalar path's ``weights @ vt`` lowers to, so float64 bits agree.
    features = np.matmul(weights[:, None, :], vt)[:, 0, :]
    features[degenerate] = 0.0
    return features.reshape(batch, 3 * k)


@shapes(windows="(b, w, c)")
def batched_iav(windows: np.ndarray) -> np.ndarray:
    """Eq. 1 IAV per channel for a ``(batch, w, n_channels)`` stack."""
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    return np.sum(np.abs(windows), axis=1)


@shapes(windows="(b, w, c)")
def batched_mav(windows: np.ndarray) -> np.ndarray:
    """Mean absolute value per channel for a stack of windows."""
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    return np.mean(np.abs(windows), axis=1)


@shapes(windows="(b, w, c)")
def batched_waveform_length(windows: np.ndarray) -> np.ndarray:
    """Waveform length (total variation) per channel for a stack of windows."""
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    if windows.shape[1] < 2:
        return np.zeros((windows.shape[0], windows.shape[2]),
                        dtype=windows.dtype)
    return np.sum(np.abs(np.diff(windows, axis=1)), axis=1)


@shapes(windows="(b, w, c)")
def batched_zero_crossings(
    windows: np.ndarray, threshold: float = 0.0
) -> np.ndarray:
    """Thresholded zero-crossing counts per channel for a stack of windows.

    Mirrors :class:`repro.features.emg_extra.ZeroCrossingExtractor`: the
    signal is mean-centred per window, and a crossing counts when
    consecutive samples change sign with a difference above ``threshold``.
    """
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    centred = windows - windows.mean(axis=1, keepdims=True)
    if centred.shape[1] < 2:
        return np.zeros((windows.shape[0], windows.shape[2]),
                        dtype=windows.dtype)
    sign_change = np.signbit(centred[:, :-1]) != np.signbit(centred[:, 1:])
    big_enough = np.abs(centred[:, :-1] - centred[:, 1:]) > threshold
    return (sign_change & big_enough).sum(axis=1).astype(windows.dtype)
