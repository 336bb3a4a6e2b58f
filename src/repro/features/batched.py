"""Batched hot-path featurization kernels (stacked Eq. 3 + vectorized EMG).

The whole-pipeline profile shows a Python loop over joints and windows
dominating cold featurization.  This module computes the features over
**stacks of windows**:

* :func:`stacked_weighted_svd` — the paper's Eq. 3 feature for a
  ``(n_windows, w, 3k)`` batch, from the eigenvectors of every joint
  window's ``3 x 3`` Gram matrix ``XᵀX`` in **one** stacked
  ``numpy.linalg.eigh`` call.  It is the library's only Eq. 3 kernel:
  :func:`repro.features.svd.weighted_svd_feature` and
  ``WeightedSVDExtractor.extract_joint`` call it with a batch of one;
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
**bit-identical** to its per-window counterpart.  Every step of
:func:`stacked_weighted_svd` — the Gram ``matmul``, the ``eigh`` gufunc,
the projection and its column-norm reduction, the weighted combination —
computes each joint matrix on its own, with the same routine whatever the
stack around it, so a batch of one gives the same bits as a row of a large
batch.  The EMG axis reductions share numpy's summation order for a fixed
window length.  ``tests/features/test_batched_equivalence.py`` is the
differential harness pinning this.

Zero-padded stacks
------------------
:class:`~repro.features.combine.WindowFeaturizer` passes a record's windows
as one stack: a short tail is padded with zero rows, and ``lengths[i]`` is
window ``i``'s true row count.  Zero rows add ``+0.0`` to Eq. 1's sums, to
``XᵀX`` and to ``‖X vᵢ‖``, each of which adds a window's rows one after
another, so they change nothing, with two exceptions that
``tests/properties/test_padded_window_properties.py`` pins.  numpy sums a
lone column pairwise, in a tree that depends on the row count, so a
one-channel stack sums each short window over its own rows.  numpy projects
a one-row matrix with a matrix-vector BLAS call, which rounds differently
from the matrix-matrix call of a taller window, so
:func:`stacked_weighted_svd` gives a one-row stack a zero second row.  MAV
divides by ``lengths``; waveform length and zero crossings mask the steps
into the padding.

Eq. 3 is not bit-identical to a LAPACK SVD of the window; it stays inside
the band derived in :func:`stacked_weighted_svd`, which
``tests/properties/test_eq3_band_properties.py`` checks against the SVD
oracle in ``tests/features/svd_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FeatureError, ValidationError
from repro.utils.validation import check_array, shapes

__all__ = [
    "batched_iav",
    "batched_mav",
    "batched_waveform_length",
    "batched_zero_crossings",
    "check_window_lengths",
    "stabilize_signs_batched",
    "stacked_weighted_svd",
]

#: Zero-motion threshold of Eq. 3: a joint window whose singular values sum
#: to at most this is treated as zero motion (feature = zero vector).
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
    ``MocapFeatureExtractor.extract`` applied per window.

    Eq. 3 needs the right singular vectors ``vᵢ`` and singular values
    ``σᵢ`` of each ``w x 3`` joint window ``X``, and these are the
    eigenvectors of its Gram matrix ``XᵀX``.  All ``batch * k`` Gram
    matrices go through **one** stacked ``numpy.linalg.eigh`` call, and
    ``σᵢ = ‖X vᵢ‖``.  The shortcut ``σᵢ = √λᵢ`` is not used: ``λᵢ`` carries
    an absolute error of about ``ε·σ₁²`` (``ε`` the float64 machine
    epsilon), so on a rank-deficient window — a static joint, straight-line
    motion — it turns an exact zero into about ``√ε·σ₁``, a relative error
    of ``1.5e-8``, where ``‖X vᵢ‖`` stays at the rounding level.  A window
    with fewer than 3 rows has ``3 − w`` null directions whose
    ``σᵢ = ‖X vᵢ‖`` is zero up to rounding.  Sign stabilization,
    singular-value normalization and the zero-motion case (``Σσ`` at most
    :data:`ZERO_MOTION_TOTAL` gives the zero vector) are vectorized along
    the batch axis.

    Tolerance band against an SVD of the window
    -------------------------------------------
    Forming ``XᵀX`` and LAPACK's symmetric eigensolver each perturb the
    Gram matrix by about ``ε·σ₁²``, so each computed eigenvector pair
    ``(vᵢ, vⱼ)`` is rotated in its plane by about
    ``ε·σ₁² / |σᵢ² − σⱼ²|`` (squaring ``X`` squares the sensitivity to a
    small gap).  The SVD it is compared with is itself exact only up to a
    rotation of about ``ε·σ₁ / |σᵢ − σⱼ|``.  A rotation by ``θ`` moves
    ``σᵢvᵢ + σⱼvⱼ`` by at most ``θ·(σᵢ + σⱼ)``, so it moves the feature by
    ``θ·(σᵢ + σⱼ)/Σσ``; and whatever the rotation or sign flip, a pair of
    unit vectors moves the feature by at most ``2·(σᵢ + σⱼ)/Σσ``.  Summing
    over the three pairs, with ``σ`` from the SVD::

        |f − f_svd|∞ ≤ 16·ε·(1 + K),
        K = Σ_{i<j} (σᵢ + σⱼ)/Σσ
                    · min(σ₁²/|σᵢ² − σⱼ²| + σ₁/|σᵢ − σⱼ|, 1/(8ε))

    The ``1`` covers the rounding of the normalization and the weighted
    sum, and the factor 16 the constants the first-order argument drops:
    over 240k random windows the largest ``|f − f_svd| / (ε·(1 + K))``
    was 7.2.  When two singular values nearly coincide, ``K`` is large
    because Eq. 3 itself is ill-conditioned there: ``σᵢvᵢ + σⱼvⱼ`` depends
    on the basis chosen for a shared singular subspace, and at an exact
    tie the SVD's basis is as arbitrary as this one.  The band excludes a
    singular vector whose two largest components tie in magnitude, where
    the sign rule itself is discontinuous.

    Raises
    ------
    FeatureError
        If the joint columns are not a multiple of 3, or a joint window's
        squared coordinates overflow float64 (coordinates beyond about
        ``1e154``), naming the first such window and joint.
    """
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    batch, w, cols = windows.shape
    if cols % 3 != 0:
        raise FeatureError(
            f"multi-joint windows must have 3 columns per joint, got {cols}"
        )
    if w == 1:  # take the matrix-matrix route (see the module docstring)
        windows = np.concatenate([windows, np.zeros_like(windows)], axis=1)
        w = 2
    k = cols // 3
    # (batch, w, k, 3) -> (batch, k, w, 3) -> (batch * k, w, 3)
    joints = np.ascontiguousarray(
        windows.reshape(batch, w, k, 3).transpose(0, 2, 1, 3)
    ).reshape(batch * k, w, 3)
    # Overflow is reported below as a FeatureError, not as a warning.
    with np.errstate(over="ignore"):
        gram = np.matmul(joints.transpose(0, 2, 1), joints)
    # A finite trace bounds every entry of XᵀX and every σᵢ², so eigh and
    # the norms below see finite numbers only.
    finite = np.isfinite(np.einsum("bii->b", gram))
    if not finite.all():
        first = int(np.argmin(finite))
        raise FeatureError(
            f"window {first // k}, joint {first % k}: the Gram matrix XᵀX "
            "overflows float64 (coordinates too large for Eq. 3)"
        )
    # eigh orders eigenvalues ascending; reversed, column i of vectors is
    # the right singular vector of the i-th largest singular value.
    vectors = np.linalg.eigh(gram)[1][..., ::-1]
    projected = np.matmul(joints, vectors)
    singular = np.sqrt(np.einsum("bwi,bwi->bi", projected, projected))
    totals = singular.sum(axis=-1)
    degenerate = totals <= ZERO_MOTION_TOTAL
    safe_totals = np.where(degenerate, 1.0, totals)
    weights = singular / safe_totals[..., None]
    vt = stabilize_signs_batched(vectors.transpose(0, 2, 1))
    features = np.matmul(weights[:, None, :], vt)[:, 0, :]
    features[degenerate] = 0.0
    return features.reshape(batch, 3 * k)


@shapes(lengths="(b,)")
def check_window_lengths(lengths: np.ndarray, window: int) -> np.ndarray:
    """A padded stack's true row counts, as integers in ``[1, window]``."""
    lengths = np.asarray(lengths)
    if lengths.dtype.kind not in "iu" or not np.all(
            (lengths >= 1) & (lengths <= window)):
        raise ValidationError(
            f"window lengths must be integers in [1, {window}]")
    return lengths


def _window_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-window column sums of a zero-padded ``(b, w, c)`` stack."""
    sums = values.sum(axis=1)
    if values.shape[2] == 1:
        for i in np.flatnonzero(lengths < values.shape[1]):
            sums[i] = values[i, :lengths[i]].sum(axis=0)
    return sums


@shapes(windows="(b, w, c)", lengths="(b,)")
def batched_iav(windows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Eq. 1 IAV per channel for a zero-padded ``(batch, w, n_channels)`` stack."""
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    lengths = check_window_lengths(lengths, windows.shape[1])
    return _window_sums(np.abs(windows), lengths)


@shapes(windows="(b, w, c)", lengths="(b,)")
def batched_mav(windows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mean absolute value per channel: the IAV sum over each true length."""
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    lengths = check_window_lengths(lengths, windows.shape[1])
    return _window_sums(np.abs(windows), lengths) / lengths[:, None]


def _inside_steps(lengths: np.ndarray, w: int) -> np.ndarray:
    """``(b, w - 1)`` mask of the row-to-row steps inside each true window."""
    return np.arange(w - 1) < (lengths - 1)[:, None]


@shapes(windows="(b, w, c)", lengths="(b,)")
def batched_waveform_length(windows: np.ndarray,
                            lengths: np.ndarray) -> np.ndarray:
    """Waveform length (total variation) per channel for a stack of windows."""
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    lengths = check_window_lengths(lengths, windows.shape[1])
    steps = np.abs(np.diff(windows, axis=1))
    steps[~_inside_steps(lengths, windows.shape[1])] = 0.0
    return _window_sums(steps, lengths - 1)


@shapes(windows="(b, w, c)", lengths="(b,)")
def batched_zero_crossings(
    windows: np.ndarray, lengths: np.ndarray, threshold: float = 0.0
) -> np.ndarray:
    """Thresholded zero-crossing counts per channel for a stack of windows.

    Mirrors :class:`repro.features.emg_extra.ZeroCrossingExtractor`: the
    signal is mean-centred per window, and a crossing counts when
    consecutive samples change sign with a difference above ``threshold``.
    """
    windows = check_array(windows, name="windows", ndim=3, allow_empty=False)
    lengths = check_window_lengths(lengths, windows.shape[1])
    means = _window_sums(windows, lengths) / lengths[:, None]
    centred = windows - means[:, None, :]
    sign_change = np.signbit(centred[:, :-1]) != np.signbit(centred[:, 1:])
    big_enough = np.abs(centred[:, :-1] - centred[:, 1:]) > threshold
    inside = _inside_steps(lengths, windows.shape[1])[..., None]
    return (sign_change & big_enough & inside).sum(axis=1).astype(windows.dtype)
