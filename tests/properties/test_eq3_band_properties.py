"""Property-based test: the Eq. 3 kernel stays inside its band of the SVD oracle.

:func:`repro.features.batched.stacked_weighted_svd` takes Eq. 3's singular
vectors from the eigenvectors of ``XᵀX`` and ``σᵢ = ‖X vᵢ‖``; it must stay
within ``16·ε·(1 + K)`` of the LAPACK-SVD oracle in
``tests/features/svd_oracle.py`` (``K`` from the oracle's singular values,
derived in the kernel's docstring).  The random windows have prescribed
singular values: ``σ₁/σ₂ − 1`` from ``1e-8`` to ``1e4`` and ``σ₃/σ₂``
from 0 to 1, at three scales and window lengths 1–24.  Targeted cases cover
rank-deficient windows (a static joint, straight-line motion), ``w < 3``, a
zero joint inside a batch, both sides of the zero-motion threshold and an
exact singular-value tie, where only invariants are checked.  Skipped
entirely when ``hypothesis`` is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.properties

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.features import batched  # noqa: E402
from repro.features.batched import (  # noqa: E402
    ZERO_MOTION_TOTAL,
    stacked_weighted_svd,
)
from tests.features.svd_oracle import eq3_band, svd_weighted_features  # noqa: E402


def _within_band(joints: np.ndarray) -> np.ndarray:
    """Kernel features of a ``(batch, w, 3)`` stack, asserted inside the band."""
    got = stacked_weighted_svd(joints)
    want, singular = svd_weighted_features(joints)
    deviation = np.abs(got - want).max(axis=-1)
    band = eq3_band(singular)
    assert np.all(deviation <= band), (deviation, band, singular)
    return got


def _dominant_margin(joints: np.ndarray) -> float:
    """Smallest gap between the two largest |components| of any singular vector."""
    _, _, vt = np.linalg.svd(joints, full_matrices=False)
    magnitudes = np.sort(np.abs(vt), axis=-1)
    return float((magnitudes[..., -1] - magnitudes[..., -2]).min())


@settings(max_examples=150, deadline=None)
@given(
    w=st.sampled_from([1, 2, 3, 4, 12, 24]),
    top_gap_log10=st.floats(-8.0, 4.0),
    low_ratio=st.one_of(st.sampled_from([0.0, 1e-3, 0.3]), st.floats(0.0, 1.0)),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_within_band_of_svd_oracle(w, top_gap_log10, low_ratio, scale,
                                          seed):
    gen = np.random.default_rng(seed)
    second = 1.0 / (1.0 + 10.0 ** top_gap_log10)
    rank = min(w, 3)
    singular = scale * np.array([1.0, second, low_ratio * second])[:rank]
    left = np.linalg.qr(gen.normal(size=(w, rank)))[0]
    right = np.linalg.qr(gen.normal(size=(3, 3)))[0][:, :rank]
    window = (left * singular) @ right.T
    # The sign rule is discontinuous where a vector's two largest
    # components tie; the band excludes that (see the kernel docstring).
    assume(_dominant_margin(window[None]) > 1e-6)
    _within_band(window[None])


def test_static_joint():
    """A joint that holds still: rank 1, σ₂ = σ₃ = 0."""
    window = np.tile([312.5, -48.25, 905.1], (12, 1))
    _within_band(window[None])


def test_straight_line_motion():
    """Motion along a line, offset from the pelvis: rank 2, σ₃ = 0."""
    t = np.linspace(0.0, 1.0, 12)[:, None]
    window = np.array([312.5, -48.25, 905.1]) + t * np.array([3.0, 1.5, -2.0])
    _within_band(window[None])


@pytest.mark.parametrize("w", [1, 2])
def test_windows_shorter_than_three_rows(rng, w):
    joints = rng.normal(size=(8, w, 3)) * 40 + rng.normal(size=(8, 1, 3)) * 300
    _within_band(joints)


def test_zero_joint_inside_a_batch(rng):
    joints = rng.normal(size=(5, 10, 3)) * 40
    joints[2] = 0.0
    got = _within_band(joints)
    np.testing.assert_array_equal(got[2], 0.0)
    assert np.all(np.linalg.norm(np.delete(got, 2, axis=0), axis=-1) > 0.0)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_either_side_of_zero_motion_total(rng, factor):
    window = rng.normal(size=(12, 3))
    window *= factor * ZERO_MOTION_TOTAL / np.linalg.svd(
        window, compute_uv=False).sum()
    got = _within_band(window[None])[0]
    if factor < 1.0:
        np.testing.assert_array_equal(got, 0.0)
    else:
        assert np.linalg.norm(got) > 0.5


@pytest.mark.parametrize("rotate", [False, True])
def test_exact_tie_keeps_invariants(rng, monkeypatch, rotate):
    """σ₁ = σ₂: the singular basis is arbitrary, so only invariants hold."""
    window = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 2.0],
                       [-5.0, 0.0, 0.0], [0.0, -5.0, 0.0]])
    if rotate:
        window = window @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
    captured = []

    def spy(vt):
        stable = stabilize(vt)
        captured.append(stable)
        return stable

    stabilize = batched.stabilize_signs_batched
    monkeypatch.setattr(batched, "stabilize_signs_batched", spy)
    feature = stacked_weighted_svd(window[None])[0]
    assert np.all(np.isfinite(feature))
    assert np.linalg.norm(feature) <= 1.0 + 1e-9
    (vt,) = captured
    dominant = np.argmax(np.abs(vt), axis=-1)
    assert np.all(np.take_along_axis(vt, dominant[..., None], axis=-1) >= 0.0)
