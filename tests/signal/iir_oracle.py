"""Per-sample IIR filtering: the reference the block kernel is tested against.

This is the library's former filter implementation, kept verbatim as the
oracle for :func:`repro.signal.filters.filtfilt`: a direct-form-II-transposed
difference equation run one sample at a time (:func:`lfilter`), its
steady-state initial conditions (:func:`lfilter_zi`) and zero-phase
forward-backward filtering with odd reflective padding (:func:`filtfilt`).
``tests/signal/test_filters.py`` pins it to ``scipy.signal``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import SignalError
from repro.utils.validation import check_array

__all__ = ["lfilter", "lfilter_zi", "filtfilt"]


def _validate_ba(b: np.ndarray, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    b = np.atleast_1d(check_array(b, name="b", dtype=np.float64))
    a = np.atleast_1d(check_array(a, name="a", dtype=np.float64))
    if a[0] == 0:
        raise SignalError("a[0] must be nonzero")
    return b / a[0], a / a[0]


def lfilter_zi(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Steady-state initial filter state for a unit step input.

    This is the direct-form-II-transposed state that makes the filter's step
    response start at its final value, used by :func:`filtfilt` to suppress
    edge transients (the same construction as ``scipy.signal.lfilter_zi``).
    """
    b, a = _validate_ba(b, a)
    n = max(len(a), len(b))
    if n == 1:
        return np.zeros(0)
    bb = np.zeros(n)
    aa = np.zeros(n)
    bb[: len(b)] = b
    aa[: len(a)] = a
    # Companion matrix of the denominator polynomial.
    comp = np.zeros((n - 1, n - 1))
    comp[0, :] = -aa[1:]
    if n > 2:
        comp[1:, :-1] = np.eye(n - 2)
    rhs = bb[1:] - aa[1:] * bb[0]
    return np.linalg.solve(np.eye(n - 1) - comp.T, rhs)


def lfilter(
    b: np.ndarray,
    a: np.ndarray,
    x: np.ndarray,
    axis: int = 0,
    zi: np.ndarray | None = None,
) -> np.ndarray:
    """Causal IIR filtering (direct form II transposed) along ``axis``.

    A pure-numpy implementation of the standard difference equation

    ``a[0] y[n] = sum_k b[k] x[n-k] - sum_k a[k] y[n-k]``.

    Parameters
    ----------
    zi:
        Optional initial state of shape ``(n_taps - 1,)`` or
        ``(n_taps - 1, n_signals)``; defaults to rest (all zeros).
    """
    b, a = _validate_ba(b, a)
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    moved = np.moveaxis(x, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    n_taps = max(len(b), len(a))
    bb = np.zeros(n_taps)
    aa = np.zeros(n_taps)
    bb[: len(b)] = b
    aa[: len(a)] = a
    y = np.empty_like(flat)
    if n_taps == 1:
        y[:] = bb[0] * flat
        out = y.reshape(moved.shape)
        return np.moveaxis(out, 0, axis)
    if zi is None:
        state = np.zeros((n_taps - 1, flat.shape[1]))
    else:
        zi = np.asarray(zi, dtype=np.float64)
        if zi.ndim == 1:
            zi = zi[:, None]
        if zi.shape[0] != n_taps - 1:
            raise SignalError(
                f"zi must have {n_taps - 1} rows, got shape {zi.shape}"
            )
        state = np.broadcast_to(zi, (n_taps - 1, flat.shape[1])).copy()
    for n in range(flat.shape[0]):
        xn = flat[n]
        yn = bb[0] * xn + state[0]
        y[n] = yn
        # Shift the transposed direct-form-II state.
        state[:-1] = state[1:]
        state[-1] = 0.0
        state += np.outer(bb[1:], xn) - np.outer(aa[1:], yn)
    out = y.reshape(moved.shape)
    return np.moveaxis(out, 0, axis)


def filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Zero-phase forward-backward filtering.

    The signal is extended at both ends by ``3 * max(len(a), len(b))`` samples
    of odd reflection and the filter state is seeded with the steady-state
    initial conditions (:func:`lfilter_zi`) scaled by the first/last sample —
    the same transient-suppression strategy as ``scipy.signal.filtfilt``.
    """
    b, a = _validate_ba(b, a)
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    moved = np.moveaxis(x, axis, 0)
    n = moved.shape[0]
    pad = 3 * max(len(a), len(b))
    if n <= pad:
        pad = max(0, n - 1)
    if pad > 0:
        head = 2 * moved[0] - moved[pad:0:-1]
        tail = 2 * moved[-1] - moved[-2 : -pad - 2 : -1]
        ext = np.concatenate([head, moved, tail], axis=0)
    else:
        ext = moved
    zi = lfilter_zi(b, a)
    ext_flat = ext.reshape(ext.shape[0], -1)
    fwd = lfilter(b, a, ext_flat, axis=0, zi=np.outer(zi, ext_flat[0]))
    rev = fwd[::-1]
    bwd = lfilter(b, a, rev, axis=0, zi=np.outer(zi, rev[0]))[::-1]
    out = (bwd[pad : pad + n] if pad > 0 else bwd).reshape(moved.shape)
    return np.moveaxis(out, 0, axis)
