"""IIR Butterworth filter design and block-recursive application on numpy.

The Delsys Myomonitor system in the paper band-pass filters raw EMG to
20–450 Hz before sampling at 1000 Hz.  We reproduce that conditioning with a
digital Butterworth filter designed here via the classical analog-prototype →
frequency-transform → bilinear-transform route (Oppenheim & Schafer).

Design route
------------
1. Analog low-pass Butterworth prototype of order ``N``: poles equally spaced
   on the unit left-half circle.
2. Frequency transform (lp→lp or lp→bp) at the pre-warped analog
   frequencies.
3. Bilinear transform to the digital domain.
4. Conversion from zpk to transfer-function (b, a) coefficients.

Application
-----------
A filter ``b(z)/a(z)`` is factored into real second-order sections: the roots
of ``a`` and of ``b`` are paired into conjugate or real pairs, and the gain
goes on the first section.  The cascade of sections is then one linear
system whose state stacks every section's two direct-form-II-transposed
states.  Its state matrix is built from the sections, block lower-triangular
because each section's input is the previous one's output, and never from
the companion matrix of the order-8 transfer function, whose poor
conditioning is why sections exist.

A pass runs that system over fixed blocks of ``_BLOCK`` samples.  A filter's
plan holds four block matrices: the Toeplitz matrix of the cascade's impulse
response, the zero-input response of a state over a block, the map from a
block's inputs to its end state, and the block transition ``A^_BLOCK``.  One
product of every block with the first and third gives the zero-state outputs
and the end states from rest; a doubling scan carries the states across
blocks in ``ceil(log2(n_blocks))`` small products; one more product adds each
block's zero-input response.  No Python loop runs per block or per section.
Plans are built on first use, once per normalized ``(b, a)``, and kept in a
small least-recently-used memo (``_PLANS`` filters) whose arrays are
read-only.

:func:`filtfilt` is zero-phase forward-backward filtering with odd reflective
padding and steady-state initial conditions — the conventions of
``scipy.signal.filtfilt``, which the test suite compares it with.  The
per-sample difference-equation loop it replaced lives on in
``tests/signal/iir_oracle.py`` as the oracle the kernel must match to
``1e-8`` of the output's peak magnitude.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import SignalError
from repro.obs.config import span
from repro.utils.validation import check_array, check_in_range, check_positive_int

__all__ = [
    "IIRFilter",
    "butter_lowpass",
    "butter_bandpass",
    "filtfilt",
]

#: Samples per block of the block-recursive cascade kernel.
_BLOCK = 64

#: Distinct filters whose block plans are memoized, least recently used first out.
_PLANS = 16


def _analog_lowpass_prototype(order: int) -> np.ndarray:
    """Poles of the analog Butterworth low-pass prototype (cutoff 1 rad/s)."""
    k = np.arange(1, order + 1)
    theta = np.pi * (2 * k - 1) / (2 * order) + np.pi / 2
    return np.exp(1j * theta)


def _zpk_bilinear(
    zeros: np.ndarray, poles: np.ndarray, gain: float, fs2: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Bilinear transform of an analog zpk system; ``fs2`` is ``2 * fs``."""
    degree = len(poles) - len(zeros)
    if degree < 0:
        raise SignalError("analog system must have at least as many poles as zeros")
    z_d = (fs2 + zeros) / (fs2 - zeros)
    p_d = (fs2 + poles) / (fs2 - poles)
    # Zeros at analog infinity map to z = -1.
    z_d = np.append(z_d, -np.ones(degree))
    k_d = gain * np.real(np.prod(fs2 - zeros) / np.prod(fs2 - poles))
    return z_d, p_d, k_d


def _poly_from_roots(roots: np.ndarray) -> np.ndarray:
    """Real polynomial coefficients from a conjugate-symmetric root set."""
    coeffs = np.atleast_1d(np.poly(roots)) if len(roots) else np.array([1.0])
    if np.max(np.abs(coeffs.imag)) > 1e-8 * max(1.0, np.max(np.abs(coeffs.real))):
        raise SignalError("root set is not conjugate-symmetric; got complex polynomial")
    return coeffs.real


@dataclass(frozen=True)
class IIRFilter:
    """A designed digital IIR filter with transfer function ``b(z)/a(z)``.

    Instances are immutable; apply them with :meth:`apply` (causal) or
    :meth:`apply_zero_phase` (forward-backward, no phase distortion — what a
    biomechanics pipeline uses offline).
    """

    b: np.ndarray
    a: np.ndarray
    description: str = field(default="iir", compare=False)

    def __post_init__(self) -> None:
        b, a = _validate_ba(self.b, self.a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    @property
    def order(self) -> int:
        """Filter order (denominator degree)."""
        return len(self.a) - 1

    def apply(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Causal filtering along ``axis``, starting from rest."""
        x = _check_signal(x, axis)
        if x.size == 0:
            return x.copy()
        plan = _plan(self.b.tobytes(), self.a.tobytes())
        return _along(x, axis, lambda rows: _run(plan, rows))

    def apply_zero_phase(self, x: np.ndarray, axis: int = 0) -> np.ndarray:  # lint: ignore[R5]
        """Zero-phase forward-backward filtering along ``axis``."""
        return filtfilt(self.b, self.a, x, axis=axis)

    def frequency_response(
        self, n_points: int = 512, fs: float = 2.0 * np.pi
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complex frequency response on ``n_points`` frequencies in [0, fs/2].

        Returns ``(freqs, response)``; with the default ``fs`` the frequencies
        are in rad/sample, otherwise in the same unit as ``fs``.
        """
        n_points = check_positive_int(n_points, name="n_points")
        w = np.linspace(0.0, np.pi, n_points, endpoint=False)
        z = np.exp(-1j * w)
        num = np.polynomial.polynomial.polyval(z, self.b)
        den = np.polynomial.polynomial.polyval(z, self.a)
        return w * fs / (2.0 * np.pi), num / den


def _design(
    order: int,
    analog_zeros: np.ndarray,
    analog_poles: np.ndarray,
    analog_gain: float,
    fs: float,
    description: str,
) -> IIRFilter:
    z, p, k = _zpk_bilinear(analog_zeros, analog_poles, analog_gain, 2.0 * fs)
    b = k * _poly_from_roots(z)
    a = _poly_from_roots(p)
    return IIRFilter(b=b, a=a, description=description)


def _prewarp(cutoff_hz: float, fs: float) -> float:
    """Pre-warped analog angular frequency for a digital cutoff."""
    nyq = fs / 2.0
    check_in_range(cutoff_hz, name="cutoff_hz", low=0.0, high=nyq,
                   inclusive_low=False, inclusive_high=False)
    return 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)


def butter_lowpass(cutoff_hz: float, fs: float, order: int = 4) -> IIRFilter:
    """Digital Butterworth low-pass filter.

    Parameters
    ----------
    cutoff_hz:
        −3 dB cutoff in Hz; must lie strictly inside (0, fs/2).
    fs:
        Sampling rate in Hz.
    order:
        Filter order (number of analog prototype poles).
    """
    order = check_positive_int(order, name="order")
    warped = _prewarp(cutoff_hz, fs)
    proto = _analog_lowpass_prototype(order)
    poles = warped * proto
    gain = warped**order
    return _design(order, np.array([]), poles, gain, fs,
                   f"butterworth lowpass {cutoff_hz:g}Hz order {order}")


def butter_bandpass(
    low_hz: float, high_hz: float, fs: float, order: int = 4
) -> IIRFilter:
    """Digital Butterworth band-pass filter.

    ``order`` is the prototype order; the resulting digital filter has order
    ``2 * order``, matching the scipy convention where ``butter(N, ..,
    'bandpass')`` yields a 2N-order filter.
    """
    order = check_positive_int(order, name="order")
    if not low_hz < high_hz:
        raise SignalError(f"band edges must satisfy low < high, got {low_hz} >= {high_hz}")
    w1 = _prewarp(low_hz, fs)
    w2 = _prewarp(high_hz, fs)
    bw = w2 - w1
    w0 = np.sqrt(w1 * w2)
    proto = _analog_lowpass_prototype(order)
    # lp -> bp transform: s -> (s^2 + w0^2) / (bw * s); each prototype pole p
    # becomes the two roots of s^2 - (p * bw) s + w0^2 = 0.
    p_bw = proto * bw / 2.0
    disc = np.sqrt(p_bw**2 - w0**2)
    poles = np.concatenate([p_bw + disc, p_bw - disc])
    zeros = np.zeros(order, dtype=complex)
    gain = bw**order
    return _design(order, zeros, poles, gain, fs,
                   f"butterworth bandpass {low_hz:g}-{high_hz:g}Hz order {order}")


def _validate_ba(b: np.ndarray, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    b = np.atleast_1d(check_array(b, name="b", dtype=np.float64))
    a = np.atleast_1d(check_array(a, name="a", dtype=np.float64))
    if b.size == 0 or a.size == 0:
        raise SignalError("filter coefficients b and a must not be empty")
    if a[0] == 0:
        raise SignalError("leading denominator coefficient must be nonzero")
    return b / a[0], a / a[0]


def _check_signal(x: np.ndarray, axis: int) -> np.ndarray:
    x = check_array(x, name="x")
    if not -x.ndim <= axis < x.ndim:
        raise SignalError(f"axis {axis} is out of range for x of shape {x.shape}")
    return x


def _factors(roots: np.ndarray) -> np.ndarray:
    """Real factors ``[c0, c1, c2]``, in powers of ``z^-1``, of a root set.

    Each conjugate pair and each pair of real roots makes one quadratic, and
    a lone real root ``r`` makes ``[0, 1, -r]``.  The factors come sorted by
    the mean angle of their roots.
    """
    upper = roots[roots.imag > 0]
    real = np.sort(roots[roots.imag == 0].real)
    pairs = real[: len(real) - len(real) % 2].reshape(-1, 2)
    factors = [
        np.column_stack([np.ones(len(upper)), -2.0 * upper.real, np.abs(upper) ** 2]),
        np.column_stack([np.ones(len(pairs)), -pairs.sum(axis=1), pairs.prod(axis=1)]),
    ]
    angles = [np.angle(upper), np.angle(pairs).mean(axis=1)]
    if len(real) % 2:
        factors.append(np.array([[0.0, 1.0, -real[-1]]]))
        angles.append(np.angle(real[-1:]))
    return np.concatenate(factors)[np.argsort(np.concatenate(angles), kind="stable")]


def _sections(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Real second-order sections ``[b0, b1, b2, a1, a2]`` of ``b(z)/a(z)``.

    ``a`` must be normalized (``a[0] == 1``).  Cancelling poles and zeros at
    the origin fill an odd order (or order 0) up to whole sections.  Zeros
    and poles are matched by angle, so no section boosts a band that the next
    one cuts; sections short of zeros get delays ``[0, 0, 1]``, and the gain
    goes on the first section.
    """
    order = max(len(a), len(b)) - 1
    bb = np.zeros(order + 1)
    aa = np.zeros(order + 1)
    bb[: len(b)] = b
    aa[: len(a)] = a
    nonzero = np.flatnonzero(bb)
    gain = bb[nonzero[0]] if len(nonzero) else 0.0
    n_sections = max(1, (order + 1) // 2)
    origin = np.zeros(2 * n_sections - order)
    den = _factors(np.append(np.roots(aa), origin))
    zeros = _factors(np.append(np.roots(bb), origin))
    num = np.tile([0.0, 0.0, 1.0], (n_sections, 1))
    num[: len(zeros)] = zeros
    num[0] *= gain
    return np.column_stack([num, den[:, 1:]])


class _Plan(NamedTuple):
    """Block matrices of a filter's section cascade, for signals as row vectors.

    The cascade is one linear system whose state stacks every section's two
    direct-form-II-transposed states.  A block ``X`` of ``_BLOCK`` inputs,
    started in state ``s``, gives the outputs ``X @ block[:, :_BLOCK] + s @
    to_output`` and the end state ``X @ block[:, _BLOCK:] + s @ transition``.
    """

    sos: np.ndarray
    block: np.ndarray
    to_output: np.ndarray
    transition: np.ndarray


def _state_space(sos: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(A, B, C, D)`` of the cascade: ``s' = A s + B x``, ``y = C s + D x``.

    ``A`` is block lower-triangular: section ``i``'s input is section
    ``i - 1``'s output, so its state reads every earlier section's state.
    """
    n = 2 * len(sos)
    a_mat, b_vec, c_vec, d = np.zeros((n, n)), np.zeros(n), np.zeros(n), 1.0
    for i, (b0, b1, b2, a1, a2) in enumerate(sos):
        k = slice(2 * i, 2 * i + 2)
        # An input u leaves the state [b1 - a1 b0, b2 - a2 b0] after its sample.
        kick = np.array([b1 - a1 * b0, b2 - a2 * b0])
        a_mat[k] = np.outer(kick, c_vec)
        a_mat[k, k] = [[-a1, 1.0], [-a2, 0.0]]
        b_vec[k] = kick * d
        c_vec = b0 * c_vec
        c_vec[2 * i] += 1.0
        d = b0 * d
    return a_mat, b_vec, c_vec, d


@functools.lru_cache(maxsize=_PLANS)
def _plan(b_bytes: bytes, a_bytes: bytes) -> _Plan:
    """The read-only :class:`_Plan` of a normalized ``(b, a)``, built once."""
    sos = _sections(np.frombuffer(b_bytes), np.frombuffer(a_bytes))
    a_mat, b_vec, c_vec, d = _state_space(sos)
    # Column n of to_output is (C A^n)^T and column n of krylov is A^n B;
    # doubling fills both in log2(_BLOCK) products and leaves A^_BLOCK.
    to_output = np.zeros((len(c_vec), _BLOCK))
    krylov = np.zeros((len(c_vec), _BLOCK))
    to_output[:, 0], krylov[:, 0] = c_vec, b_vec
    power = a_mat
    filled = 1
    while filled < _BLOCK:
        to_output[:, filled : 2 * filled] = power.T @ to_output[:, :filled]
        krylov[:, filled : 2 * filled] = power @ krylov[:, :filled]
        power = power @ power
        filled *= 2
    impulse = np.concatenate([[d], c_vec @ krylov[:, :-1]])
    lag = np.arange(_BLOCK)[None, :] - np.arange(_BLOCK)[:, None]
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    plan = _Plan(sos, np.hstack([toeplitz, krylov[:, ::-1].T]), to_output, power.T)
    for array in plan:
        array.flags.writeable = False
    return plan


def _run(plan: _Plan, rows: np.ndarray, starts: Optional[np.ndarray] = None) -> np.ndarray:
    """Filter each row of ``rows`` through the cascade from states ``starts``.

    ``starts`` has one stacked state per row; ``None`` starts from rest.  One
    product gives every block's zero-state outputs and end states, a doubling
    scan carries the states across blocks in ``ceil(log2(n_blocks))``
    products, and one more product adds each block's zero-input response.
    """
    m, n = rows.shape
    n_blocks = -(-n // _BLOCK)
    blocks = np.zeros((m, n_blocks * _BLOCK))
    blocks[:, :n] = rows
    both = blocks.reshape(-1, _BLOCK) @ plan.block
    # states[:, k] is block k's start state; the scan sums in the end state
    # each earlier block leaves from rest, carried by powers of the transition.
    states = np.empty((m, n_blocks, len(plan.transition)))
    states[:, 0] = 0.0 if starts is None else starts
    states[:, 1:] = both[:, _BLOCK:].reshape(m, n_blocks, -1)[:, :-1]
    power = plan.transition
    step = 1
    while step < n_blocks:
        states[:, step:] += states[:, :-step] @ power
        power = power @ power
        step *= 2
    out = both[:, :_BLOCK] + states.reshape(-1, states.shape[-1]) @ plan.to_output
    return out.reshape(m, -1)[:, :n]


def _steady_state(sos: np.ndarray) -> np.ndarray:
    """Per-section states ``(n_sections, 2)`` of the cascade at rest on a unit input.

    Flattened, they are the cascade's stacked state (see :func:`_state_space`).
    """
    states = np.empty((len(sos), 2))
    level = 1.0
    for i, (b0, b1, b2, a1, a2) in enumerate(sos):
        dc = 1.0 + a1 + a2
        if abs(dc) <= np.finfo(float).eps * (1.0 + abs(a1) + abs(a2)):
            raise SignalError("filter has a pole at z = 1: no steady state for a constant input")
        out = level * (b0 + b1 + b2) / dc
        states[i] = (out - b0 * level, b2 * level - a2 * out)
        level = out
    return states


def _along(x: np.ndarray, axis: int, kernel: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a ``(m, n) -> (m, n)`` row kernel to every 1-D slice of ``x`` along ``axis``."""
    moved = np.moveaxis(x, axis, -1)
    out = kernel(moved.reshape(-1, moved.shape[-1])).reshape(moved.shape)
    return np.ascontiguousarray(np.moveaxis(out, -1, axis))


def filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Zero-phase forward-backward filtering of ``x`` along ``axis``.

    The signal is extended at both ends by ``3 * max(len(a), len(b))`` samples
    of odd reflection (fewer for a shorter signal), and the cascade starts
    each pass from its steady state for a constant input equal to the pass's
    first sample — the same transient suppression as ``scipy.signal.filtfilt``.
    Each pass is one block product, a doubling scan of the block states and
    one zero-input product, through the plan memoized for ``(b, a)`` (see the
    module docstring).

    Raises
    ------
    SignalError
        If ``axis`` is out of range for ``x``, a coefficient vector is empty,
        or the filter has a pole at ``z = 1`` (no steady state).
    ValidationError
        If ``x`` is not numeric or holds NaN or inf.
    """
    b, a = _validate_ba(b, a)
    x = _check_signal(x, axis)
    if x.size == 0:
        return x.copy()
    with span("signal.filtfilt", n_frames=x.shape[axis], order=len(a) - 1):
        plan = _plan(b.tobytes(), a.tobytes())
        unit = _steady_state(plan.sos).reshape(-1)
        pad = min(3 * max(len(a), len(b)), x.shape[axis] - 1)

        def zero_phase(rows: np.ndarray) -> np.ndarray:
            ext = np.concatenate([
                2 * rows[:, :1] - rows[:, pad:0:-1],
                rows,
                2 * rows[:, -1:] - rows[:, -2 : -pad - 2 : -1],
            ], axis=1)
            fwd = _run(plan, ext, ext[:, :1] * unit)
            rev = fwd[:, ::-1]
            bwd = _run(plan, rev, rev[:, :1] * unit)
            return bwd[:, ::-1][:, pad : pad + rows.shape[1]]

        return _along(x, axis, zero_phase)
