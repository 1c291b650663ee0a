"""IIR filter design and application (paper Sec. IV-B1).

EarSonar removes out-of-band interference with a Butterworth band-pass
filter before any echo analysis.  The *design* here is implemented from
first principles:

1. analog Butterworth low-pass prototype (poles on the unit circle's
   left half, Butterworth angles),
2. low-pass -> band-pass analog frequency transformation with bilinear
   pre-warping,
3. bilinear transform to the digital domain,
4. decomposition into second-order sections (SOS) for numerical
   stability.

Application of the SOS cascade has two code paths: a pure-Python
reference implementation (:func:`sosfilt_reference`) that documents the
exact recurrence, and a fast path that delegates the inner loop to
``scipy.signal.sosfilt``.  The test suite asserts the two agree to
machine precision; production call sites use the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import sosfilt as _scipy_sosfilt

from ..errors import ConfigurationError

__all__ = [
    "ButterworthDesign",
    "butterworth_bandpass",
    "sosfilt",
    "sosfilt_reference",
    "sosfiltfilt",
    "sos_frequency_response",
]


@dataclass(frozen=True)
class ButterworthDesign:
    """A designed digital Butterworth filter.

    Attributes
    ----------
    sos:
        Second-order sections, shape ``(n_sections, 6)`` laid out as
        ``[b0, b1, b2, a0, a1, a2]`` with ``a0 == 1``.
    sample_rate:
        Sample rate the design targets, in Hz.
    band:
        The passband edges ``(low_hz, high_hz)``.
    order:
        Prototype order (a band-pass of prototype order ``n`` has ``2n``
        poles).
    """

    sos: np.ndarray
    sample_rate: float
    band: tuple[float, float]
    order: int

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Causal filtering of ``signal`` through the SOS cascade."""
        return sosfilt(self.sos, signal)

    def apply_zero_phase(self, signal: np.ndarray) -> np.ndarray:
        """Forward-backward (zero-phase) filtering of ``signal``."""
        return sosfiltfilt(self.sos, signal)

    def response(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Complex frequency response at ``frequencies_hz``."""
        return sos_frequency_response(self.sos, frequencies_hz, self.sample_rate)


# ---------------------------------------------------------------------------
# Analog prototype and transformations
# ---------------------------------------------------------------------------


def _butterworth_prototype(order: int) -> np.ndarray:
    """Poles of the unit-cutoff analog Butterworth low-pass prototype."""
    if order < 1:
        raise ConfigurationError(f"filter order must be >= 1, got {order}")
    k = np.arange(order)
    theta = np.pi * (2.0 * k + order + 1.0) / (2.0 * order)
    return np.exp(1j * theta)


def _prewarp(frequency_hz: float, sample_rate: float) -> float:
    """Bilinear pre-warp: analog rad/s frequency hitting ``frequency_hz``."""
    return 2.0 * sample_rate * np.tan(np.pi * frequency_hz / sample_rate)


def _bilinear_zpk(
    zeros: np.ndarray, poles: np.ndarray, gain: float, sample_rate: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Bilinear transform of an analog zpk system to the z-domain."""
    fs2 = 2.0 * sample_rate
    z_digital = (fs2 + zeros) / (fs2 - zeros)
    p_digital = (fs2 + poles) / (fs2 - poles)
    # Degree difference maps extra analog zeros at infinity to z = -1.
    degree = poles.size - zeros.size
    z_digital = np.concatenate([z_digital, -np.ones(degree)])
    gain_digital = gain * np.real(
        np.prod(fs2 - zeros) / np.prod(fs2 - poles)
    )
    return z_digital, p_digital, gain_digital


def _validate_edges(sample_rate: float, *edges: float) -> None:
    nyquist = sample_rate / 2.0
    if sample_rate <= 0:
        raise ConfigurationError(f"sample_rate must be positive, got {sample_rate}")
    for edge in edges:
        if not 0.0 < edge < nyquist:
            raise ConfigurationError(
                f"band edge {edge} Hz must lie strictly inside (0, {nyquist}) Hz"
            )


def _pair_conjugates(roots: np.ndarray) -> list[np.ndarray]:
    """Group roots into conjugate pairs (plus possibly one real pair/single).

    Butterworth designs always yield roots symmetric about the real
    axis, so pairing upper-half-plane roots with their conjugates and
    coupling leftover real roots two at a time is exact.
    """
    roots = np.asarray(roots, dtype=complex)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(roots))) if roots.size else 1.0)
    complex_upper = sorted(
        (r for r in roots if r.imag > tol),
        key=lambda r: (-abs(r), r.real),
    )
    reals = sorted((r for r in roots if abs(r.imag) <= tol), key=lambda r: r.real)
    n_complex_lower = sum(1 for r in roots if r.imag < -tol)
    if len(complex_upper) != n_complex_lower:
        raise ValueError("roots are not conjugate-symmetric; cannot form real sections")
    pairs: list[np.ndarray] = [np.array([r, np.conj(r)]) for r in complex_upper]
    for i in range(0, len(reals) - 1, 2):
        pairs.append(np.array([reals[i], reals[i + 1]]))
    if len(reals) % 2 == 1:
        pairs.append(np.array([reals[-1]]))
    return pairs


def _zpk_to_sos(zeros: np.ndarray, poles: np.ndarray, gain: float) -> np.ndarray:
    """Convert a real-coefficient zpk system into second-order sections.

    Specialised for the Butterworth designs produced in this module:
    zeros sit at z = +1 and/or z = -1 (real), poles come in conjugate
    pairs.  Each pole pair is matched with up to two zeros; the overall
    gain is applied to the first section.
    """
    pole_pairs = _pair_conjugates(poles)
    zero_list = sorted(np.asarray(zeros, dtype=complex), key=lambda z: z.real)
    sections = []
    for pair in pole_pairs:
        take = min(2, len(zero_list)) if len(pole_pairs) > 1 else len(zero_list)
        take = min(take, 2)
        # Prefer assigning one zero from each end (one at -1, one at +1)
        # so band-pass sections each get a DC and a Nyquist null.
        section_zeros = []
        if take >= 1 and zero_list:
            section_zeros.append(zero_list.pop(0))
        if take >= 2 and zero_list:
            section_zeros.append(zero_list.pop(-1))
        b = np.real(np.poly(section_zeros)) if section_zeros else np.array([1.0])
        a = np.real(np.poly(pair))
        b = np.concatenate([b, np.zeros(3 - b.size)])
        a = np.concatenate([a, np.zeros(3 - a.size)])
        sections.append(np.concatenate([b, a]))
    if zero_list:
        raise ValueError(f"{len(zero_list)} zeros left unassigned to sections")
    sos = np.array(sections)
    sos[0, :3] *= gain
    return sos


# ---------------------------------------------------------------------------
# Public designers
# ---------------------------------------------------------------------------


def butterworth_bandpass(
    order: int, low_hz: float, high_hz: float, sample_rate: float
) -> ButterworthDesign:
    """Design a digital Butterworth band-pass filter.

    ``order`` is the prototype order; the resulting digital filter has
    ``2 * order`` poles.  EarSonar's default is a 4th-order prototype
    over 15-21 kHz, comfortably containing the 16-20 kHz sweep.
    """
    _validate_edges(sample_rate, low_hz, high_hz)
    if low_hz >= high_hz:
        raise ConfigurationError(f"low edge {low_hz} must be below high edge {high_hz}")
    w1 = _prewarp(low_hz, sample_rate)
    w2 = _prewarp(high_hz, sample_rate)
    bw = w2 - w1
    w0 = np.sqrt(w1 * w2)
    prototype = _butterworth_prototype(order)
    # lp2bp: each prototype pole p maps to two poles.
    scaled = prototype * bw / 2.0
    offset = np.sqrt(scaled**2 - w0**2)
    poles = np.concatenate([scaled + offset, scaled - offset])
    zeros = np.zeros(order, dtype=complex)
    gain = bw**order
    z, p, k = _bilinear_zpk(zeros, poles, float(np.real(gain)), sample_rate)
    sos = _zpk_to_sos(z, p, k)
    return ButterworthDesign(sos, sample_rate, (low_hz, high_hz), order)


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


def sosfilt_reference(sos: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Pure-Python direct-form-II-transposed SOS filtering.

    This is the executable specification of the recurrence::

        y[n]  = b0 x[n] + s1
        s1    = b1 x[n] - a1 y[n] + s2
        s2    = b2 x[n] - a2 y[n]

    Used as a correctness oracle; prefer :func:`sosfilt` in hot paths.
    """
    sos = np.atleast_2d(np.asarray(sos, dtype=float))
    out = np.asarray(signal, dtype=float).copy()
    for b0, b1, b2, a0, a1, a2 in sos:
        if abs(a0 - 1.0) > 1e-12:
            b0, b1, b2, a1, a2 = b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0
        s1 = 0.0
        s2 = 0.0
        for n in range(out.size):
            x = out[n]
            y = b0 * x + s1
            s1 = b1 * x - a1 * y + s2
            s2 = b2 * x - a2 * y
            out[n] = y
    return out


def sosfilt(sos: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Causal SOS filtering (fast path)."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        return signal.copy()
    return _scipy_sosfilt(np.atleast_2d(sos), signal)


def sosfiltfilt(sos: np.ndarray, signal: np.ndarray, *, pad_len: int | None = None) -> np.ndarray:
    """Zero-phase forward-backward SOS filtering with odd reflection padding."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        return signal.copy()
    sos = np.atleast_2d(np.asarray(sos, dtype=float))
    if pad_len is None:
        pad_len = min(signal.size - 1, 6 * sos.shape[0] * 3)
    if pad_len > 0:
        head = 2.0 * signal[0] - signal[pad_len:0:-1]
        tail = 2.0 * signal[-1] - signal[-2 : -pad_len - 2 : -1]
        extended = np.concatenate([head, signal, tail])
    else:
        extended = signal
    forward = sosfilt(sos, extended)
    backward = sosfilt(sos, forward[::-1])[::-1]
    if pad_len > 0:
        backward = backward[pad_len : pad_len + signal.size]
    return backward


def sos_frequency_response(
    sos: np.ndarray, frequencies_hz: np.ndarray, sample_rate: float
) -> np.ndarray:
    """Complex response of an SOS cascade at the given frequencies."""
    sos = np.atleast_2d(np.asarray(sos, dtype=float))
    w = 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float) / sample_rate
    z_inv = np.exp(-1j * w)
    response = np.ones_like(z_inv, dtype=complex)
    for b0, b1, b2, a0, a1, a2 in sos:
        num = b0 + b1 * z_inv + b2 * z_inv**2
        den = a0 + a1 * z_inv + a2 * z_inv**2
        response *= num / den
    return response
