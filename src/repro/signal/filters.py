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
exact recurrence, and the fast path :func:`sosfilt`, which convolves
with the cascade's truncated impulse response by overlap-save FFTs.
:func:`first_order_iir` evaluates a one-pole recursion (the event
detector's power smoothing, the simulator's motion rumble) in blocks.
Both fast paths use numpy alone; the tests hold them to
``scipy.signal``'s ``sosfilt`` and ``lfilter`` within 1e-13 of the
output's peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigurationError

__all__ = [
    "ButterworthDesign",
    "butterworth_bandpass",
    "first_order_iir",
    "sosfilt",
    "sosfilt_reference",
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


#: FFT size of an overlap-save block; a design whose truncated impulse
#: response is longer than a quarter of it gets a larger power of two.
_OVERLAP_SAVE_NFFT = 2048

#: The cascade's impulse response is cut after its last tap at or above
#: this fraction of its peak (498 taps for the default 15-21 kHz design).
_IMPULSE_FLOOR = 1e-18


@dataclass(frozen=True)
class _OverlapSavePlan:
    """The truncated impulse response of an SOS cascade, in the FFT domain."""

    taps: int
    nfft: int
    response: np.ndarray


def _overlap_save_plan(sos: np.ndarray) -> _OverlapSavePlan:
    """Plan-cached FIR form of a stable cascade.

    The impulse response comes from :func:`sosfilt_reference` itself,
    over twice the length at which the slowest pole decays below
    :data:`_IMPULSE_FLOOR`, doubled again until the second half holds
    no tap above the floor.
    """
    from ..kernels.plan import cached_plan

    def build() -> _OverlapSavePlan:
        radius = max(float(np.abs(np.roots(section[3:])).max(initial=0.0)) for section in sos)
        if radius >= 1.0:
            raise ConfigurationError(f"SOS cascade is unstable (pole radius {radius:.6f})")
        length = 64
        if radius > 0.0:
            length += 2 * int(np.ceil(np.log(_IMPULSE_FLOOR) / np.log(radius)))
        while True:
            impulse = np.zeros(length)
            impulse[0] = 1.0
            h = sosfilt_reference(sos, impulse)
            magnitude = np.abs(h)
            taps = int(np.flatnonzero(magnitude >= _IMPULSE_FLOOR * magnitude.max())[-1]) + 1
            if 2 * taps <= length:
                break
            length *= 2
        nfft = max(_OVERLAP_SAVE_NFFT, 1 << (4 * taps - 1).bit_length())
        response = np.fft.rfft(h[:taps], nfft)
        response.flags.writeable = False
        return _OverlapSavePlan(taps, nfft, response)

    return cached_plan(("sos-overlap-save", sos.shape, sos.tobytes()), build)


def sosfilt(sos: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Causal SOS filtering of a 1-D signal (fast path).

    Overlap-save FFT convolution with the cascade's impulse response,
    truncated below :data:`_IMPULSE_FLOOR` of its peak: every block of
    ``nfft`` samples yields ``nfft - taps + 1`` outputs, all blocks in
    one batched FFT.  It is not bit-identical to the recurrence of
    :func:`sosfilt_reference`: the tests hold it to
    ``scipy.signal.sosfilt`` within 1e-13 of the output's peak (seeded
    captures read ~1e-15).
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        return signal.copy()
    plan = _overlap_save_plan(np.atleast_2d(np.asarray(sos, dtype=float)))
    n = signal.size
    history = plan.taps - 1
    step = plan.nfft - history
    blocks = -(-n // step)
    padded = np.zeros(history + blocks * step)
    padded[history : history + n] = signal
    spectra = np.fft.rfft(sliding_window_view(padded, plan.nfft)[::step], axis=1)
    spectra *= plan.response
    return np.fft.irfft(spectra, plan.nfft, axis=1)[:, history:].reshape(-1)[:n]


#: Rows of the blocked first-order kernel hold at most this many samples,
#: and fewer when ``pole ** -row`` would pass :data:`_FIRST_ORDER_RANGE`.
_FIRST_ORDER_BLOCK = 2048

#: Bound on the scale ``pole ** -j`` that a row's cumulative sum carries.
_FIRST_ORDER_RANGE = 2.0**100


@dataclass(frozen=True)
class _FirstOrderPlan:
    """Per-row powers of the pole for :func:`first_order_iir`."""

    down: np.ndarray  # pole ** -j
    up: np.ndarray  # gain * pole ** j
    carry: np.ndarray  # pole ** (j + 1)


def _first_order_plan(gain: float, pole: float) -> _FirstOrderPlan:
    """Plan-cached powers of ``0 < pole < 1`` over one row."""
    from ..kernels.plan import cached_plan

    def build() -> _FirstOrderPlan:
        block = int(np.log(_FIRST_ORDER_RANGE) / -np.log(pole)) + 1
        j = np.arange(min(_FIRST_ORDER_BLOCK, block), dtype=float)
        powers = np.power(pole, j)
        arrays = (np.power(pole, -j), gain * powers, powers * pole)
        for array in arrays:
            array.flags.writeable = False
        return _FirstOrderPlan(*arrays)

    return cached_plan(("first-order", gain, pole), build)


def first_order_iir(
    values: np.ndarray, gain: float, pole: float, *, initial: float = 0.0
) -> np.ndarray:
    """Evaluate ``y[i] = gain * x[i] + pole * y[i-1]`` with ``y[-1] = initial``.

    A blocked closed form of the recursion over a 1-D signal, for
    ``0 <= pole < 1``.  Each row of up to :data:`_FIRST_ORDER_BLOCK`
    samples scales its inputs by ``pole ** -j``, sums them cumulatively
    and scales back by ``gain * pole ** j``, which is the row's response
    from rest; the value before the row then adds ``pole ** (j + 1)``
    times itself, one scalar step per row.  ``pole == 0`` has no memory
    (and ``pole ** -j`` would divide by zero), so it is ``gain * x``.
    It is not bit-identical to ``scipy.signal.lfilter``: the tests hold
    the two within 1e-13 relative on non-negative input and 1e-13 of
    the output's peak on signed input.
    """
    values = np.asarray(values, dtype=float)
    gain, pole = float(gain), float(pole)
    if not 0.0 <= pole < 1.0:
        raise ValueError(f"pole must lie in [0, 1), got {pole}")
    if pole == 0.0:
        return values * gain
    plan = _first_order_plan(gain, pole)
    block = plan.down.size
    n = values.size
    out = np.empty(n)
    split = n - n % block
    rows = [(values[:split].reshape(-1, block), out[:split].reshape(-1, block))]
    if split < n:
        rows.append((values[split:].reshape(1, -1), out[split:].reshape(1, -1)))
    before = initial
    for x, y in rows:
        width = x.shape[1]
        np.multiply(x, plan.down[:width], out=y)
        np.cumsum(y, axis=1, out=y)
        y *= plan.up[:width]
        carry = plan.carry[:width]
        for row in y:
            row += carry * before
            before = float(row[-1])
    return out


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
