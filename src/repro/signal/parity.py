"""Even/odd (parity) decomposition echo segmentation (paper Sec. IV-B3).

A chirp event contains the direct speaker-to-microphone pulse followed
by ear-canal multipath and, a few dozen samples later, the eardrum
echo.  EarSonar's segmentation observes that each individual echo
packet is locally symmetric (a windowed chirp is nearly even about its
centre), so points of strong local symmetry mark echo centres.

The machinery, following Gnutti et al. and the paper's Eq. (8)-(10):

* the parity decomposition about a fold point ``n0`` splits ``x`` into
  ``x_e[n; n0] = (x[n] + x[2 n0 - n]) / 2`` and
  ``x_o[n; n0] = (x[n] - x[2 n0 - n]) / 2``;
* the even/odd energies about ``n0`` satisfy
  ``E_e = E/2 + (x * x)[2 n0] / 2`` and ``E_o = E/2 - (x * x)[2 n0] / 2``
  where ``(x * x)`` is the *autoconvolution*, so symmetry candidates
  are exactly the local extrema of the autoconvolution;
* each candidate is validated by the even (or odd) energy ratio of a
  subsequence centred on it, and by a physical prior on the distance
  between the direct signal and the eardrum echo.

:func:`segment_eardrum_echo` segments one event and is the reference;
:func:`segment_eardrum_echoes` segments all of a capture's events at
once and returns the same echoes bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import NoEchoFoundError, SignalProcessingError
from .chirp import SPEED_OF_SOUND
from .resample import upsample

__all__ = [
    "parity_decompose",
    "autoconvolution",
    "parity_energies",
    "SymmetryCandidate",
    "find_symmetry_candidates",
    "EchoSegmenterConfig",
    "segment_eardrum_echo",
    "segment_eardrum_echoes",
    "EardrumEcho",
]


def parity_decompose(signal: np.ndarray, fold: float) -> tuple[np.ndarray, np.ndarray]:
    """Split ``signal`` into even and odd parts about fold point ``fold``.

    ``fold`` may be half-integral (``k/2``), in which case the fold sits
    between samples.  Samples whose mirror ``2*fold - n`` falls outside
    the support are mirrored against zero, matching the finite-support
    convention of the paper.

    Returns ``(even, odd)`` arrays with ``even + odd == signal``.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise SignalProcessingError("parity_decompose requires a non-empty signal")
    two_fold = 2.0 * fold
    if abs(two_fold - round(two_fold)) > 1e-9:
        raise ValueError(f"fold must be a multiple of 0.5, got {fold}")
    mirror_idx = int(round(two_fold)) - np.arange(signal.size)
    mirrored = np.where(
        (mirror_idx >= 0) & (mirror_idx < signal.size),
        signal[np.clip(mirror_idx, 0, signal.size - 1)],
        0.0,
    )
    even = (signal + mirrored) / 2.0
    odd = (signal - mirrored) / 2.0
    return even, odd


def autoconvolution(signal: np.ndarray) -> np.ndarray:
    """Linear autoconvolution ``(x * x)[m]`` of ``signal`` via FFT.

    Output has length ``2 N - 1``; index ``m`` matches the paper's
    ``(x * x)[2 n0]`` so fold candidates live at ``n0 = m / 2``.  A
    stack of equal-length rows is transformed along the last axis, each
    row bit-identical to its own call.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise SignalProcessingError("autoconvolution requires a non-empty signal")
    n = 2 * signal.shape[-1] - 1
    nfft = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(signal, nfft, axis=-1)
    return np.fft.irfft(spec * spec, nfft, axis=-1)[..., :n]


def parity_energies(signal: np.ndarray, fold: float) -> tuple[float, float]:
    """Even and odd energies of ``signal`` about ``fold`` (paper Eq. (10))."""
    even, odd = parity_decompose(signal, fold)
    return float(np.sum(even**2)), float(np.sum(odd**2))


@dataclass(frozen=True)
class SymmetryCandidate:
    """A candidate echo centre found by the symmetry search.

    Attributes
    ----------
    center:
        Fold point in samples (may be half-integral).
    energy_ratio:
        ``max(E_even, E_odd) / E`` of the validation subsequence.
    local_energy:
        Total energy of the validation subsequence, used to rank
        candidates of comparable symmetry.
    """

    center: float
    energy_ratio: float
    local_energy: float


def find_symmetry_candidates(
    signal: np.ndarray,
    *,
    support: int = 24,
    energy_ratio_threshold: float = 0.6,
) -> list[SymmetryCandidate]:
    """Locate all locally symmetric segments of ``signal``.

    Parameters
    ----------
    signal:
        The event waveform (chirp + echoes).
    support:
        Half-length ``ml`` of the validation subsequence around each
        candidate; the paper's "minimum symmetry support".
    energy_ratio_threshold:
        The paper's ``pt`` in (0.5, 1): a candidate survives only if the
        even *or* odd energy fraction of its subsequence exceeds this.

    Returns candidates sorted by descending local energy.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size < 4:
        return []
    if not 0.5 < energy_ratio_threshold < 1.0:
        raise ValueError(
            f"energy_ratio_threshold must be in (0.5, 1), got {energy_ratio_threshold}"
        )
    conv = np.abs(autoconvolution(signal))
    # Local maxima of the autoconvolution magnitude are the fold
    # candidates (both even- and odd-symmetric points).
    interior = np.arange(1, conv.size - 1)
    is_peak = (conv[interior] >= conv[interior - 1]) & (conv[interior] >= conv[interior + 1])
    peak_positions = interior[is_peak]
    candidates: list[SymmetryCandidate] = []
    # Fast evaluation of the parity energy ratio: the validation window
    # is symmetric about the fold, so mirroring about the fold equals
    # reversing the window, and (paper Eq. (10))
    #   E_even = (E + sum(w * reversed(w))) / 2,
    #   E_odd  = (E - sum(w * reversed(w))) / 2,
    # hence max(E_even, E_odd) / E = (E + |sum(w * reversed(w))|) / 2E.
    # The loop below is algebraically identical to calling
    # :func:`parity_energies` on each window (asserted by the tests)
    # but avoids building the decomposition arrays.
    for m in peak_positions:
        center = m / 2.0
        lo = int(np.floor(center)) - support
        hi = int(np.ceil(center)) + support + 1
        if lo < 0 or hi > signal.size:
            continue
        window = signal[lo:hi]
        total = float(window @ window)
        if total <= 0.0:
            continue
        folded = float(window @ window[::-1])
        ratio = (total + abs(folded)) / (2.0 * total)
        if ratio > energy_ratio_threshold:
            candidates.append(SymmetryCandidate(center, ratio, total))
    candidates.sort(key=lambda c: c.local_energy, reverse=True)
    return candidates


@dataclass(frozen=True)
class EchoSegmenterConfig:
    """Physical and algorithmic priors for eardrum-echo extraction.

    Attributes
    ----------
    sample_rate:
        Audio sample rate of the *input* event signal, in Hz.
    upsample_factor:
        Band-limited interpolation factor applied before the symmetry
        search.  At 48 kHz the drum echo trails the direct pulse by
        only ~4-8 samples; the paper's "interpolated signal" resolves
        this — 8x is comfortable.
    min_distance_m / max_distance_m:
        One-way earphone-to-eardrum distance prior (the free canal
        length between earbud tip and drum); the lower bound also
        rejects the half-delay cross-term artifact of the
        autoconvolution.
    support:
        Validation half-window for the symmetry search, in *upsampled*
        samples.
    energy_ratio_threshold:
        The paper's ``pt``.
    segment_half_length:
        Half-length ``N`` of the uniform echo segment cut around the
        selected echo centre, in *upsampled* samples.
    """

    sample_rate: float = 48_000.0
    upsample_factor: int = 8
    min_distance_m: float = 0.016
    max_distance_m: float = 0.034
    support: int = 48
    energy_ratio_threshold: float = 0.6
    segment_half_length: int = 256
    #: "parity" is the paper's fine-grained symmetry segmentation;
    #: "peak" is the naive ablation baseline (centre the segment a
    #: fixed physical offset after the event's energy peak).
    method: str = "parity"

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.upsample_factor < 1:
            raise ValueError(f"upsample_factor must be >= 1, got {self.upsample_factor}")
        if self.method not in ("parity", "peak"):
            raise ValueError(f"method must be 'parity' or 'peak', got {self.method!r}")
        if not 0.0 < self.min_distance_m < self.max_distance_m:
            raise ValueError(
                f"need 0 < min_distance_m < max_distance_m, got "
                f"{self.min_distance_m}, {self.max_distance_m}"
            )
        if self.segment_half_length < 4:
            raise ValueError("segment_half_length must be >= 4")
        if self.support < 1:
            raise ValueError(f"support must be >= 1, got {self.support}")
        if not 0.5 < self.energy_ratio_threshold < 1.0:
            raise ValueError(
                f"energy_ratio_threshold must be in (0.5, 1), got "
                f"{self.energy_ratio_threshold}"
            )

    @property
    def upsampled_rate(self) -> float:
        """Effective sample rate after interpolation, in Hz."""
        return self.sample_rate * self.upsample_factor

    def delay_window_samples(self, speed_of_sound: float = SPEED_OF_SOUND) -> tuple[int, int]:
        """Allowed round-trip delays (upsampled samples) after the direct pulse."""
        lo = int(np.floor(2.0 * self.min_distance_m / speed_of_sound * self.upsampled_rate))
        hi = int(np.ceil(2.0 * self.max_distance_m / speed_of_sound * self.upsampled_rate))
        return lo, hi


@dataclass(frozen=True)
class EardrumEcho:
    """The extracted eardrum echo of one chirp event.

    Attributes
    ----------
    segment:
        Uniform-length waveform cut around the echo centre, at the
        *upsampled* rate ``sample_rate``.
    sample_rate:
        Effective sample rate of ``segment`` in Hz (input rate times
        the segmenter's upsample factor).
    center:
        Echo centre in upsampled samples, relative to the event start.
    direct_center:
        Direct-pulse centre in upsampled samples.
    delay_samples:
        ``center - direct_center`` in upsampled samples.
    energy_ratio:
        Parity energy ratio of the selected candidate.
    """

    segment: np.ndarray
    sample_rate: float
    center: float
    direct_center: float
    delay_samples: float
    energy_ratio: float

    def distance(self, speed_of_sound: float = SPEED_OF_SOUND) -> float:
        """One-way distance implied by the echo delay, in metres."""
        return self.delay_samples / self.sample_rate * speed_of_sound / 2.0


def segment_eardrum_echo(
    event_signal: np.ndarray, config: EchoSegmenterConfig | None = None
) -> EardrumEcho:
    """Extract the eardrum echo from one chirp event.

    Procedure (paper Sec. IV-B3, third step):

    1. band-limit-interpolate the event (the paper's "interpolated
       signal") so the few-sample echo delay becomes resolvable;
    2. find all symmetry candidates;
    3. take the strongest candidate as the direct pulse (the direct
       path always dominates in-ear recordings);
    4. among the remaining candidates, keep those whose delay from the
       direct pulse falls inside the physical eardrum-distance window;
    5. pick the one with the highest local energy (the first-order drum
       echo beats wall reflections and the double bounce), breaking
       ties by parity energy ratio;
    6. cut a uniform segment of ``2 * segment_half_length`` upsampled
       samples centred on it (zero-padded at the borders).

    Raises
    ------
    NoEchoFoundError
        If no candidate satisfies the distance prior.
    """
    config = config or EchoSegmenterConfig()
    event_signal = np.asarray(event_signal, dtype=float)
    if event_signal.size < 4:
        raise NoEchoFoundError("event too short to segment")
    if config.method == "peak":
        return _segment_by_peak(event_signal, config)
    work = upsample(event_signal, config.upsample_factor)
    candidates = find_symmetry_candidates(
        work,
        support=config.support,
        energy_ratio_threshold=config.energy_ratio_threshold,
    )
    if not candidates:
        raise NoEchoFoundError("no symmetric segments found in event")
    direct = candidates[0]
    lo, hi = config.delay_window_samples()
    in_window = [
        c
        for c in candidates[1:]
        if lo <= (c.center - direct.center) <= hi
    ]
    if not in_window:
        raise NoEchoFoundError(
            f"no echo candidate within {lo}-{hi} upsampled samples of the direct pulse"
        )
    best = max(in_window, key=lambda c: (c.local_energy, c.energy_ratio))
    half = config.segment_half_length
    center_idx = int(round(best.center))
    lo_idx = center_idx - half
    hi_idx = center_idx + half
    segment = np.zeros(2 * half)
    src_lo = max(0, lo_idx)
    src_hi = min(work.size, hi_idx)
    segment[src_lo - lo_idx : src_hi - lo_idx] = work[src_lo:src_hi]
    return EardrumEcho(
        segment=segment,
        sample_rate=config.upsampled_rate,
        center=best.center,
        direct_center=direct.center,
        delay_samples=best.center - direct.center,
        energy_ratio=best.energy_ratio,
    )


def _segment_by_peak(event_signal: np.ndarray, config: EchoSegmenterConfig) -> EardrumEcho:
    """Naive segmentation: fixed offset past the event's energy peak.

    The ablation baseline standing in for "no fine-grained
    segmentation" (the paper attributes its accuracy margin over Chan
    et al. to the parity machinery): the direct pulse is taken to be
    the strongest sample and the echo segment is cut a *fixed*
    mid-window delay later, with no symmetry search and no candidate
    validation.
    """
    work = upsample(event_signal, config.upsample_factor)
    if not np.any(work):
        raise NoEchoFoundError("event contains no energy")
    direct_center = float(np.argmax(np.abs(work)))
    lo, hi = config.delay_window_samples()
    delay = (lo + hi) / 2.0
    center = direct_center + delay
    half = config.segment_half_length
    center_idx = int(round(center))
    lo_idx = center_idx - half
    hi_idx = center_idx + half
    segment = np.zeros(2 * half)
    src_lo = max(0, lo_idx)
    src_hi = min(work.size, hi_idx)
    if src_hi <= src_lo:
        raise NoEchoFoundError("peak segment falls outside the event")
    segment[src_lo - lo_idx : src_hi - lo_idx] = work[src_lo:src_hi]
    return EardrumEcho(
        segment=segment,
        sample_rate=config.upsampled_rate,
        center=center,
        direct_center=direct_center,
        delay_samples=delay,
        energy_ratio=0.0,
    )


def segment_eardrum_echoes(
    event_signals: Sequence[np.ndarray], config: EchoSegmenterConfig | None = None
) -> list[EardrumEcho | None]:
    """Extract the eardrum echo of every event of a capture in one call.

    Entry ``i`` is what :func:`segment_eardrum_echo` returns for
    ``event_signals[i]``, bit for bit, or ``None`` where it raises
    :class:`NoEchoFoundError`.  Events of equal length share one
    stacked upsample, one stacked autoconvolution and one peak mask;
    only the peaks are scored, and the selection runs on the padded
    (events x candidates) arrays (see :func:`_segment_stack`).
    ``method="peak"`` runs the per-event baseline on each event.
    """
    config = config or EchoSegmenterConfig()
    signals = [np.asarray(signal, dtype=float) for signal in event_signals]
    echoes: list[EardrumEcho | None] = [None] * len(signals)
    if config.method == "peak":
        for i, signal in enumerate(signals):
            if signal.size < 4:
                continue
            try:
                echoes[i] = _segment_by_peak(signal, config)
            except NoEchoFoundError:
                continue
        return echoes
    lengths = np.array([signal.size for signal in signals], dtype=int)
    for n in np.unique(lengths[lengths >= 4]):
        idx = np.flatnonzero(lengths == n)
        work = upsample(np.stack([signals[i] for i in idx]), config.upsample_factor)
        for i, echo in zip(idx, _segment_stack(work, config)):
            echoes[i] = echo
    return echoes


def _symmetry_scores(
    work: np.ndarray, support: int, energy_ratio_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`find_symmetry_candidates` on every row of ``work`` at once.

    Returns ``(row, m, energy, ratio)`` of the surviving candidates in
    row-major, ascending-``m`` order; the fold point is ``m / 2``.  The
    validation window of autoconvolution index ``m`` is
    ``work[m//2 - support : (m+1)//2 + support + 1]``: its bounds sum to
    ``m``, so the window mirrored about ``m / 2`` is the window
    reversed, ``2 support + 1`` samples wide for even ``m`` and one more
    for odd ``m``.  Each row's energy and fold sum come from a stacked
    ``matmul`` of a ``(1, W)`` by a ``(W, 1)`` operand, which runs the
    same dot loop as the reference's ``window @ window`` and
    ``window @ window[::-1]``, so the scores match it bit for bit.
    """
    length = work.shape[-1]
    conv = np.abs(autoconvolution(work))
    interior = conv[:, 1:-1]
    row, m = np.nonzero((interior >= conv[:, :-2]) & (interior >= conv[:, 2:]))
    m += 1
    start = m // 2 - support
    inside = (start >= 0) & ((m + 1) // 2 + support + 1 <= length)
    row, m, start = row[inside], m[inside], start[inside]
    energy = np.empty(m.size)
    folded = np.empty(m.size)
    for parity in (0, 1):
        pick = np.flatnonzero(m % 2 == parity)
        if pick.size == 0:
            continue
        windows = sliding_window_view(work, 2 * support + 1 + parity, axis=-1)[
            row[pick], start[pick]
        ]
        left = windows[:, None, :]
        energy[pick] = np.matmul(left, windows[:, :, None])[:, 0, 0]
        folded[pick] = np.matmul(left, windows[:, ::-1, None])[:, 0, 0]
    positive = energy > 0.0
    row, m, energy, folded = row[positive], m[positive], energy[positive], folded[positive]
    ratio = (energy + np.abs(folded)) / (2.0 * energy)
    keep = ratio > energy_ratio_threshold
    return row[keep], m[keep], energy[keep], ratio[keep]


def _segment_stack(work: np.ndarray, config: EchoSegmenterConfig) -> list[EardrumEcho | None]:
    """:func:`segment_eardrum_echo`'s selection on every row of ``work``.

    ``work`` holds equal-length upsampled events.  The reference sorts
    candidates stably by descending energy from ascending ``m``, so its
    direct pulse is the first maximal energy in ascending-``m`` order,
    and its echo is the other in-window candidate with the largest
    ``(energy, ratio)``, an exact tie going to the lowest ``m``.
    """
    num_rows = work.shape[0]
    row, m, energy, ratio = _symmetry_scores(
        work, config.support, config.energy_ratio_threshold
    )
    echoes: list[EardrumEcho | None] = [None] * num_rows
    if row.size == 0:
        return echoes
    count = np.bincount(row, minlength=num_rows)
    col = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    # (events x candidates) arrays, each row in ascending-m order.
    shape = (num_rows, int(count.max()))
    energies = np.full(shape, -np.inf)
    energies[row, col] = energy
    ratios = np.full(shape, -np.inf)
    ratios[row, col] = ratio
    centres = np.zeros(shape)
    centres[row, col] = m / 2.0
    valid = np.zeros(shape, dtype=bool)
    valid[row, col] = True

    rows = np.arange(num_rows)
    direct = np.argmax(energies, axis=1)
    delay = centres - centres[rows, direct][:, None]
    lo, hi = config.delay_window_samples()
    window = valid & (lo <= delay) & (delay <= hi)
    # With a small min_distance_m the window starts at 0 and would
    # otherwise admit the direct pulse itself.
    window[rows, direct] = False
    in_window = np.where(window, energies, -np.inf)
    tied = window & (in_window == in_window.max(axis=1, keepdims=True))
    tied_ratios = np.where(tied, ratios, -np.inf)
    tied &= tied_ratios == tied_ratios.max(axis=1, keepdims=True)
    best = np.argmax(tied, axis=1)

    hit = np.flatnonzero(window.any(axis=1))
    # Segments are cut from the rows zero-padded by ``half`` each side.
    half = config.segment_half_length
    padded = np.zeros((hit.size, work.shape[1] + 2 * half))
    padded[:, half:-half] = work[hit]
    for j, r in enumerate(hit):
        echo_centre = centres[r, best[r]]
        direct_centre = centres[r, direct[r]]
        start = int(round(echo_centre))
        echoes[r] = EardrumEcho(
            segment=padded[j, start : start + 2 * half],
            sample_rate=config.upsampled_rate,
            center=float(echo_centre),
            direct_center=float(direct_centre),
            delay_samples=float(echo_centre - direct_centre),
            energy_ratio=float(ratios[r, best[r]]),
        )
    return echoes
