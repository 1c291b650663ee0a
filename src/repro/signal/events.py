"""Adaptive energy event detection (paper Sec. IV-B2, Eq. (6)-(7)).

After band-pass filtering, EarSonar segments the stream into per-chirp
"events" (a chirp plus its echoes).  The detector tracks exponentially
smoothed estimates of the windowed signal power mean ``mu(i)`` and
standard deviation ``sigma(i)``; a sample opens an event when its
instantaneous power exceeds ``mu(i) + sigma(i)`` and the event closes
when power falls back below the running average.  The smoothing is
:func:`~repro.signal.filters.first_order_iir`, numpy's own blocked form
of the one-pole recursion, so detection needs no ``scipy.signal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidWaveformError, SignalProcessingError
from .filters import first_order_iir

__all__ = [
    "Event",
    "EventDetectorConfig",
    "detect_events",
    "detect_events_reference",
    "sliding_power",
]


@dataclass(frozen=True)
class Event:
    """A detected acoustic event: ``[start, end)`` sample indices."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid event bounds [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Number of samples covered by the event."""
        return self.end - self.start

    def slice(self, signal: np.ndarray) -> np.ndarray:
        """Extract the event's samples from ``signal``."""
        return np.asarray(signal)[self.start : self.end]


@dataclass(frozen=True)
class EventDetectorConfig:
    """Tuning knobs for :func:`detect_events`.

    Attributes
    ----------
    window:
        Sliding-window length ``W`` in samples for the power statistics.
    min_event_length:
        Events shorter than this many samples are discarded as glitches.
    max_event_length:
        Events are force-closed after this many samples (one chirp
        interval by default at the paper's parameters).
    threshold_scale:
        Multiplier on ``sigma`` in the opening condition
        ``|x|^2 > mu + threshold_scale * sigma``; the paper uses 1.
    hangover:
        Number of consecutive sub-threshold samples required before an
        open event is closed, which keeps multi-lobed echo packets in a
        single event.
    """

    window: int = 48
    min_event_length: int = 12
    max_event_length: int = 480
    threshold_scale: float = 1.0
    hangover: int = 24

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_event_length < 1:
            raise ValueError(f"min_event_length must be >= 1, got {self.min_event_length}")
        if self.max_event_length < self.min_event_length:
            raise ValueError("max_event_length must be >= min_event_length")
        if self.threshold_scale <= 0:
            raise ValueError(f"threshold_scale must be positive, got {self.threshold_scale}")
        if self.hangover < 0:
            raise ValueError(f"hangover must be >= 0, got {self.hangover}")


def sliding_power(signal: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Running mean and standard deviation of instantaneous power.

    Implements the exponential recursion of paper Eq. (6): each step
    blends the windowed statistics ``A(i)`` (mean power, Eq. (7)) and
    ``B(i)`` (power standard deviation) into running estimates with
    weight ``1/W``.

    Returns ``(mu, sigma)`` arrays with one entry per input sample.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise SignalProcessingError("sliding_power requires a non-empty signal")
    n = signal.size
    w = int(window)
    # Windowed mean A(i) and std B(i) over a trailing window, read from
    # cumulative sums.  Every step writes in place into one of three
    # buffers, and each buffer is dropped as soon as its last reader is
    # done, so that the smoothing's outputs reuse it: glibc returns freed
    # arrays of this size to the OS when a call ends, and every array
    # allocated fresh faults its pages in again on the next call.
    counts = np.arange(1, min(w, n) + 1)
    power = np.square(signal)
    csum = np.empty(n + 1)
    csum[0] = 0.0
    np.cumsum(power, out=csum[1:])
    a = _windowed_mean(csum, counts, w, out=np.empty(n))
    np.square(power, out=power)
    np.cumsum(power, out=csum[1:])
    var = _windowed_mean(csum, counts, w, out=power)
    var -= np.square(a, out=csum[1:])
    del csum
    np.maximum(0.0, var, out=var)
    b = np.sqrt(var, out=var)
    # Exponential blending, Eq. (6): a first-order linear recursion
    # mu(i) = alpha * A(i) + (1 - alpha) * mu(i-1), seeded with A(0).
    alpha = 1.0 / w
    mu = first_order_iir(a, alpha, 1.0 - alpha, initial=float(a[0]))
    del a
    sigma = first_order_iir(b, alpha, 1.0 - alpha, initial=float(b[0]))
    return mu, sigma


def _windowed_mean(
    csum: np.ndarray, counts: np.ndarray, w: int, *, out: np.ndarray
) -> np.ndarray:
    """Mean of each trailing window of ``w`` samples, from cumulative sums.

    ``csum`` holds ``0`` then the running sum; window ``i`` covers the
    ``min(i + 1, w)`` samples ending at ``i``, so the first ``counts.size``
    windows grow from sample 0 and the rest slide.  Slices of ``csum``
    give the same bits as gathering ``csum[i + 1] - csum[max(0, i - w + 1)]``:
    the growing windows skip subtracting ``csum[0] = 0``, which changes
    no value.
    """
    m = counts.size
    np.divide(csum[1 : m + 1], counts, out=out[:m])
    np.subtract(csum[m + 1 :], csum[1 : csum.size - m], out=out[m:])
    out[m:] /= w
    return out


def detect_events(
    signal: np.ndarray, config: EventDetectorConfig | None = None
) -> list[Event]:
    """Detect chirp/echo events in a band-passed signal.

    Opening condition (paper): ``|X(i)|^2 > mu(i) + k * sigma(i)``,
    additionally gated on exceeding the global average power so that
    noise-only stretches (where the local statistics are noise-scale
    and would trigger constantly) stay quiet — chirp events dominate
    the global average, noise sits below it.
    Closing condition: power stays below the global average power
    ``mu_bar`` for ``hangover`` consecutive samples, or the event
    reaches ``max_event_length``.

    Returns what :func:`detect_events_reference` returns, found by
    event instead of by sample.  An event opens only above the global
    mean, so no below-mean run contains its start.  It closes at the
    ``hangover``-th sample of the first below-mean run after its start
    that is at least that long (``hangover = 0`` closes like 1), else
    after ``max_event_length`` samples, else at the end of the signal.
    One ``searchsorted`` finds every opening sample's close and another
    the next opening sample past each close, so Python steps only from
    event to event.
    """
    config = config or EventDetectorConfig()
    signal = _checked(signal)
    mu, sigma = sliding_power(signal, config.window)
    # The same IEEE operations as ``mu + k * sigma``, in sigma's buffer;
    # clearing the larger of it and the global mean clears both.  As in
    # sliding_power, ``power`` takes the buffer ``mu`` frees.
    threshold = sigma
    threshold *= config.threshold_scale
    threshold += mu
    del mu
    power = np.square(signal)
    global_mean = float(np.mean(power))
    np.maximum(threshold, global_mean, out=threshold)
    openers = np.flatnonzero(power > threshold)
    if openers.size == 0:
        return []
    n = signal.size
    hangover = max(config.hangover, 1)
    # Below-mean runs as [start, end) pairs: the mask's changes,
    # framed by False on both sides, alternate run start and run end.
    edges = np.flatnonzero(np.diff(power < global_mean, prepend=False, append=False))
    run_starts, run_ends = edges[0::2], edges[1::2]
    closers = run_starts[run_ends - run_starts >= hangover] + (hangover - 1)
    closers = np.append(closers, n)
    ends = np.minimum(
        closers[np.searchsorted(closers, openers, side="right")],
        openers + config.max_event_length,
    )
    # Like the per-sample walk, the search resumes one sample past each close.
    successor = np.searchsorted(openers, ends + 1).tolist()
    chain = []
    k = 0
    while k < len(successor):
        chain.append(k)
        k = successor[k]
    starts, stops = openers[chain], ends[chain]
    kept = stops - starts >= config.min_event_length
    return [Event(s, e) for s, e in zip(starts[kept].tolist(), stops[kept].tolist())]


def detect_events_reference(
    signal: np.ndarray, config: EventDetectorConfig | None = None
) -> list[Event]:
    """Per-sample oracle of :func:`detect_events`: the same events, bit for bit.

    Walks every sample: an opening sample starts an event, which then
    counts consecutive below-mean samples until ``hangover`` of them
    (or ``max_event_length`` samples, or the end of the signal) close
    it, and the walk resumes one sample past the close.
    """
    config = config or EventDetectorConfig()
    signal = _checked(signal)
    power = signal**2
    mu, sigma = sliding_power(signal, config.window)
    global_mean = float(np.mean(power))
    open_mask = (power > mu + config.threshold_scale * sigma) & (power > global_mean)
    below_mask = power < global_mean

    events: list[Event] = []
    i = 0
    n = signal.size
    while i < n:
        if not open_mask[i]:
            i += 1
            continue
        start = i
        quiet = 0
        j = i + 1
        while j < n:
            if j - start >= config.max_event_length:
                break
            if below_mask[j]:
                quiet += 1
                if quiet >= config.hangover:
                    break
            else:
                quiet = 0
            j += 1
        end = min(j, n)
        if end - start >= config.min_event_length:
            events.append(Event(start, end))
        i = end + 1
    return events


def _checked(signal: np.ndarray) -> np.ndarray:
    """``signal`` as floats, refused when empty or not finite."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise SignalProcessingError("detect_events requires a non-empty signal")
    if not np.isfinite(signal).all():
        # NaN comparisons are silently False, so a poisoned stream would
        # otherwise yield "no events" instead of a diagnosable failure.
        raise InvalidWaveformError("detect_events requires a finite signal")
    return signal
