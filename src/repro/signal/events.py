"""Adaptive energy event detection (paper Sec. IV-B2, Eq. (6)-(7)).

After band-pass filtering, EarSonar segments the stream into per-chirp
"events" (a chirp plus its echoes).  The detector tracks exponentially
smoothed estimates of the windowed signal power mean ``mu(i)`` and
standard deviation ``sigma(i)``; a sample opens an event when its
instantaneous power exceeds ``mu(i) + sigma(i)`` and the event closes
when power falls back below the running average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter, lfiltic

from ..errors import InvalidWaveformError, SignalProcessingError

__all__ = ["Event", "EventDetectorConfig", "detect_events", "sliding_power"]


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
    power = signal**2
    w = int(window)
    # Windowed mean A(i) and std B(i) over a trailing window, computed
    # with cumulative sums so the whole pass stays vectorised.
    csum = np.concatenate([[0.0], np.cumsum(power)])
    csum2 = np.concatenate([[0.0], np.cumsum(power**2)])
    idx = np.arange(signal.size)
    lo = np.maximum(0, idx - w + 1)
    counts = idx - lo + 1
    a = (csum[idx + 1] - csum[lo]) / counts
    var = np.maximum(0.0, (csum2[idx + 1] - csum2[lo]) / counts - a**2)
    b = np.sqrt(var)
    # Exponential blending, Eq. (6): a first-order linear recursion
    # mu(i) = alpha * A(i) + (1 - alpha) * mu(i-1), seeded with A(0).
    alpha = 1.0 / w
    mu = _first_order_smooth(a, alpha, seed=float(a[0]))
    sigma = _first_order_smooth(b, alpha, seed=float(b[0]))
    return mu, sigma


def _first_order_smooth(values: np.ndarray, alpha: float, *, seed: float) -> np.ndarray:
    """Evaluate ``y[i] = alpha x[i] + (1 - alpha) y[i-1]`` with ``y[-1] = seed``.

    The recursion is exactly a first-order IIR filter, so
    ``scipy.signal.lfilter`` evaluates it.
    """
    zi = lfiltic([alpha], [1.0, -(1.0 - alpha)], y=[seed])
    smoothed, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], values, zi=zi)
    return smoothed


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
    """
    config = config or EventDetectorConfig()
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise SignalProcessingError("detect_events requires a non-empty signal")
    if not np.isfinite(signal).all():
        # NaN comparisons are silently False, so a poisoned stream would
        # otherwise yield "no events" instead of a diagnosable failure.
        raise InvalidWaveformError("detect_events requires a finite signal")
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
