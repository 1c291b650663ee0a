"""Planned chirp-domain kernels: matched filtering and the rake.

The chirp pulse and its FFT depend only on the frozen
:class:`~repro.signal.chirp.ChirpDesign` (plus the FFT size), so both
live in the plan cache; matched filtering a stream then costs one
forward FFT of the stream, one multiply against the cached conjugate
template spectrum, and one inverse FFT — the template is never
re-synthesised or re-transformed.  The rake reads its Gram entries from
the plan's lag table in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..signal.chirp import ChirpDesign
from ..signal.correlation import (
    RAKE_AIC_PENALTY,
    RAKE_CROWDED_GAP,
    RAKE_ENERGY_FLOOR,
    RAKE_EXTRA_ROUNDS,
    RAKE_GAIN_FLOOR,
    RAKE_GAIN_FRACTION,
    RAKE_RIDGE,
    RAKE_RIVALRY,
    RAKE_SPREAD,
    rake_joint_fit,
)
from .plan import chirp_pulse, matched_filter_spectrum, rake_plan

__all__ = [
    "matched_filter_planned",
    "rake_cancel_batched",
]


def matched_filter_planned(signal: np.ndarray, design: ChirpDesign) -> np.ndarray:
    """Matched-filter magnitude of ``signal`` against the cached pulse.

    Bit-identical to the oracle
    :func:`repro.signal.chirp.matched_filter_reference` (same FFT size,
    same roll/slice alignment) but the template synthesis and its FFT
    are plan-cache hits after the first call per ``(design, nfft)``.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("cross_correlate requires non-empty inputs")
    pulse = chirp_pulse(design)
    n = signal.size + pulse.size - 1
    nfft = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(signal, nfft) * matched_filter_spectrum(design, nfft)
    corr = np.roll(np.fft.irfft(spec, nfft), pulse.size - 1)[:n]
    start = pulse.size - 1
    return np.abs(corr[start : start + signal.size])


def rake_cancel_batched(
    segments: Sequence[np.ndarray],
    design: ChirpDesign,
    *,
    protect_from: int,
    threshold: float,
) -> list[tuple[np.ndarray, int]]:
    """Early-reflection cancellation of many chirp events in one call.

    Makes the decisions of
    :func:`repro.signal.correlation.cancel_early_reflections` (the
    oracle) for every segment, but advances every (segment, onset) peel
    in lockstep: each growth round trial-adds every candidate tap of
    every live peel and solves all those trial fits in one stacked
    ``np.linalg.solve``.  No trial touches a segment-length array,
    because every template is a whole shift of one I/Q pair:

    - a trial's Gram entries are lookups in the plan's lag table
      (:class:`~repro.kernels.plan.RakePlan`);
    - its right-hand side is the segment's matched-filter output at the
      trial's onsets;
    - its residual energy is ``s·s - 2θ·b + θᵀGθ``, with ``θ`` from the
      ridge-damped solve and ``G`` undamped;
    - the residual envelope that nominates protected candidates is the
      matched-filter output minus the lag table applied to ``θ``.

    Selection follows the oracle: lowest-energy trial per round (ties to
    the lowest onset), the same stop rule, round cap, rivalry guard and
    threshold, and the lowest AIC score across onsets (ties to the first
    onset).  Before subtracting, the winning attempt's support is re-fit
    with the dense :func:`~repro.signal.correlation.rake_joint_fit`, so
    the taps removed are the oracle's own numbers.

    Returns one ``(cleaned, removed)`` pair per segment, in order; a
    segment with nothing removed is returned as given.
    """
    if protect_from < 1:
        raise ValueError(f"protect_from must be >= 1, got {protect_from}")
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    plan = rake_plan(design)
    pulse, quad = plan.pulse, plan.quad
    n = pulse.size
    segments = [np.asarray(segment, dtype=float) for segment in segments]
    results = [(segment, 0) for segment in segments]
    rows = [i for i, segment in enumerate(segments) if segment.size >= n]
    if not rows:
        return results
    pulse_energy = float(pulse @ pulse)
    ridge = RAKE_RIDGE * pulse_energy
    sizes = np.array([segments[i].size for i in rows])
    last = sizes - n
    # corr[row, s] is design.T @ segment for the I/Q pair placed at s.
    corr = np.zeros((len(rows), int(last.max()) + 1, 2))
    power = np.empty(len(rows))
    peak = np.empty(len(rows), dtype=np.int64)
    for row, i in enumerate(rows):
        segment = segments[i]
        ci = np.correlate(segment, pulse, mode="valid")
        cq = np.correlate(segment, quad, mode="valid")
        corr[row, : ci.size, 0] = ci
        corr[row, : ci.size, 1] = cq
        power[row] = segment @ segment
        peak[row] = np.argmax(ci * ci + cq * cq)
    # The lag table zero-padded so that any onset difference indexes it.
    reach = max(int(last.max()), n - 1)
    table = np.zeros((2 * reach + 1, 2, 2))
    table[reach - n + 1 : reach + n] = plan.lags

    # One peel per (event, onset) within RAKE_SPREAD of the envelope peak.
    onsets = peak[:, None] + np.arange(-RAKE_SPREAD, RAKE_SPREAD + 1)
    event, column = np.nonzero((onsets >= 0) & (onsets <= last[:, None]))
    onset = onsets[event, column]
    support = onset[:, None]
    gram = np.broadcast_to(table[reach], (onset.size, 2, 2)).copy()
    rhs = corr[event, onset]
    theta, energy = _stacked_fit(gram, rhs, support, power[event], ridge)
    peels = _Peels(event, onset, support, gram, rhs, theta, energy)
    peels = peels.take(np.hypot(theta[:, 0], theta[:, 1]) > 0.0)

    settled: list[_Attempts] = []
    for _ in range(protect_from + RAKE_EXTRA_ROUNDS):
        owner, start = _trial_taps(peels, corr, last, table, reach, protect_from)
        if owner.size == 0:
            break
        k = peels.support.shape[1]
        support = np.concatenate([peels.support[owner], start[:, None]], axis=1)
        # Border the accepted support's Gram with the new tap's lag row.
        cross = table[reach + start[:, None] - peels.support[owner]].reshape(
            owner.size, 2 * k, 2
        )
        gram = np.empty((owner.size, 2 * k + 2, 2 * k + 2))
        gram[:, : 2 * k, : 2 * k] = peels.gram[owner]
        gram[:, : 2 * k, 2 * k :] = cross
        gram[:, 2 * k :, : 2 * k] = cross.transpose(0, 2, 1)
        gram[:, 2 * k :, 2 * k :] = table[reach]
        trial_event = peels.event[owner]
        rhs = np.concatenate([peels.rhs[owner], corr[trial_event, start]], axis=1)
        theta, energy = _stacked_fit(gram, rhs, support, power[trial_event], ridge)
        # Each peel's lowest-energy trial; trials are owner-major with
        # ascending onsets, so a stable sort breaks ties to the lowest.
        order = np.lexsort((start, energy, owner))
        best = order[np.flatnonzero(np.diff(owner[order], prepend=-1))]
        winner = np.full(peels.onset.size, -1)
        winner[owner[best]] = best
        grows = winner >= 0
        gain_min = np.maximum(
            RAKE_GAIN_FRACTION * peels.energy, RAKE_GAIN_FLOOR * pulse_energy
        )
        grows[grows] = (
            peels.energy[grows] - energy[winner[grows]] >= gain_min[grows]
        )
        settled.append(
            _settle(peels.take(~grows), sizes, protect_from, threshold, pulse_energy)
        )
        chosen = winner[grows]
        peels = _Peels(
            peels.event[grows],
            peels.onset[grows],
            support[chosen],
            gram[chosen],
            rhs[chosen],
            theta[chosen],
            energy[chosen],
        )
        peels = peels.take(np.hypot(peels.theta[:, 0], peels.theta[:, 1]) > 0.0)
    settled.append(_settle(peels, sizes, protect_from, threshold, pulse_energy))

    # Each event's lowest AIC score wins; ties go to the first onset.
    event = np.concatenate([a.event for a in settled])
    onset = np.concatenate([a.onset for a in settled])
    score = np.concatenate([a.score for a in settled])
    taps = np.concatenate([a.taps for a in settled])
    supports = [row for a in settled for row in a.support]
    order = np.lexsort((onset, score, event))
    for j in order[np.flatnonzero(np.diff(event[order], prepend=-1))]:
        if taps[j]:
            i = rows[event[j]]
            results[i] = _subtract_taps(
                segments[i],
                pulse,
                quad,
                supports[j].tolist(),
                protect_end=int(onset[j]) + protect_from,
                threshold=threshold,
                ridge=ridge,
            )
    return results


@dataclass(frozen=True)
class _Peels:
    """Live onset attempts of a batched rake, all holding ``k`` taps.

    ``support`` lists the accepted onsets in acceptance order (the
    attempt's onset first); ``gram`` is their undamped ``2k x 2k`` Gram
    matrix, ``rhs`` their matched-filter outputs, ``theta`` the damped
    fit and ``energy`` its residual energy.
    """

    event: np.ndarray
    onset: np.ndarray
    support: np.ndarray
    gram: np.ndarray
    rhs: np.ndarray
    theta: np.ndarray
    energy: np.ndarray

    def take(self, index: np.ndarray) -> "_Peels":
        return _Peels(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass(frozen=True)
class _Attempts:
    """Finished onset attempts: AIC score and count of subtractable taps."""

    event: np.ndarray
    onset: np.ndarray
    score: np.ndarray
    taps: np.ndarray
    support: np.ndarray


def _stacked_fit(
    gram: np.ndarray,
    rhs: np.ndarray,
    support: np.ndarray,
    power: np.ndarray,
    ridge: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve every trial's damped normal equations in one call.

    The ridge lands on crowded taps only (any tap but the first within
    ``RAKE_CROWDED_GAP`` samples of another), as in the dense fit.
    Returns the coefficients and the residual energies
    ``power - 2θ·rhs + θᵀ gram θ``.
    """
    gap = np.abs(support[:, :, None] - support[:, None, :])
    crowded = ((gap > 0) & (gap <= RAKE_CROWDED_GAP)).any(axis=2)
    crowded[:, 0] = False
    damped = gram.copy()
    diagonal = np.arange(gram.shape[1])
    damped[:, diagonal, diagonal] += np.repeat(np.where(crowded, ridge, 0.0), 2, axis=1)
    theta = np.linalg.solve(damped, rhs[..., None])[..., 0]
    energy = (
        power
        - 2.0 * np.einsum("ti,ti->t", theta, rhs)
        + np.einsum("ti,ti->t", theta, np.einsum("tij,tj->ti", gram, theta))
    )
    return theta, energy


def _trial_taps(
    peels: _Peels,
    corr: np.ndarray,
    last: np.ndarray,
    table: np.ndarray,
    reach: int,
    protect_from: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(peel, onset)`` of every trial tap this round, peel-major.

    Candidates are the early-reflection window after each peel's onset
    plus every onset within ``RAKE_SPREAD`` of a local maximum of the
    residual envelope at or beyond the protected boundary, minus the
    support.  Positions are relative to each peel's onset, so the
    protected band starts at the same column for every peel.
    """
    count, k = peels.support.shape
    if count == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    limit = last[peels.event] - peels.onset
    span = int(limit.max()) + 1
    rel = np.arange(span)
    candidate = (rel >= 1) & (rel < protect_from) & (rel <= limit[:, None])
    if span > protect_from:
        # Band column j is relative onset protect_from - 1 + j; column 0
        # is only the left neighbour of the first protected onset.
        band = rel[protect_from - 1 :]
        inside = band <= limit[:, None]
        position = peels.onset[:, None] + np.minimum(band, limit[:, None])
        lag = reach + peels.support[:, None, :] - position[:, :, None]
        model = np.einsum(
            "pwjab,pjb->pwa", table[lag], peels.theta.reshape(count, k, 2)
        )
        resid = corr[peels.event[:, None], position] - model
        envelope = resid[..., 0] * resid[..., 0] + resid[..., 1] * resid[..., 1]
        envelope[~inside] = 0.0
        right = np.zeros_like(envelope)
        right[:, :-1] = envelope[:, 1:]
        top = np.zeros_like(inside)
        top[:, 1:] = (
            inside[:, 1:]
            & (envelope[:, 1:] >= envelope[:, :-1])
            & (envelope[:, 1:] >= right[:, 1:])
        )
        near = top.copy()
        for shift in range(1, RAKE_SPREAD + 1):
            near[:, shift:] |= top[:, :-shift]
            near[:, :-shift] |= top[:, shift:]
        candidate[:, protect_from:] |= near[:, 1:] & inside[:, 1:]
    candidate[np.arange(count)[:, None], peels.support - peels.onset[:, None]] = False
    owner, offset = np.nonzero(candidate)
    return owner, peels.onset[owner] + offset


def _settle(
    peels: _Peels,
    sizes: np.ndarray,
    protect_from: int,
    threshold: float,
    pulse_energy: float,
) -> _Attempts:
    """Score finished peels; drop those whose window tap rivals the direct."""
    k = peels.support.shape[1]
    amp = np.hypot(peels.theta[:, 0::2], peels.theta[:, 1::2])
    direct = amp[:, :1]
    window = peels.support < (peels.onset + protect_from)[:, None]
    window[:, 0] = False
    keep = ~(window & (amp > RAKE_RIVALRY * direct)).any(axis=1)
    taps = (window & (amp >= threshold * direct)).sum(axis=1)
    size = sizes[peels.event]
    score = size * np.log(
        np.maximum(peels.energy, RAKE_ENERGY_FLOOR * pulse_energy) / size
    ) + RAKE_AIC_PENALTY * k
    return _Attempts(
        peels.event[keep], peels.onset[keep], score[keep], taps[keep], peels.support[keep]
    )


def _subtract_taps(
    segment: np.ndarray,
    pulse: np.ndarray,
    quad: np.ndarray,
    support: list[int],
    *,
    protect_end: int,
    threshold: float,
    ridge: float,
) -> tuple[np.ndarray, int]:
    """Dense re-fit of a winning support, then subtract its window taps."""
    coef, _ = rake_joint_fit(segment, pulse, quad, support, ridge)
    direct = float(np.hypot(coef[0], coef[1]))
    cleaned = segment.copy()
    removed = 0
    for i, start in enumerate(support[1:], start=1):
        theta = coef[2 * i : 2 * i + 2]
        amp = float(np.hypot(theta[0], theta[1]))
        if start < protect_end and amp >= threshold * direct:
            cleaned[start : start + pulse.size] -= theta[0] * pulse + theta[1] * quad
            removed += 1
    return (cleaned, removed) if removed else (segment, 0)
