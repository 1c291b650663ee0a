"""Correlation utilities for echo comparison (paper Sec. III, IV-B).

EarSonar uses correlation coefficients both to separate echoes from
different in-ear reflectors and to quantify session-to-session PSD
consistency (Fig. 9).  These helpers provide Pearson correlation, a
pairwise session correlation matrix, and the rake that cancels early
reflections.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pearson",
    "correlation_matrix",
    "correlation_matrix_reference",
    "quadrature_pulse",
    "rake_onset",
    "rake_joint_fit",
    "cancel_early_reflections",
]

# Rake constants, shared with the batched kernel
# (:func:`repro.kernels.chirp.rake_cancel_batched`) so both paths make
# the same decisions.

#: Ridge on crowded taps, as a fraction of the pulse energy.
RAKE_RIDGE = 0.05
#: Two taps at most this many samples apart are "crowded".
RAKE_CROWDED_GAP = 2
#: A new tap must explain this fraction of the remaining energy...
RAKE_GAIN_FRACTION = 0.05
#: ...and at least this fraction of the pulse energy.
RAKE_GAIN_FLOOR = 1e-12
#: Growth rounds beyond ``protect_from``.
RAKE_EXTRA_ROUNDS = 4
#: A window tap above this fraction of the direct amplitude discards
#: its onset attempt (it relabelled the direct pulse as a tap).
RAKE_RIVALRY = 0.9
#: AIC penalty per support tap.
RAKE_AIC_PENALTY = 8.0
#: Residual-energy floor of the AIC score, as a fraction of the pulse
#: energy.
RAKE_ENERGY_FLOOR = 1e-15
#: Onset attempts span the envelope peak ± this many samples; each
#: protected envelope peak also nominates its neighbours this far out.
RAKE_SPREAD = 2


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("pearson requires at least two samples")
    a_c = a - a.mean()
    b_c = b - b.mean()
    denom = np.sqrt(np.sum(a_c**2) * np.sum(b_c**2))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.sum(a_c * b_c) / denom, -1.0, 1.0))


def correlation_matrix(curves: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlation matrix of spectral curves.

    ``curves`` has shape ``(num_sessions, num_bins)``; the result is
    ``(num_sessions, num_sessions)`` symmetric with a unit diagonal.
    Used to reproduce the Fig. 9 consistency analysis.

    One broadcasted Gram-matrix computation replaces the O(n^2) Python
    pair loop; rows with zero variance correlate to 0 and the upper
    triangle is mirrored so the matrix is exactly symmetric, matching
    :func:`correlation_matrix_reference` to <= 1e-10.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2:
        raise ValueError(f"curves must be 2-D, got shape {curves.shape}")
    n = curves.shape[0]
    if n < 2:
        return np.eye(n)
    if curves.shape[1] < 2:
        raise ValueError("pearson requires at least two samples")
    centered = curves - curves.mean(axis=1, keepdims=True)
    sum_sq = np.einsum("ij,ij->i", centered, centered)
    gram = centered @ centered.T
    denom = np.sqrt(np.outer(sum_sq, sum_sq))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0.0, gram / np.where(denom > 0.0, denom, 1.0), 0.0)
    corr = np.clip(corr, -1.0, 1.0)
    upper = np.triu_indices(n, k=1)
    out = np.eye(n)
    out[upper] = corr[upper]
    out.T[upper] = corr[upper]
    return out


def quadrature_pulse(pulse: np.ndarray) -> np.ndarray:
    """90-degree phase-shifted copy of ``pulse`` (discrete Hilbert pair).

    Together the pulse and its quadrature span every carrier phase of
    the template, so a rake fit against both columns captures echoes
    whose carrier phase is arbitrary — exactly the incoherent-sum model
    the simulator uses for tissue and reverb reflections.
    """
    pulse = np.asarray(pulse, dtype=float)
    if pulse.size < 2:
        raise ValueError("quadrature_pulse requires at least two samples")
    spectrum = np.fft.fft(pulse)
    half = np.zeros(pulse.size)
    half[1 : (pulse.size + 1) // 2] = 2.0
    if pulse.size % 2 == 0:
        half[pulse.size // 2] = 1.0
    half[0] = 1.0
    analytic = np.fft.ifft(spectrum * half)
    return np.ascontiguousarray(np.imag(analytic))


def rake_onset(segment: np.ndarray, pulse: np.ndarray, quad: np.ndarray) -> int:
    """Index of the direct pulse's onset within ``segment``.

    Phase-insensitive matched filtering: the squared envelope is the sum
    of the in-phase and quadrature correlations squared, so an echo with
    any carrier phase peaks at its true onset.
    """
    segment = np.asarray(segment, dtype=float)
    if segment.size < pulse.size:
        return 0
    ci = np.correlate(segment, pulse, mode="valid")
    cq = np.correlate(segment, quad, mode="valid")
    return int(np.argmax(ci * ci + cq * cq))


def rake_joint_fit(
    segment: np.ndarray,
    pulse: np.ndarray,
    quad: np.ndarray,
    support: list[int],
    ridge: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense joint least-squares fit of I/Q templates at ``support`` onsets.

    Builds the ``segment x 2k`` design (pulse and quadrature placed at
    each onset), adds ``ridge`` to the diagonal of every *crowded* tap
    (any tap but the first within :data:`RAKE_CROWDED_GAP` samples of
    another) and solves the normal equations.  Returns the
    coefficients, interleaved ``[I0, Q0, I1, Q1, ...]`` in ``support``
    order, and the residual ``segment - design @ coef``.
    """
    n = pulse.size
    design = np.zeros((segment.size, 2 * len(support)))
    for i, start in enumerate(support):
        design[start : start + n, 2 * i] = pulse
        design[start : start + n, 2 * i + 1] = quad
    gram = design.T @ design
    damping = np.zeros(2 * len(support))
    for i, start in enumerate(support[1:], start=1):
        crowded = any(
            0 < abs(start - other) <= RAKE_CROWDED_GAP
            for j, other in enumerate(support)
            if j != i
        )
        if crowded:
            damping[2 * i : 2 * i + 2] = ridge
    coef = np.linalg.solve(gram + np.diag(damping), design.T @ segment)
    return coef, segment - design @ coef


def cancel_early_reflections(
    segment: np.ndarray,
    pulse: np.ndarray,
    quad: np.ndarray,
    *,
    protect_from: int,
    threshold: float,
) -> tuple[np.ndarray, int]:
    """Estimate and subtract early reflections from one chirp event.

    Orthogonal least squares: the direct pulse is located by
    matched-filter envelope peak, then a support of component onsets is
    grown greedily — each round every candidate position is trial-added
    and the one that most reduces the *joint* least-squares residual
    joins the support.  The shifted chirp templates are highly coherent
    (a reflection a few samples late correlates strongly with the
    direct pulse), which defeats correlation-picked pursuit; comparing
    joint-fit residuals instead lets the solver tell a true component
    from its neighbours' side-lobes.  Growth stops when the best
    candidate no longer explains a real fraction of the remaining
    energy, and competing onset alignments are compared by an
    AIC-penalised score so extra parameters cannot win by absorbing
    noise.  Only taps at ``threshold`` times the direct pulse's
    amplitude or more are subtracted.

    Candidates cover the early-reflection window ``[1, protect_from)``
    plus the neighbourhoods of envelope peaks at or beyond
    ``protect_from``, so the eardrum echo and other protected content
    is *modelled* — keeping its side-lobes from being misattributed to
    the window — but only window taps are subtracted from the returned
    segment.  The diagnostic drum echo always survives.  A clean
    anechoic event yields no accepted candidates and is returned
    untouched, and sub-threshold window components are never
    subtracted, so estimation noise stays out of the output.

    This is the oracle of the batched
    :func:`repro.kernels.chirp.rake_cancel_batched`, which the pipeline
    runs.  Returns the cleaned segment (a copy unless something was
    subtracted) and the number of reflections removed.
    """
    segment = np.asarray(segment, dtype=float)
    if protect_from < 1:
        raise ValueError(f"protect_from must be >= 1, got {protect_from}")
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    n = pulse.size
    pulse_energy = float(pulse @ pulse)
    last_start = segment.size - n
    # A reflection a sample or two from another component is nearly
    # parallel to it, so the joint Gram is ill-conditioned there and
    # measurement noise rides its near-null direction into huge tap
    # coefficients.  A small ridge on exactly those crowded taps (never
    # the direct, never a well-separated tap) damps the runaway
    # direction while leaving identifiable components unbiased.
    ridge = RAKE_RIDGE * pulse_energy

    def protected_candidates(residual: np.ndarray, protect_end: int) -> set[int]:
        # Neighbourhoods of residual envelope local maxima at or beyond
        # the protected boundary: where drum echoes and late multipath
        # live.  The envelope argmax wanders a sample or two, so each
        # peak contributes its neighbours as well.
        if residual.size < n:
            return set()
        ci = np.correlate(residual, pulse, mode="valid")
        cq = np.correlate(residual, quad, mode="valid")
        envelope = ci * ci + cq * cq
        out: set[int] = set()
        for start in range(protect_end, envelope.size):
            left = envelope[start - 1] if start > 0 else 0.0
            right = envelope[start + 1] if start + 1 < envelope.size else 0.0
            if envelope[start] >= left and envelope[start] >= right:
                out.update(
                    s
                    for s in range(start - RAKE_SPREAD, start + RAKE_SPREAD + 1)
                    if protect_end <= s <= last_start
                )
        return out

    def peel(
        onset: int,
    ) -> tuple[float, float, list[tuple[int, np.ndarray]]] | None:
        if onset > last_start:
            return None
        protect_end = onset + protect_from
        support = [onset]
        coef, residual = rake_joint_fit(segment, pulse, quad, support, ridge)
        direct = float(np.hypot(coef[0], coef[1]))
        if direct <= 0.0:
            return None
        energy = float(residual @ residual)
        for _ in range(protect_from + RAKE_EXTRA_ROUNDS):
            # A component worth modelling explains a real fraction of
            # what is left; smaller reductions are noise-chasing.  (The
            # amplitude threshold below decides subtractability — this
            # gate only stops the support growing into the noise.)
            gain_min = max(
                RAKE_GAIN_FRACTION * energy, RAKE_GAIN_FLOOR * pulse_energy
            )
            candidates = {
                s for s in range(onset + 1, protect_end) if s <= last_start
            }
            candidates |= protected_candidates(residual, protect_end)
            candidates -= set(support)
            best = None
            for start in sorted(candidates):
                trial_coef, trial_residual = rake_joint_fit(
                    segment, pulse, quad, support + [start], ridge
                )
                trial_energy = float(trial_residual @ trial_residual)
                if best is None or trial_energy < best[0]:
                    best = (trial_energy, start, trial_coef, trial_residual)
            if best is None or energy - best[0] < gain_min:
                break
            energy, _, coef, residual = best
            support.append(best[1])
            direct = float(np.hypot(coef[0], coef[1]))
            if direct <= 0.0:
                return None
        taps: list[tuple[int, np.ndarray]] = []
        for i, start in enumerate(support[1:], start=1):
            theta = coef[2 * i : 2 * i + 2]
            amp = float(np.hypot(theta[0], theta[1]))
            if start < protect_end:
                if amp > RAKE_RIVALRY * direct:
                    # A "reflection" rivalling the direct pulse means
                    # this alignment relabelled the direct as a tap;
                    # subtracting it would delete the signal itself.
                    return None
                if amp >= threshold * direct:
                    taps.append((start, theta[0] * pulse + theta[1] * quad))
        # AIC-style score: every extra component absorbs a couple of
        # noise degrees of freedom, so raw residual energy always
        # prefers the attempt with the most parameters.  Without the
        # penalty a misaligned attempt with spurious taps beats the
        # honest no-tap fit on every noisy clean segment.
        score = segment.size * np.log(
            max(energy, RAKE_ENERGY_FLOOR * pulse_energy) / segment.size
        ) + RAKE_AIC_PENALTY * len(support)
        return float(score), direct, taps

    # The matched-filter envelope of a short pulse is broad, so under
    # multipath its argmax wanders a sample or two either way, and a
    # misaligned direct fit swallows the very reflections the rake is
    # after.  Peel at each candidate onset around the peak and keep the
    # alignment whose model explains the event best.  (Alignments that
    # re-label the direct pulse as their own "reflection" are discarded
    # by the rivalry guard above, so min-residual is safe.)
    peak = rake_onset(segment, pulse, quad)
    attempts = [
        attempt
        for onset in range(max(0, peak - RAKE_SPREAD), peak + RAKE_SPREAD + 1)
        if (attempt := peel(onset)) is not None
    ]
    if not attempts:
        return segment, 0
    best = min(attempts, key=lambda a: a[0])
    if not best[2]:
        return segment, 0
    cleaned = segment.copy()
    for start, component in best[2]:
        cleaned[start : start + n] -= component
    return cleaned, len(best[2])


def correlation_matrix_reference(curves: np.ndarray) -> np.ndarray:
    """Serial pairwise-loop correlation matrix: the correctness oracle.

    Calls :func:`pearson` on every pair exactly as the pre-kernel
    implementation did; prefer :func:`correlation_matrix` in hot paths.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2:
        raise ValueError(f"curves must be 2-D, got shape {curves.shape}")
    n = curves.shape[0]
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = pearson(curves[i], curves[j])
    return out
