"""Vectorized chirp-train synthesis through a multipath channel.

The serial simulator (`repro.simulation.session._synthesize_train_reference`)
renders a session chirp by chirp: for every one of the ``K`` chirps it
rebuilds every path's jittered :class:`PropagationPath`, re-evaluates
each path's frequency response, forms the channel transfer function,
and pays a full FFT round trip — ``K`` serial FFTs and ``K x P``
transfer rebuilds for a ``K``-chirp, ``P``-path session.  That loop is
the hot core under every experiment table.

This kernel folds the per-chirp perturbations (echo-delay jitter and
the low-discrepancy phase schedule) into a single complex transfer
matrix ``H`` of shape ``(K, nfft//2 + 1)``, multiplies it by the cached
pulse spectrum, and runs **one** 2-D inverse FFT followed by a
vectorized overlap-add.  Path responses are evaluated once per session
instead of once per chirp.

Equivalence contract (enforced by ``tests/kernels``): the kernel
consumes the ``rng`` stream in exactly the serial order (echo-phase
offsets first, then jitters chirp-major) and reproduces the serial
arithmetic operation-for-operation, so the output is bit-identical
whenever every chirp shares one FFT size, and ``<= 1e-10`` otherwise
(chirps are grouped by their serial per-chirp FFT size, which jitter
can in principle straddle).
"""

from __future__ import annotations

import numpy as np

from ..acoustics.propagation import MultipathChannel
from ..signal.chirp import ChirpDesign
from ..simulation.earphone import EarphoneModel
from .plan import chirp_pulse, chirp_spectrum, device_transfer, rfft_freqs

__all__ = ["synthesize_train", "apply_device_planned"]

#: Golden-ratio-family strides of the per-chirp echo-phase schedule;
#: must match the serial reference in ``repro.simulation.session``.
PHASE_STRIDES = (0.6180339887498949, 0.41421356237309515, 0.7320508075688772, 0.23606797749978969)


def synthesize_train(
    channel: MultipathChannel,
    design: ChirpDesign,
    num_chirps: int,
    path_jitter_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render ``num_chirps`` chirps through ``channel`` in one batch.

    Parameters mirror the serial loop: the direct path is unjittered
    and keeps its designed phase; every other path gets a fresh delay
    jitter per chirp and a stratified pseudo-random carrier phase.
    ``rng`` is consumed in the serial draw order so seeded studies are
    reproducible across the two implementations.
    """
    fs = design.sample_rate
    pulse = chirp_pulse(design)
    hop = design.samples_per_interval
    total = num_chirps * hop
    out = np.zeros(total + hop)
    paths = channel.paths
    if not paths:
        return out[:total]

    num_paths = len(paths)
    direct = np.array([p.label == "direct" for p in paths])
    echo_idx = np.flatnonzero(~direct)

    # RNG draw order matches the serial loop exactly: one uniform offset
    # per path first, then (chirp-major) one normal jitter per echo path.
    offsets = rng.uniform(0.0, 1.0, size=num_paths)
    if path_jitter_s > 0 and echo_idx.size:
        jitter = rng.normal(0.0, path_jitter_s, size=(num_chirps, echo_idx.size))
    else:
        jitter = np.zeros((num_chirps, echo_idx.size))

    # Per-chirp path delays (K, P) and carrier phases (K, P).
    base_delays = np.array([p.delay_s for p in paths])
    delays = np.broadcast_to(base_delays, (num_chirps, num_paths)).copy()
    if echo_idx.size:
        delays[:, echo_idx] = np.maximum(0.0, base_delays[echo_idx] + jitter)
    phases = np.broadcast_to(
        np.array([p.phase for p in paths]), (num_chirps, num_paths)
    ).copy()
    if echo_idx.size:
        k = np.arange(num_chirps, dtype=float)[:, None]
        strides = np.array([PHASE_STRIDES[j % len(PHASE_STRIDES)] for j in echo_idx])
        fractions = (k * strides + offsets[echo_idx]) % 1.0
        phases[:, echo_idx] = 2.0 * np.pi * fractions

    # The serial loop sizes each chirp's FFT from that chirp's largest
    # jittered delay; group chirps sharing a pad so each group repeats
    # the serial arithmetic exactly (one group in practice — the jitter
    # is microseconds).
    longest_delay = delays.max(axis=1)
    pads = (np.ceil(longest_delay * fs).astype(int) + 1).astype(int)
    for pad in np.unique(pads):
        rows = np.flatnonzero(pads == pad)
        n = pulse.size + int(pad)
        nfft = 1 << (max(n, 2) - 1).bit_length()
        transfer = _transfer_matrix(
            channel, delays[rows], phases[rows], nfft, fs
        )
        echoed = np.fft.irfft(chirp_spectrum(design, nfft) * transfer, nfft, axis=-1)[:, :n]
        _overlap_add(out, echoed, rows * hop)
    return out[:total]


def _transfer_matrix(
    channel: MultipathChannel,
    delays: np.ndarray,
    phases: np.ndarray,
    nfft: int,
    sample_rate: float,
) -> np.ndarray:
    """Stacked channel transfer functions ``(num_chirps, nfft//2 + 1)``.

    Accumulates paths in list order with the same elementwise
    expression as ``MultipathChannel.transfer_function`` so each row is
    bit-identical to the serial per-chirp rebuild; responses are
    evaluated once per path instead of once per (chirp, path).
    """
    freqs = rfft_freqs(nfft, sample_rate)
    coeff = -2j * np.pi * freqs
    h = np.zeros((delays.shape[0], freqs.size), dtype=complex)
    for j, path in enumerate(channel.paths):
        phase = np.exp(coeff[None, :] * delays[:, j, None] + 1j * phases[:, j, None])
        shaped = path.gain * phase
        if path.response is not None:
            shaped = shaped * np.asarray(path.response(freqs), dtype=complex)[None, :]
        h += shaped
    return h


def _overlap_add(out: np.ndarray, echoed: np.ndarray, starts: np.ndarray) -> None:
    """Accumulate each ``echoed`` row into ``out`` at its start sample.

    When rows cannot collide (echo shorter than the chirp hop, the
    overwhelmingly common case) the add is a strided slice assignment;
    otherwise a masked ``np.add.at`` preserves the serial accumulation
    order (chirp-major) for reproducibility.
    """
    n = echoed.shape[1]
    if starts.size == 0:
        return
    hop = int(starts[1] - starts[0]) if starts.size > 1 else n
    contiguous = starts.size > 1 and np.all(np.diff(starts) == hop)
    if contiguous and n <= hop and starts[0] + starts.size * hop <= out.size:
        view = out[starts[0] : starts[0] + starts.size * hop].reshape(starts.size, hop)
        view[:, :n] += echoed
        return
    idx = starts[:, None] + np.arange(n)[None, :]
    valid = idx < out.size
    np.add.at(out, idx[valid], echoed[valid])


def apply_device_planned(
    waveform: np.ndarray, earphone: EarphoneModel, sample_rate: float
) -> np.ndarray:
    """Colour ``waveform`` with the earphone's cached transfer curve.

    Same FFT round trip as the serial ``_apply_device`` but the
    device's transfer function on the ``nfft`` grid is a plan-cache hit
    after the first session per ``(earphone, length, rate)``.
    """
    waveform = np.asarray(waveform, dtype=float)
    nfft = 1 << (max(waveform.size, 2) - 1).bit_length()
    transfer = device_transfer(earphone, nfft, float(sample_rate))
    spectrum = np.fft.rfft(waveform, nfft)
    coloured = np.fft.irfft(spectrum * transfer, nfft)
    return coloured[: waveform.size]
