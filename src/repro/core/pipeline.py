"""The EarSonar signal pipeline (paper Sec. IV, Fig. 5).

``EarSonarPipeline`` implements the three signal stages:

1. **Signal preprocessing** — Butterworth band-pass, adaptive energy
   event detection, parity-decomposition echo segmentation;
2. **Acoustic absorption analysis** — per-echo FFT, deconvolution by
   the known transmitted chirp (removing the probe's own spectral
   envelope so the absorption dip stands out), averaging over chirps
   onto a uniform band grid;
3. **Feature extraction** — the 105-element vector of curve bins,
   statistics, and MFCCs.

The pipeline is stateless with respect to recordings; all state is the
immutable configuration plus cached filter/template designs.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import InvalidWaveformError, NoEchoFoundError, SignalProcessingError
from ..features.vector import FeatureVectorBuilder
from ..kernels.chirp import rake_cancel_batched
from ..kernels.plan import band_zoom_plan
from ..kernels.spectral import band_zoom_amplitude
from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from ..signal.chirp import linear_chirp
from ..signal.events import Event, detect_events
from ..signal.filters import butterworth_bandpass
from ..signal.parity import EardrumEcho, segment_eardrum_echoes
from ..signal.resample import upsample
from ..signal.spectral import amplitude_spectrum
from ..simulation.hardware import StageLatencies
from ..simulation.session import Recording
from .config import EarSonarConfig
from .results import ProcessedRecording

__all__ = ["EarSonarPipeline"]


class EarSonarPipeline:
    """End-to-end signal processing from raw waveform to feature vector."""

    def __init__(self, config: EarSonarConfig | None = None) -> None:
        self.config = config or EarSonarConfig()
        cfg = self.config
        self._bandpass = butterworth_bandpass(
            cfg.bandpass.order,
            cfg.bandpass.low_hz,
            cfg.bandpass.high_hz,
            cfg.chirp.sample_rate,
        )
        self._builder = FeatureVectorBuilder(cfg.features)
        self._grid = cfg.features.frequency_grid()
        self._nfft = 8192
        self._tx_reference = self._reference_spectrum()
        # Rake geometry: early reflections live strictly *before* the
        # segmenter's eardrum-delay prior, so only delays up to the
        # prior's lower edge (input-rate samples) may be subtracted —
        # the drum echo itself is never touched.
        lo_up, _ = cfg.segmenter.delay_window_samples()
        factor = cfg.segmenter.upsample_factor
        self.rake_protect_from = max(1, lo_up // factor)
        # Calibration-offset estimation: dB-linear baseline fit over the
        # band-edge bins of the absorption grid (away from the notch).
        centre = 0.5 * (self._grid[0] + self._grid[-1])
        half_span = max(0.5 * (self._grid[-1] - self._grid[0]), 1.0)
        self._cal_x = (self._grid - centre) / half_span
        edge = max(2, int(round(cfg.calibration.edge_fraction * self._grid.size)))
        edge = min(edge, self._grid.size // 2)
        self._cal_edges = np.r_[0:edge, self._grid.size - edge : self._grid.size]
        design = np.column_stack(
            [np.ones(self._cal_edges.size), self._cal_x[self._cal_edges]]
        )
        self._cal_solver = np.linalg.pinv(design)

    # ------------------------------------------------------------------
    # Stage implementations
    # ------------------------------------------------------------------

    def _reference_spectrum(self) -> np.ndarray:
        """|spectrum| of the upsampled TX pulse on the band grid.

        Deconvolving the received echo spectrum by this template
        removes the chirp's own envelope; floored away from zero so
        the division stays stable at the band edges.  Building it
        raises :class:`~repro.errors.ConfigurationError` when the probe
        band holds fewer than two FFT bins at the upsampled rate.
        """
        cfg = self.config
        pulse = upsample(linear_chirp(cfg.chirp), cfg.segmenter.upsample_factor)
        values = self._band_amplitudes(pulse[None, :], cfg.segmenter.upsampled_rate)[0]
        floor = max(values.max() * 1e-3, 1e-12)
        return np.maximum(values, floor)

    def _band_amplitudes(self, stack: np.ndarray, rate: float) -> np.ndarray:
        """Band-zoom amplitude spectra of equal-length rows on the grid."""
        plan = band_zoom_plan(stack.shape[-1], self._nfft, rate, self._grid)
        return band_zoom_amplitude(stack, plan)

    def preprocess(self, waveform: np.ndarray) -> np.ndarray:
        """Band-pass the raw microphone signal (noise removal stage).

        Raises :class:`~repro.errors.InvalidWaveformError` on an empty
        buffer, and on NaN/Inf samples unless the robustness config
        permits sanitizing them (non-finite samples become zeros, i.e.
        ordinary dropouts, provided their fraction stays below
        ``robustness.max_nonfinite_fraction``).
        """
        waveform = np.asarray(waveform, dtype=float)
        if waveform.size == 0:
            raise InvalidWaveformError("waveform is empty")
        finite = np.isfinite(waveform)
        if not finite.all():
            rb = self.config.robustness
            fraction = 1.0 - float(finite.mean())
            if not rb.sanitize_nonfinite or fraction > rb.max_nonfinite_fraction:
                raise InvalidWaveformError(
                    f"waveform contains {fraction:.2%} non-finite samples"
                )
            waveform = np.where(finite, waveform, 0.0)
        return self._bandpass.apply(waveform)

    def detect_chirp_events(self, filtered: np.ndarray) -> list[Event]:
        """Locate chirp/echo events in the band-passed stream."""
        return detect_events(filtered, self.config.events)

    def extract_echoes(
        self, filtered: np.ndarray, events: list[Event] | None = None
    ) -> list[EardrumEcho]:
        """Segment the eardrum echo of every event that yields one.

        All events go through one :func:`segment_eardrum_echoes` call,
        which equals looping :func:`segment_eardrum_echo` over them and
        skipping the events that raise :class:`NoEchoFoundError`.
        """
        if events is None:
            events = self.detect_chirp_events(filtered)
        echoes = segment_eardrum_echoes(
            [event.slice(filtered) for event in events], self.config.segmenter
        )
        return [echo for echo in echoes if echo is not None]

    def cancel_reflections(
        self, filtered: np.ndarray, events: list[Event]
    ) -> tuple[np.ndarray, int]:
        """Rake-cancel early canal reflections from every chirp event.

        All events go through one call of the batched
        orthogonal-least-squares rake (plan-cached I/Q templates and lag
        table): reflections landing before the eardrum-delay prior and
        above the configured amplitude threshold are jointly fit and
        subtracted from their event.  Events never overlap, so raking
        them together equals raking them one after another.  Returns
        the cleaned stream (the input array itself when nothing was
        subtracted) and the total number of reflections removed.
        """
        raked = rake_cancel_batched(
            [event.slice(filtered) for event in events],
            self.config.chirp,
            protect_from=self.rake_protect_from,
            threshold=self.config.reverb.rake_threshold,
        )
        cleaned = filtered
        removed_total = 0
        for event, (new_segment, removed) in zip(events, raked):
            if removed:
                if cleaned is filtered:
                    cleaned = filtered.copy()
                cleaned[event.start : event.end] = new_segment
                removed_total += removed
        return cleaned, removed_total

    def estimate_calibration(
        self, curves: np.ndarray
    ) -> tuple[np.ndarray, float, bool]:
        """Divide the pooled dB-linear device baseline out of ``curves``.

        Fits gain + tilt (in dB, over the normalized band coordinate)
        to the band-edge bins of every per-echo curve, pools the fits
        with a median, and divides the pooled baseline out of every
        row.  Returns the corrected curves, the gain relative to
        ``calibration.reference_level_db`` (clamped to
        ``calibration.max_offset_db``), and whether the per-echo
        estimates were stable (spread within
        ``calibration.instability_db``).
        """
        cal = self.config.calibration
        edges = curves[:, self._cal_edges]
        edges_db = 20.0 * np.log10(np.maximum(edges, 1e-12))
        theta = self._cal_solver @ edges_db.T
        offset = float(
            np.clip(
                np.median(theta[0]) - cal.reference_level_db,
                -cal.max_offset_db,
                cal.max_offset_db,
            )
        )
        gain = cal.reference_level_db + offset
        tilt = float(np.clip(np.median(theta[1]), -cal.max_offset_db, cal.max_offset_db))
        stable = bool(np.std(theta[0]) <= cal.instability_db)
        baseline = 10.0 ** ((gain + tilt * self._cal_x) / 20.0)
        corrected = curves / baseline
        return corrected, offset, stable

    def absorption_curve(self, echo: EardrumEcho) -> np.ndarray:
        """TX-deconvolved band spectrum of one echo on the uniform grid."""
        spec = amplitude_spectrum(echo.segment, echo.sample_rate, nfft=self._nfft)
        band = spec.band(self._grid[0], self._grid[-1] + 1.0)
        values = np.interp(self._grid, band.frequencies, band.values)
        return values / self._tx_reference

    def absorption_curves(self, echoes: list[EardrumEcho]) -> np.ndarray:
        """Absorption curves of many echoes as a ``(num_echoes, bins)`` stack.

        Echoes of equal length share one band-zoom DFT: a single
        matrix product evaluates their spectra at just the probe-band
        bins and a precomputed gather interpolates them onto the grid,
        instead of one full ``nfft``-point FFT per echo.  Each row matches
        :meth:`absorption_curve` of the same echo to ~1e-15 (an
        equivalent but different DFT, so not bit-for-bit).  Mixed
        lengths are grouped by length and batched per group.
        """
        if not echoes:
            raise NoEchoFoundError("cannot average zero echoes")
        curves = np.empty((len(echoes), self._grid.size))
        lengths = np.array([e.segment.size for e in echoes])
        rates = np.array([e.sample_rate for e in echoes])
        for n, rate in {(int(n), float(r)) for n, r in zip(lengths, rates)}:
            idx = np.flatnonzero((lengths == n) & (rates == rate))
            stack = np.stack([echoes[i].segment for i in idx])
            curves[idx] = self._band_amplitudes(stack, rate) / self._tx_reference
        return curves

    def mean_absorption_curve(self, echoes: list[EardrumEcho]) -> np.ndarray:
        """Chirp-averaged, peak-normalised absorption curve."""
        curves = self.absorption_curves(echoes)
        mean_curve = curves.mean(axis=0)
        peak = mean_curve.max()
        if peak <= 0.0:
            raise SignalProcessingError("absorption curve is identically zero")
        return mean_curve / peak

    # ------------------------------------------------------------------
    # End-to-end
    # ------------------------------------------------------------------

    def _process_staged(
        self, recording: Recording
    ) -> tuple[ProcessedRecording, StageLatencies]:
        """Single implementation behind :meth:`process`/:meth:`timed_process`.

        Always records the Table-II stage boundaries (two extra
        ``perf_counter`` calls are free next to the DSP), so the timed
        and untimed entry points can never drift apart.
        """
        rb = self.config.robustness
        tracer = current_tracer()
        t0 = time.perf_counter()
        raw = np.asarray(recording.waveform, dtype=float)
        nonfinite_fraction = (
            1.0 - float(np.isfinite(raw).mean()) if raw.size else 1.0
        )
        with tracer.span(obs_names.SPAN_STAGE_BANDPASS):
            filtered = self.preprocess(raw)
        t1 = time.perf_counter()
        with tracer.span(obs_names.SPAN_STAGE_EVENTS) as span:
            events = self.detect_chirp_events(filtered)
            span.set("events", len(events))
        reflections_removed = 0
        if self.config.reverb.enabled:
            with tracer.span(obs_names.SPAN_STAGE_RAKE) as span:
                filtered, reflections_removed = self.cancel_reflections(
                    filtered, events
                )
                span.set("removed", reflections_removed)
        with tracer.span(obs_names.SPAN_STAGE_PARITY) as span:
            echoes = self.extract_echoes(filtered, events)
            span.set("echoes", len(echoes))
        num_extracted = len(echoes)
        dropped = 0
        calibration_offset_db = 0.0
        calibration_stable = True
        reasons: list[str] = []
        # Segments are uniformly 2 * segment_half_length long; one stack
        # serves the corrupt-chirp screen and the mean segment, and its
        # rows are dropped alongside ``echoes``.
        segments = (
            np.stack([e.segment for e in echoes])
            if echoes
            else np.empty((0, 2 * self.config.segmenter.segment_half_length))
        )
        if rb.drop_corrupted_chirps:
            keep = np.isfinite(segments).all(axis=1) & segments.any(axis=1)
            idx = np.flatnonzero(keep)
            dropped = len(echoes) - idx.size
            if dropped:
                reasons.append("corrupt_chirps")
                echoes = [echoes[i] for i in idx]
                segments = segments[idx]
        if len(echoes) < self.config.min_echoes:
            raise NoEchoFoundError(
                f"only {len(echoes)} of {len(events)} events produced usable "
                f"echoes (need >= {self.config.min_echoes})"
            )
        with tracer.span(obs_names.SPAN_STAGE_SPECTRUM):
            curves = self.absorption_curves(echoes)
            row_ok = np.isfinite(curves).all(axis=1)
            if not row_ok.all():
                if not rb.drop_corrupted_chirps:
                    raise SignalProcessingError(
                        "absorption curves contain non-finite values"
                    )
                idx = np.flatnonzero(row_ok)
                if idx.size < self.config.min_echoes:
                    raise NoEchoFoundError(
                        f"only {idx.size} finite absorption curves "
                        f"(need >= {self.config.min_echoes})"
                    )
                dropped += int(curves.shape[0] - idx.size)
                if "corrupt_chirps" not in reasons:
                    reasons.append("corrupt_chirps")
                curves = curves[idx]
                echoes = [echoes[i] for i in idx]
                segments = segments[idx]
            if self.config.calibration.enabled:
                with tracer.span(obs_names.SPAN_STAGE_CALIBRATION) as span:
                    curves, calibration_offset_db, calibration_stable = (
                        self.estimate_calibration(curves)
                    )
                    span.set("offset_db", calibration_offset_db)
                    span.set("stable", calibration_stable)
                if not calibration_stable:
                    reasons.append("calibration_unstable")
            mean_curve = curves.mean(axis=0)
            peak = mean_curve.max()
            if peak <= 0.0:
                raise SignalProcessingError("absorption curve is identically zero")
            curve = mean_curve / peak
        mean_segment = segments.mean(axis=0)
        rate = echoes[0].sample_rate
        with tracer.span(obs_names.SPAN_STAGE_FEATURES):
            features = self._builder.build(curve, mean_segment, rate)
        t2 = time.perf_counter()
        if nonfinite_fraction > 0.0:
            reasons.append("non_finite")
        # survivors/extracted is 1.0 on the clean path, so the clean
        # output (confidence included) is bit-identical to the strict
        # pipeline; any quarantine or sanitization pulls it below 1.
        confidence = (
            len(echoes) / num_extracted if num_extracted else 0.0
        ) * (1.0 - nonfinite_fraction)
        if not calibration_stable:
            confidence *= self.config.calibration.unstable_confidence
        processed = ProcessedRecording(
            features=features,
            curve=curve,
            mean_segment=mean_segment,
            segment_rate=rate,
            num_events=len(events),
            num_echoes=len(echoes),
            participant_id=recording.participant_id,
            day=recording.day,
            true_state=recording.state,
            confidence=confidence,
            num_chirps_dropped=dropped,
            quality_reasons=tuple(reasons),
            calibration_offset_db=calibration_offset_db,
            num_reflections_removed=reflections_removed,
        )
        latencies = StageLatencies(
            bandpass_ms=(t1 - t0) * 1e3,
            feature_extract_ms=(t2 - t1) * 1e3,
            inference_ms=0.0,
        )
        return processed, latencies

    def process(self, recording: Recording) -> ProcessedRecording:
        """Run the full pipeline on one recording.

        Raises :class:`NoEchoFoundError` if fewer than
        ``config.min_echoes`` events produced a usable eardrum echo.
        """
        return self._process_staged(recording)[0]

    def timed_process(self, recording: Recording) -> tuple[ProcessedRecording, StageLatencies]:
        """Process a recording while timing the Table-II stages.

        Stage boundaries follow the paper: band-pass filtering, feature
        extraction (events + segmentation + curve + vector), and
        inference is timed separately by the detector.
        """
        return self._process_staged(recording)
