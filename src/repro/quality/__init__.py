"""Per-recording signal-quality assessment and gating.

Runs *before* feature extraction, on the raw waveform: a cheap,
deterministic integrity check that answers "is this capture worth the
DSP?" with a structured :class:`~repro.quality.report.QualityReport`
carrying an accept / degrade / reject verdict plus machine-readable
reason codes.

The checks mirror the dominant at-home acquisition faults modelled in
:mod:`repro.faultlab`:

- **chirp presence** — matched-filter peak-to-background score against
  the configured probe chirp (reuses the plan-cached templates of
  :mod:`repro.kernels.chirp`); a capture without the probe signature
  (wrong device, muted speaker) is unusable however clean it looks;
- **in-band SNR** — spectral power inside the chirp sweep band versus
  the out-of-band floor;
- **clipping ratio** — fraction of samples pinned at the peak rails;
- **dropout map** — zero-run bursts from delivery underruns;
- **non-finite samples** and **truncation** against the expected
  duration.

This complements :mod:`repro.core.diagnostics`, which scores a capture
*after* running the pipeline (echo yield, curve stability); the quality
gate exists so obviously-bad captures never pay for the pipeline at
all.  The screening service runs it before admission
(``ScreeningService(fast_reject=QualityConfig())``) and answers a
REJECTed capture without queueing it.
"""

from .assess import QualityConfig, assess_recording, assess_waveform
from .report import QualityReport, ReasonCode, Verdict

__all__ = [
    "QualityConfig",
    "QualityReport",
    "ReasonCode",
    "Verdict",
    "assess_recording",
    "assess_waveform",
]
