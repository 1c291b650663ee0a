"""Digital signal processing substrate for EarSonar.

Contains the FMCW chirp designer, Butterworth filters, windows and
spectral analysis, the adaptive energy event detector, the even/odd
parity-decomposition echo segmenter, MFCC extraction, and correlation
utilities — every DSP stage the paper's pipeline relies on.
"""

from .chirp import (
    SPEED_OF_SOUND,
    ChirpDesign,
    cross_correlate,
    linear_chirp,
    matched_filter_reference,
)
from .correlation import (
    correlation_matrix,
    correlation_matrix_reference,
    pearson,
)
from .events import (
    Event,
    EventDetectorConfig,
    detect_events,
    detect_events_reference,
    sliding_power,
)
from .filters import (
    ButterworthDesign,
    butterworth_bandpass,
    first_order_iir,
    sos_frequency_response,
    sosfilt,
    sosfilt_reference,
)
from .mfcc import (
    MfccConfig,
    dct_basis,
    dct_ii,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    mfcc_reference,
)
from .parity import (
    EardrumEcho,
    EchoSegmenterConfig,
    SymmetryCandidate,
    autoconvolution,
    find_symmetry_candidates,
    parity_decompose,
    parity_energies,
    segment_eardrum_echo,
    segment_eardrum_echoes,
)
from .resample import upsample
from .spectral import Spectrum, amplitude_spectrum
from .windows import hamming, hann

__all__ = [
    "SPEED_OF_SOUND",
    "ChirpDesign",
    "cross_correlate",
    "linear_chirp",
    "matched_filter_reference",
    "correlation_matrix",
    "correlation_matrix_reference",
    "pearson",
    "Event",
    "EventDetectorConfig",
    "detect_events",
    "detect_events_reference",
    "sliding_power",
    "ButterworthDesign",
    "butterworth_bandpass",
    "first_order_iir",
    "sos_frequency_response",
    "sosfilt",
    "sosfilt_reference",
    "MfccConfig",
    "dct_basis",
    "dct_ii",
    "hz_to_mel",
    "mel_filterbank",
    "mel_to_hz",
    "mfcc",
    "mfcc_reference",
    "EardrumEcho",
    "EchoSegmenterConfig",
    "SymmetryCandidate",
    "autoconvolution",
    "find_symmetry_candidates",
    "parity_decompose",
    "parity_energies",
    "segment_eardrum_echo",
    "segment_eardrum_echoes",
    "upsample",
    "Spectrum",
    "amplitude_spectrum",
    "hamming",
    "hann",
]
