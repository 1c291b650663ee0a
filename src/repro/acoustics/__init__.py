"""Acoustic physics substrate: media, absorption, ear canal, propagation.

Implements the paper's theoretical model (Sec. II-A) as the simulator
uses it: media and their characteristic impedance, the resonant eardrum
absorption dip whose depth follows the fluid/air impedance ratio,
ear-canal geometry, early reflections and the multipath
speaker-to-microphone channel.
"""

from .absorption import EardrumReflectanceModel, EffusionLoad
from .ear import CANAL_SOUND_SPEED, EarCanalGeometry, InsertionState, build_ear_channel
from .media import MUCOID_FLUID, PURULENT_FLUID, SEROUS_FLUID, WATER, Medium
from .propagation import MultipathChannel, PropagationPath
from .reverb import ReflectionTap, ReverbConfig, reverb_paths, reverb_taps

__all__ = [
    "EardrumReflectanceModel",
    "EffusionLoad",
    "CANAL_SOUND_SPEED",
    "EarCanalGeometry",
    "InsertionState",
    "build_ear_channel",
    "MUCOID_FLUID",
    "PURULENT_FLUID",
    "SEROUS_FLUID",
    "WATER",
    "Medium",
    "MultipathChannel",
    "PropagationPath",
    "ReflectionTap",
    "ReverbConfig",
    "reverb_paths",
    "reverb_taps",
]
