"""Virtual clinic: the simulated substrate replacing the clinical study.

The paper's evaluation rests on a 112-child clinical dataset that is
not publicly available.  This package substitutes a physics-driven
simulator (see DESIGN.md "Reproduction constraints and substitutions"):
participants with individual anatomy and recovery trajectories,
parametric earphone devices, ambient noise at calibrated SPLs, motion
artifacts, and a longitudinal study driver producing ground-truth
labelled recordings.
"""

from .calibration import (
    CalibrationDriftConfig,
    CalibrationState,
    DeviceProfile,
    apply_calibration,
    calibration_state,
)
from .cohort import StudyDataset, StudyDesign, build_cohort, simulate_study
from .earphone import (
    ATH_CKS550XIS,
    BOSE_QC20,
    CK35051,
    COMMERCIAL_EARPHONES,
    IE100PRO,
    PROTOTYPE,
    EarphoneModel,
)
from .effusion import FILL_RANGES, STATE_FLUIDS, MeeState, RecoveryTrajectory
from .groundtruth import OtoscopistModel, relabel_states
from .hardware import (
    SMARTPHONE_PROFILES,
    SmartphoneProfile,
    StageLatencies,
    estimate_power_mw,
)
from .motion import MOVEMENT_PROFILES, Movement, MovementProfile, motion_artifact
from .noise import QUIET_ROOM_SPL_DB, ambient_noise, pink_noise, spl_to_amplitude
from .participant import Participant, sample_participant
from .session import Recording, SessionConfig, record_session

__all__ = [
    "CalibrationDriftConfig",
    "CalibrationState",
    "DeviceProfile",
    "apply_calibration",
    "calibration_state",
    "StudyDataset",
    "StudyDesign",
    "build_cohort",
    "simulate_study",
    "ATH_CKS550XIS",
    "BOSE_QC20",
    "CK35051",
    "COMMERCIAL_EARPHONES",
    "IE100PRO",
    "PROTOTYPE",
    "EarphoneModel",
    "FILL_RANGES",
    "STATE_FLUIDS",
    "MeeState",
    "RecoveryTrajectory",
    "OtoscopistModel",
    "relabel_states",
    "SMARTPHONE_PROFILES",
    "SmartphoneProfile",
    "StageLatencies",
    "estimate_power_mw",
    "MOVEMENT_PROFILES",
    "Movement",
    "MovementProfile",
    "motion_artifact",
    "QUIET_ROOM_SPL_DB",
    "ambient_noise",
    "pink_noise",
    "spl_to_amplitude",
    "Participant",
    "sample_participant",
    "Recording",
    "SessionConfig",
    "record_session",
]
