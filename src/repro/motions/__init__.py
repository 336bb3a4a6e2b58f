"""Parametric human-motion generators.

These replace the paper's live participants.  Each :class:`MotionClass`
describes one semantic motion ("raise arm", "throw ball", ...) as joint-angle
trajectories plus per-muscle activation envelopes; the variation model adds
inter-trial and inter-participant variability so that semantically similar
motions are *not* identical — the property that motivates the paper's fuzzy
approach ("semantically similar motions such as walking can have large
variations in EMG signals").
"""

from repro.motions.base import (
    MotionClass,
    MotionPlan,
    available_motions,
    get_motion_class,
    motions_for_limb,
    register_motion_class,
)
from repro.motions.variation import ParticipantProfile, TrialVariation, VariationModel
from repro.motions.arm import ARM_MOTIONS
from repro.motions.leg import LEG_MOTIONS

__all__ = [
    "MotionClass",
    "MotionPlan",
    "available_motions",
    "get_motion_class",
    "motions_for_limb",
    "register_motion_class",
    "ParticipantProfile",
    "TrialVariation",
    "VariationModel",
    "ARM_MOTIONS",
    "LEG_MOTIONS",
]
