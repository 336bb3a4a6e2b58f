"""Motion-capture substrate: data container, sensor noise, Vicon-like capture.

Replaces the paper's 16-camera Vicon iQ laboratory.  The simulator samples an
animated skeleton at 120 Hz, perturbs marker positions with measurement
noise, drops markers for short occlusion gaps, and gap-fills them — producing
the same kind of 3-column-per-joint motion matrices the paper's classifier
consumes.
"""

from repro.mocap.trajectory import MotionCaptureData
from repro.mocap.noise import MarkerNoiseModel, OcclusionModel
from repro.mocap.gapfill import fill_gaps
from repro.mocap.vicon import ViconSystem
from repro.mocap.markers import (
    MarkerCluster,
    default_marker_set,
    marker_positions,
    reconstruct_joints,
)

__all__ = [
    "MotionCaptureData",
    "MarkerNoiseModel",
    "OcclusionModel",
    "fill_gaps",
    "ViconSystem",
    "MarkerCluster",
    "default_marker_set",
    "marker_positions",
    "reconstruct_joints",
]
