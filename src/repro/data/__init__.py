"""Recorded motions, experimental protocols and dataset management."""

from repro.data.record import RecordedMotion
from repro.data.dataset import MotionDataset
from repro.data.protocol import (
    StudyProtocol,
    hand_protocol,
    leg_protocol,
    whole_body_protocol,
    build_dataset,
)
from repro.data.serialize import load_dataset, save_dataset
from repro.data.population import SyntheticPopulation, synthesize_population

__all__ = [
    "RecordedMotion",
    "MotionDataset",
    "StudyProtocol",
    "hand_protocol",
    "leg_protocol",
    "whole_body_protocol",
    "build_dataset",
    "load_dataset",
    "save_dataset",
    "SyntheticPopulation",
    "synthesize_population",
]
