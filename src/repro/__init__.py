"""repro — reproduction of Pradhan et al., "Integration of Motion Capture
and EMG data for Classifying the Human Motions" (ICDE Workshops 2007).

The library integrates two synchronously captured biomedical streams —
3-D motion capture and surface EMG — into a single fuzzy feature space for
motion classification and content-based retrieval:

* IAV features per EMG channel per window (paper Eq. 1);
* weighted-SVD features per joint per window (Eqs. 2–3);
* fuzzy c-means over all database windows (Eq. 4);
* per-motion 2c signatures from max/min highest memberships (Eqs. 5–8);
* Eq. 9 memberships for queries and nearest-neighbour classification.

Everything the paper depends on is implemented here too: a hierarchical
skeleton with forward kinematics, parametric motion generators, a Vicon-like
capture simulator, a surface-EMG synthesizer with the Delsys Myomonitor
conditioning chain, trigger-based synchronization, and the retrieval
structures (linear scan and iDistance).

Quickstart
----------
>>> from repro import hand_protocol, build_dataset, MotionClassifier
>>> dataset = build_dataset(hand_protocol(), n_participants=2,
...                         trials_per_motion=3, seed=0)
>>> train, test = dataset.train_test_split(test_fraction=0.3, seed=0)
>>> model = MotionClassifier(n_clusters=15, window_ms=100.0).fit(train)
>>> prediction = model.classify(test[0])
"""

from repro import obs
from repro.baselines.dtw import DTWClassifier
from repro.core.model import MotionClassifier, RetrievedNeighbor, RobustQueryResult
from repro.core.signature import MotionSignature, motion_signature
from repro.data.dataset import MotionDataset
from repro.data.protocol import (
    StudyProtocol,
    build_dataset,
    hand_protocol,
    leg_protocol,
    whole_body_protocol,
)
from repro.data.record import RecordedMotion
from repro.data.serialize import load_dataset, save_dataset
from repro.emg.myomonitor import Myomonitor
from repro.emg.recording import EMGRecording
from repro.errors import ReproError
from repro.eval.experiments import ExperimentResult, SweepResult, run_experiment, sweep
from repro.features.combine import WindowFeaturizer
from repro.fuzzy.cmeans import FCMResult, FuzzyCMeans
from repro.fuzzy.membership import membership_matrix
from repro.mocap.trajectory import MotionCaptureData
from repro.mocap.vicon import ViconSystem
from repro.motions.base import available_motions, get_motion_class
from repro.motions.variation import VariationModel
from repro.parallel.cache import FeatureCache
from repro.parallel.runner import featurize_records
from repro.robust.faults import FaultSpec, default_fault_suite, inject
from repro.robust.featurize import RobustFeaturizer
from repro.robust.policy import DegradationPolicy, resolve_policy
from repro.robust.report import DegradationReport
from repro.sync.session import AcquisitionSession

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "obs",
    "DTWClassifier",
    "MotionClassifier",
    "RetrievedNeighbor",
    "MotionSignature",
    "motion_signature",
    "MotionDataset",
    "StudyProtocol",
    "build_dataset",
    "hand_protocol",
    "leg_protocol",
    "whole_body_protocol",
    "RecordedMotion",
    "load_dataset",
    "save_dataset",
    "Myomonitor",
    "EMGRecording",
    "ReproError",
    "ExperimentResult",
    "SweepResult",
    "run_experiment",
    "sweep",
    "WindowFeaturizer",
    "FCMResult",
    "FuzzyCMeans",
    "membership_matrix",
    "MotionCaptureData",
    "ViconSystem",
    "available_motions",
    "get_motion_class",
    "VariationModel",
    "FeatureCache",
    "featurize_records",
    "FaultSpec",
    "default_fault_suite",
    "inject",
    "RobustFeaturizer",
    "DegradationPolicy",
    "resolve_policy",
    "DegradationReport",
    "RobustQueryResult",
    "AcquisitionSession",
]
