"""Feature extraction (paper Section 3).

* :mod:`repro.features.iav` — Integral of Absolute Value per EMG channel
  (Eq. 1);
* :mod:`repro.features.svd` — weighted-SVD joint features for motion capture
  (Eqs. 2–3);
* :mod:`repro.features.combine` — the per-window combined (m+n)-dimensional
  feature vector (Section 3.3);
* :mod:`repro.features.batched` — the stacked/vectorized feature kernels
  behind :class:`~repro.features.combine.WindowFeaturizer` (bit-identical
  to the per-window functions);
* :mod:`repro.features.emg_extra` — the related-work baseline EMG features
  (zero crossings, histogram, AR coefficients, RMS, MAV, waveform length)
  used in ablation benchmarks;
* :mod:`repro.features.scaling` — feature standardization fitted on the
  database (an implementation-necessary addition; see DESIGN.md).
"""

from repro.features.base import EMGFeatureExtractor, MocapFeatureExtractor, WindowFeatures
from repro.features.batched import (
    batched_iav,
    stabilize_signs_batched,
    stacked_weighted_svd,
)
from repro.features.iav import IAVExtractor, integral_absolute_value
from repro.features.svd import WeightedSVDExtractor, weighted_svd_feature
from repro.features.combine import WindowFeaturizer
from repro.features.pca import PCAJointExtractor, pca_joint_feature
from repro.features.scaling import FeatureScaler
from repro.features.emg_extra import (
    ARCoefficientsExtractor,
    HistogramExtractor,
    MeanAbsoluteValueExtractor,
    RMSExtractor,
    WaveformLengthExtractor,
    ZeroCrossingExtractor,
)

__all__ = [
    "EMGFeatureExtractor",
    "MocapFeatureExtractor",
    "WindowFeatures",
    "IAVExtractor",
    "integral_absolute_value",
    "WeightedSVDExtractor",
    "weighted_svd_feature",
    "WindowFeaturizer",
    "batched_iav",
    "stabilize_signs_batched",
    "stacked_weighted_svd",
    "FeatureScaler",
    "PCAJointExtractor",
    "pca_joint_feature",
    "ARCoefficientsExtractor",
    "HistogramExtractor",
    "MeanAbsoluteValueExtractor",
    "RMSExtractor",
    "WaveformLengthExtractor",
    "ZeroCrossingExtractor",
]
