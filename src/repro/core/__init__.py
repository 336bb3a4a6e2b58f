"""The paper's primary contribution, assembled.

* :mod:`repro.core.signature` — the final 2c-dimensional motion feature
  vector built from fuzzy memberships (paper Eqs. 5–8);
* :mod:`repro.core.model` — :class:`MotionClassifier`, the end-to-end
  database/query pipeline (Sections 3–4): windowed IAV + weighted-SVD
  features → FCM over the database windows → per-motion signature →
  nearest-neighbour classification and k-NN retrieval.
"""

from repro.core.signature import MotionSignature, motion_signature
from repro.core.model import MotionClassifier, RetrievedNeighbor

__all__ = [
    "MotionSignature",
    "motion_signature",
    "MotionClassifier",
    "RetrievedNeighbor",
]
