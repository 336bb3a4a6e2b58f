"""Incremental motion-database maintenance.

Section 4 of the paper fits FCM on "the existent motions in the database"
and scores queries against the *fixed* centers (Eq. 9).  The same mechanism
supports growing the database online: a new motion's signature can be
computed against the existing centers exactly like a query's, then indexed —
no FCM refit.  The approximation degrades as the window distribution drifts
away from what the centers were fitted on, so the maintainer tracks a drift
statistic (mean highest membership of newly added windows vs. the fit-time
baseline) and reports when a refit is due.

:class:`IncrementalMotionDatabase` wraps a fitted
:class:`~repro.core.model.MotionClassifier` with ``add``/``remove``/k-NN
operations backed by the B+-tree iDistance index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.model import MotionClassifier, RetrievedNeighbor
from repro.data.record import RecordedMotion
from repro.errors import NotFittedError, RetrievalError
from repro.retrieval.dynamic import DynamicIDistanceIndex
from repro.retrieval.knn import knn_vote
from repro.utils.validation import check_in_range

__all__ = ["IncrementalMotionDatabase"]


@dataclass(frozen=True)
class _Entry:
    key: str
    label: str


class IncrementalMotionDatabase:
    """Online add/remove/query over a fitted classifier's signature space.

    Parameters
    ----------
    classifier:
        A fitted :class:`~repro.core.model.MotionClassifier`; its FCM
        centers, scaler and featurizer are frozen and shared.
    n_partitions, headroom:
        Forwarded to the backing
        :class:`~repro.retrieval.dynamic.DynamicIDistanceIndex`.
    drift_tolerance:
        Fraction by which the mean highest membership of *added* windows
        may fall below the fit-time baseline before :attr:`refit_recommended`
        turns on.  The baseline is optimistically biased (FCM centers are
        fitted to exactly those windows), so held-out additions typically
        sit 10-20 % below it even without drift; the default 0.25 only
        fires on genuine distribution shifts.
    """

    def __init__(
        self,
        classifier: MotionClassifier,
        n_partitions: int = 8,
        headroom: float = 4.0,
        drift_tolerance: float = 0.25,
    ):
        if not classifier.is_fitted:
            raise NotFittedError(
                "IncrementalMotionDatabase needs a fitted classifier"
            )
        self.classifier = classifier
        self.drift_tolerance = check_in_range(
            drift_tolerance, name="drift_tolerance", low=0.0, high=1.0
        )
        signatures = classifier.database_signatures
        self._index = DynamicIDistanceIndex(
            n_partitions=n_partitions, headroom=headroom
        ).fit(signatures)
        self._entries: Dict[int, _Entry] = {
            i: _Entry(key=key, label=label)
            for i, (key, label) in enumerate(
                zip(classifier.database_keys, classifier.database_labels)
            )
        }
        self._keys_in_db = {e.key for e in self._entries.values()}
        # Fit-time membership baseline: how confidently the FCM vocabulary
        # covers its own training windows.
        self._baseline_membership = classifier.baseline.max_membership_mean
        self._added_memberships: List[float] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def labels(self) -> List[str]:
        """Sorted unique labels currently in the database."""
        return sorted({e.label for e in self._entries.values()})

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def add(self, record: RecordedMotion) -> int:
        """Add a motion online; returns its database id.

        The signature is the classifier's query signature against the frozen
        centers (:meth:`MotionClassifier.signature`), so an added motion and
        the same motion queried later get the same vector under either
        clusterer.
        """
        if record.key in self._keys_in_db:
            raise RetrievalError(f"motion {record.key!r} is already indexed")
        signature = self.classifier.signature(record)
        self._added_memberships.extend(signature.window_memberships.tolist())
        vid = self._index.insert(signature.vector)
        self._entries[vid] = _Entry(key=record.key, label=record.label)
        self._keys_in_db.add(record.key)
        return vid

    def remove(self, vid: int) -> bool:
        """Remove a motion by database id; returns whether it existed."""
        entry = self._entries.pop(vid, None)
        if entry is None:
            return False
        self._keys_in_db.discard(entry.key)
        if not self._index.remove(vid):
            raise RetrievalError(
                f"index corruption: id {vid} missing"
            )  # pragma: no cover
        return True

    @property
    def refit_recommended(self) -> bool:
        """Whether the added windows drifted enough to warrant an FCM refit.

        True when the mean highest membership of windows added since the
        fit falls more than ``drift_tolerance`` (relatively) below the
        fit-time baseline — the FCM vocabulary no longer covers the data.
        """
        if not self._added_memberships:
            return False
        current = float(np.mean(self._added_memberships))
        return current < (1.0 - self.drift_tolerance) * self._baseline_membership

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def kneighbors(self, record: RecordedMotion, k: int = 5) -> List[RetrievedNeighbor]:
        """The ``k`` nearest currently indexed motions."""
        vector = self.classifier.signature(record).vector
        ids, distances = self._index.query(vector, k)
        return [
            RetrievedNeighbor(
                key=self._entries[int(i)].key,
                label=self._entries[int(i)].label,
                distance=float(d),
            )
            for i, d in zip(ids, distances)
        ]

    def classify(self, record: RecordedMotion, k: int = 1) -> str:
        """k-NN classification over the current database contents."""
        neighbors = self.kneighbors(record, k)
        return knn_vote(
            [n.label for n in neighbors],
            np.asarray([n.distance for n in neighbors]),
        )
