"""The end-to-end motion classifier (paper Sections 3–4).

:class:`MotionClassifier` ties the pipeline together:

fit (database side, Section 3)
    1. window every database motion and extract the combined IAV +
       weighted-SVD feature vectors (Sections 3.1–3.3);
    2. standardize the combined space (see
       :mod:`repro.features.scaling`) on the database windows;
    3. run fuzzy c-means over *all* database windows (Eq. 4);
    4. build every motion's 2c signature from its windows' membership rows
       (Eqs. 5–8);
    5. index the signatures for nearest-neighbour search.

query side (Section 4)
    The query motion is windowed and featurized identically, scaled with the
    *stored* statistics, given Eq. 9 memberships against the *fitted*
    centers (centers never move), reduced to its 2c signature, and matched
    against the database signatures — 1-NN for classification, k-NN for
    retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.core.signature import MotionSignature, motion_signature
from repro.data.dataset import MotionDataset
from repro.data.record import RecordedMotion
from repro.errors import ClusteringError, FeatureError, NotFittedError
from repro.features.base import WindowFeatures
from repro.features.combine import WindowFeaturizer
from repro.features.scaling import FeatureScaler
from repro.fuzzy.cmeans import FuzzyCMeans
from repro.fuzzy.kmeans import KMeans
from repro.fuzzy.membership import membership_matrix
from repro.obs.drift import BaselineSnapshot, DriftMonitor, signals_from_query
from repro.obs.config import (
    query_scope,
    record_counter,
    record_event,
    record_gauge,
    span,
    time_histogram,
)
from repro.parallel.cache import FeatureCache
from repro.parallel.executor import effective_n_jobs
from repro.parallel.runner import featurize_records
from repro.retrieval.knn import knn_vote
from repro.retrieval.linear import LinearScanIndex
from repro.robust.featurize import RobustFeaturizer
from repro.robust.policy import DegradationPolicy, resolve_policy
from repro.robust.report import DegradationReport
from repro.utils.distances import squared_distances
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int

__all__ = ["RetrievedNeighbor", "RobustQueryResult", "MotionClassifier"]


@dataclass(frozen=True)
class RetrievedNeighbor:
    """One retrieved database motion.

    Attributes
    ----------
    key:
        The database record's unique key.
    label:
        Its motion class.
    distance:
        Euclidean distance between signatures.
    """

    key: str
    label: str
    distance: float


@dataclass(frozen=True)
class RobustQueryResult:
    """A classification answer together with its degradation account.

    Attributes
    ----------
    label:
        The predicted motion class (k-NN vote, as :meth:`MotionClassifier.classify`).
    neighbors:
        The retrieved database motions behind the vote.
    report:
        What the robust layer detected and did to the query record; for a
        classifier without a robust policy this is a trivial clean report
        with ``policy == "off"``.
    """

    label: str
    neighbors: List[RetrievedNeighbor]
    report: DegradationReport


class MotionClassifier:
    """Fuzzy-membership motion classifier over integrated mocap + EMG data.

    Parameters
    ----------
    n_clusters:
        The FCM cluster count ``c`` (the paper sweeps 2–40).
    window_ms:
        Feature window duration (the paper sweeps 50–200 ms).
    m:
        FCM fuzzifier (2 in the paper).
    featurizer:
        Custom window featurizer; overrides ``window_ms`` when given.
    scaler_mode:
        Combined-space standardization (see
        :class:`~repro.features.scaling.FeatureScaler`).
    clusterer:
        ``"fcm"`` (the paper) or ``"kmeans"`` (crisp ablation), or a factory
        ``(n_clusters) -> estimator`` with a compatible ``fit``.  A custom
        fuzzy factory must use the same fuzzifier as this classifier's ``m``,
        which drives the query-side Eq. 9 memberships.
    n_init:
        Clustering restarts.
    n_jobs:
        Worker processes for the fit-side per-motion feature fan-out; ``1``
        (the default) is the serial path, ``-1`` uses all CPUs (see
        :mod:`repro.parallel.executor`).  Every setting produces
        byte-identical results.
    cache_dir:
        Directory for the content-addressed feature cache; ``None`` (the
        default) disables caching.  Cached features are byte-identical to
        recomputed ones.  With a ``robust_policy`` the fit side still
        caches, but queries featurize afresh, because a cached matrix
        cannot replay the query's degradation report; the answers are the
        same either way.
    robust_policy:
        Degradation policy for faulted streams: ``None``/``"off"`` (the
        default) keeps the exact pre-robust path, byte for byte; a
        :class:`~repro.robust.policy.DegradationPolicy` or preset name
        (``"strict"``, ``"mask"``, ``"repair"``) wraps the featurizer in a
        :class:`~repro.robust.featurize.RobustFeaturizer` on both the fit
        and query sides (see :mod:`repro.robust`).
    """

    def __init__(
        self,
        n_clusters: int = 15,
        window_ms: float = 100.0,
        m: float = 2.0,
        featurizer: Optional[WindowFeaturizer] = None,
        scaler_mode: str = "zscore",
        clusterer: Union[str, Callable[[int], object]] = "fcm",
        n_init: int = 1,
        n_jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        robust_policy: Union[str, DegradationPolicy, None] = None,
    ):
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=2)
        self.m = m
        self.featurizer = featurizer or WindowFeaturizer(window_ms=window_ms)
        self.robust_policy = resolve_policy(robust_policy)
        if self.robust_policy is not None and not isinstance(
            self.featurizer, RobustFeaturizer
        ):
            self.featurizer = RobustFeaturizer(self.featurizer, self.robust_policy)
        self.scaler = FeatureScaler(mode=scaler_mode)
        self.clusterer = clusterer
        self.n_init = check_positive_int(n_init, name="n_init")
        self.n_jobs = effective_n_jobs(n_jobs)
        self.feature_cache: Optional[FeatureCache] = (
            FeatureCache(cache_dir) if cache_dir is not None else None
        )

        self._centers: Optional[np.ndarray] = None
        self._signatures: Optional[np.ndarray] = None
        self._labels: List[str] = []
        self._keys: List[str] = []
        self._index: Optional[LinearScanIndex] = None
        self._soft_memberships = True
        self._baseline: Optional[BaselineSnapshot] = None
        self._health: Optional[DriftMonitor] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _make_clusterer(self):
        if callable(self.clusterer):
            return self.clusterer(self.n_clusters)
        if self.clusterer == "fcm":
            return FuzzyCMeans(n_clusters=self.n_clusters, m=self.m,
                               n_init=self.n_init)
        if self.clusterer == "kmeans":
            return KMeans(n_clusters=self.n_clusters, n_init=self.n_init)
        raise ClusteringError(
            f"unknown clusterer {self.clusterer!r}; use 'fcm', 'kmeans' or a factory"
        )

    def fit(self, database: MotionDataset, seed: SeedLike = 0) -> "MotionClassifier":
        """Fit the whole pipeline on the motion database."""
        if len(database) == 0:
            raise ClusteringError("cannot fit on an empty database")
        with span("model.fit", n_motions=len(database),
                  n_clusters=self.n_clusters) as sp:
            per_motion = featurize_records(
                self.featurizer, list(database), n_jobs=self.n_jobs,
                cache=self.feature_cache,
            )
            all_windows = np.vstack([wf.matrix for wf in per_motion])
            if not np.isfinite(all_windows).all():
                # Guards duck-typed featurizers that skip WindowFeatures
                # validation: NaN windows would silently poison the cluster
                # centers and every signature after them.
                raise FeatureError(
                    "database features contain non-finite values; repair the "
                    "records or fit with a robust_policy"
                )
            if all_windows.shape[0] < self.n_clusters:
                raise ClusteringError(
                    f"database yields {all_windows.shape[0]} windows, fewer than "
                    f"c={self.n_clusters} clusters; use a smaller window or more data"
                )
            scaled = self.scaler.fit(all_windows).transform(all_windows)

            estimator = self._make_clusterer()
            result = estimator.fit(scaled, seed=seed)
            self._centers = result.centers
            self._soft_memberships = not isinstance(estimator, KMeans)
            # Freeze the fit-time health baseline alongside the model so
            # drift is always measured against the deployed artifact (see
            # repro.obs.drift; persisted via `classifier.baseline.save`).
            self._baseline = BaselineSnapshot.from_fit(
                scaled, result.centers, result.membership, m=self.m,
                feature_names=per_motion[0].names,
            )

            signatures = []
            start = 0
            for wf in per_motion:
                stop = start + wf.n_windows
                sig = motion_signature(result.membership[start:stop], self.n_clusters)
                signatures.append(sig.vector)
                start = stop
            self._signatures = np.vstack(signatures)
            self._labels = [rec.label for rec in database]
            self._keys = [rec.key for rec in database]
            with span("retrieval.index_build", backend="LinearScanIndex"):
                self._index = LinearScanIndex().fit(self._signatures)
            sp.set(n_windows=all_windows.shape[0], n_dims=all_windows.shape[1])
            record_gauge("model.n_windows", all_windows.shape[0])
            record_gauge("model.n_dims", all_windows.shape[1])
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._centers is not None

    @property
    def centers(self) -> np.ndarray:
        """The fitted cluster centers in the scaled combined space."""
        if self._centers is None:
            raise NotFittedError("MotionClassifier used before fit")
        return self._centers

    @property
    def database_signatures(self) -> np.ndarray:
        """``(n_motions, 2c)`` database signature matrix."""
        if self._signatures is None:
            raise NotFittedError("MotionClassifier used before fit")
        return self._signatures

    @property
    def database_labels(self) -> List[str]:
        """Labels aligned with :attr:`database_signatures`."""
        if self._signatures is None:
            raise NotFittedError("MotionClassifier used before fit")
        return list(self._labels)

    @property
    def database_keys(self) -> List[str]:
        """Record keys aligned with :attr:`database_signatures`."""
        if self._signatures is None:
            raise NotFittedError("MotionClassifier used before fit")
        return list(self._keys)

    @property
    def baseline(self) -> BaselineSnapshot:
        """The frozen fit-time health baseline (see :mod:`repro.obs.drift`).

        Persist it next to the model artifact with
        ``classifier.baseline.save(path)`` so a later serving process can
        monitor drift against the deployed fit.
        """
        if self._baseline is None:
            raise NotFittedError("MotionClassifier used before fit")
        return self._baseline

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------

    def attach_health(self, monitor: Optional[DriftMonitor] = None) -> DriftMonitor:
        """Attach a drift monitor; every query then feeds its detectors.

        With ``monitor=None`` a :class:`~repro.obs.drift.DriftMonitor` with
        the default detector set over this model's fit-time baseline is
        created.  Returns the attached monitor.  Monitoring adds one
        signal-extraction pass per query; detach with :meth:`detach_health`
        to restore the exact unmonitored path.
        """
        if monitor is None:
            monitor = DriftMonitor(self.baseline)
        else:
            self.baseline  # raise NotFittedError before accepting a monitor
        self._health = monitor
        return monitor

    def detach_health(self) -> Optional[DriftMonitor]:
        """Detach and return the current drift monitor (``None`` if none)."""
        monitor, self._health = self._health, None
        return monitor

    @property
    def health(self) -> Optional[DriftMonitor]:
        """The attached drift monitor, or ``None``."""
        return self._health

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------

    def _signature_from_features(
        self, features: WindowFeatures, degraded: bool
    ) -> MotionSignature:
        """Reduce one motion's window features to its 2c signature."""
        if not np.isfinite(features.matrix).all():
            raise FeatureError(
                "query features contain non-finite values; repair the record "
                "or query through a robust_policy"
            )
        scaled = self.scaler.transform(features.matrix)
        if self._soft_memberships:
            memberships = membership_matrix(scaled, self._centers, m=self.m)
        else:
            # Crisp ablation: one-hot membership of the nearest center.
            d2 = squared_distances(scaled, self._centers)
            memberships = np.zeros_like(d2)
            memberships[np.arange(d2.shape[0]), np.argmin(d2, axis=1)] = 1.0
        if self._health is not None:
            self._health.observe(signals_from_query(
                scaled, self._centers, memberships, m=self.m,
                degraded=degraded,
            ))
        return motion_signature(memberships, self.n_clusters)

    def _query_signature(
        self, record: RecordedMotion
    ) -> Tuple[MotionSignature, DegradationReport]:
        """Featurize one query record and reduce it to its 2c signature.

        A robust featurizer supplies its own degradation report; any other
        featurizer reads through the feature cache when one is set and
        reports a trivial clean ``policy="off"`` account.
        """
        if self._centers is None:
            raise NotFittedError("MotionClassifier used before fit")
        with span("model.signature"):
            if isinstance(self.featurizer, RobustFeaturizer):
                features, report = self.featurizer.features_with_report(record)
            else:
                if self.feature_cache is not None:
                    features = featurize_records(
                        self.featurizer, [record], cache=self.feature_cache,
                    )[0]
                else:
                    features = self.featurizer.features(record)
                report = DegradationReport(
                    policy="off", clean=True, n_windows_total=features.n_windows
                )
            record_event("query.featurized", key=record.key,
                         n_windows=features.n_windows)
            signature = self._signature_from_features(
                features, degraded=report.degraded
            )
        return signature, report

    def _query(
        self, record: RecordedMotion, k: int
    ) -> Tuple[List[RetrievedNeighbor], DegradationReport]:
        """The query path: signature, k-NN retrieval and provenance events."""
        if self._index is None:
            raise NotFittedError("MotionClassifier used before fit")
        with query_scope():
            signature, report = self._query_signature(record)
            with span("retrieval.knn_query", k=k,
                      backend=type(self._index).__name__):
                indices, distances = self._index.query(signature.vector, k)
            neighbors = [
                RetrievedNeighbor(
                    key=self._keys[i], label=self._labels[i], distance=float(d)
                )
                for i, d in zip(indices, distances)
            ]
            record_event("query.retrieved", key=record.key, k=k,
                         neighbors=[n.key for n in neighbors])
            if report.degraded:
                record_counter("robust.degraded_queries")
                record_event("query.degraded", key=record.key,
                             policy=report.policy,
                             faults=list(report.faults_detected))
        return neighbors, report

    def signature(self, record: RecordedMotion) -> MotionSignature:
        """The 2c signature of a (query) motion against the fitted clusters."""
        return self._query_signature(record)[0]

    def kneighbors(self, record: RecordedMotion, k: int = 5) -> List[RetrievedNeighbor]:
        """The ``k`` nearest database motions to ``record``."""
        return self._query(record, k)[0]

    def classify(self, record: RecordedMotion, k: int = 1) -> str:
        """Predict the motion class by k-NN vote (1-NN by default).

        Each call mints a provenance correlation id (when observability is
        enabled) threaded through featurization and retrieval: the
        ``query.*`` events in :mod:`repro.obs.events` share it, and the
        end-to-end latency lands in the ``model.query_latency_s``
        histogram (p50/p95/p99 in the export).
        """
        return self.classify_with_report(record, k).label

    def classify_with_report(
        self, record: RecordedMotion, k: int = 1
    ) -> RobustQueryResult:
        """Classify ``record`` and account for every degradation decision.

        Same vote as :meth:`classify`, but the answer carries the
        :class:`~repro.robust.report.DegradationReport` produced while
        featurizing the query (a trivial clean report when no robust policy
        is configured), and degraded queries are counted in
        :mod:`repro.obs` under ``robust.degraded_queries``.
        """
        with query_scope(), time_histogram("model.query_latency_s"):
            record_counter("model.queries")
            record_event("query.received", key=record.key,
                         label=record.label, k=k)
            neighbors, report = self._query(record, k)
            label = knn_vote(
                [n.label for n in neighbors],
                np.asarray([n.distance for n in neighbors]),
            )
            record_event("query.classified", key=record.key, label=label)
        return RobustQueryResult(label=label, neighbors=neighbors, report=report)

    def knn_class_fraction(self, record: RecordedMotion, k: int = 5) -> float:
        """Fraction of the ``k`` retrieved motions in the query's own class.

        The paper's second evaluation: "to find k-Nearest Neighbors for the
        given query motion and to check the percentage of returned motions
        in k which are actually present in the same group of query motion".
        """
        neighbors = self.kneighbors(record, k)
        same = sum(1 for n in neighbors if n.label == record.label)
        return same / len(neighbors)
