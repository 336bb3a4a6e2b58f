"""Drift detection against a frozen fit-time baseline.

The fuzzy-signature pipeline only stays accurate while the fitted FCM
centers still describe incoming motions: a new electrode placement, a
population shift or a silently degrading sensor all move queries away from
the cluster vocabulary long before accuracy numbers are recomputed.  This
module turns the per-query signals the classifier already produces into a
continuous check against the model *as it was fitted*:

* :class:`BaselineSnapshot` — frozen fit-time statistics (per-feature
  mean/std of the scaled training windows, mean max-membership, mean
  normalized membership entropy, FCM objective per window).  It is computed
  during :meth:`repro.core.model.MotionClassifier.fit` and can be persisted
  alongside the model artifact (:meth:`BaselineSnapshot.save` /
  :meth:`BaselineSnapshot.load`), so drift is always measured against the
  artifact that was actually deployed — not against whatever happens to be
  in memory.
* :class:`QuerySignals` / :func:`signals_from_query` — the per-query
  observation: mean max-membership, mean entropy, objective-per-window and
  per-feature means of one query's scaled windows.
* Detectors — sliding-window streaming statistics with deterministic
  thresholds, each producing a :class:`DriftReport`:
  :class:`MembershipConfidenceDetector` (max-membership drop),
  :class:`MembershipEntropyDetector` (entropy increase),
  :class:`ObjectiveTrendDetector` (quantization-error trend),
  :class:`FeatureShiftDetector` (per-feature mean shift vs. baseline) and
  :class:`DegradationRateDetector` (fraction of robust-degraded queries).
* :class:`DriftMonitor` — owns the detector set, folds one
  :class:`QuerySignals` per query (thread-safe) and mirrors detector health
  into ``health.drift.<detector>`` gauges plus ``health.query.*``
  histograms so drift state rides the normal ``repro.obs`` export.

Everything is deterministic: the same query sequence produces the same
reports, so the chaos/health tests can pin exact firing behavior.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SerializationError, ValidationError
from repro.obs.config import record_counter, record_gauge, record_histogram
from repro.utils.atomicio import atomic_write
from repro.utils.distances import squared_distances
from repro.utils.validation import check_array, shapes

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "BaselineSnapshot",
    "QuerySignals",
    "signals_from_query",
    "DriftReport",
    "DriftDetector",
    "MembershipConfidenceDetector",
    "MembershipEntropyDetector",
    "ObjectiveTrendDetector",
    "FeatureShiftDetector",
    "DegradationRateDetector",
    "default_detectors",
    "DriftMonitor",
]

#: Version tag embedded in persisted baseline files.
BASELINE_SCHEMA_VERSION = "repro.obs.baseline/v1"

#: Numerical floor for standard deviations and entropies.
_EPS = 1e-12


@shapes(membership="(n, c)")
def _normalized_entropy(membership: np.ndarray) -> np.ndarray:
    """Per-row Shannon entropy of a membership matrix, normalized to [0, 1].

    ``0`` is a fully confident (one-hot) row, ``1`` a uniform row; the
    ``log(c)`` normalization makes values comparable across cluster counts.
    """
    c = membership.shape[1]
    if c <= 1:
        return np.zeros(membership.shape[0])
    u = np.clip(membership, _EPS, 1.0)
    entropy = -(u * np.log(u)).sum(axis=1)
    return entropy / np.log(c)


@dataclass(frozen=True)
class BaselineSnapshot:
    """Frozen fit-time statistics drift is measured against.

    Attributes
    ----------
    feature_means / feature_stds:
        Per-dimension mean and standard deviation of the *scaled* training
        windows (the space queries are transformed into).
    max_membership_mean:
        Mean over training windows of the highest cluster membership — how
        confidently the fitted vocabulary describes its own training data.
    membership_entropy_mean:
        Mean normalized membership entropy of the training windows.
    objective_per_window:
        Final FCM objective ``J_m`` divided by the training window count —
        the per-window quantization error of the fitted centers.
    n_windows / n_clusters:
        Training window count and cluster count ``c``.
    feature_names:
        Combined-space dimension names, aligned with ``feature_means``.
    """

    feature_means: np.ndarray
    feature_stds: np.ndarray
    max_membership_mean: float
    membership_entropy_mean: float
    objective_per_window: float
    n_windows: int
    n_clusters: int
    feature_names: Tuple[str, ...] = ()

    @classmethod
    def from_fit(
        cls,
        scaled: np.ndarray,
        centers: np.ndarray,
        membership: np.ndarray,
        m: float = 2.0,
        feature_names: Sequence[str] = (),
    ) -> "BaselineSnapshot":
        """Compute the snapshot from one finished fit.

        Parameters
        ----------
        scaled:
            ``(n, d)`` scaled training windows (post
            :class:`~repro.features.scaling.FeatureScaler`).
        centers:
            ``(c, d)`` fitted cluster centers in the same space.
        membership:
            ``(n, c)`` training membership matrix.
        m:
            Fuzzifier used by the fit (weights the objective).
        feature_names:
            Dimension names for per-feature drift reporting.
        """
        scaled = check_array(scaled, name="scaled", ndim=2, allow_empty=False)
        centers = check_array(centers, name="centers", ndim=2,
                              allow_empty=False)
        membership = check_array(membership, name="membership", ndim=2,
                                 allow_empty=False)
        d2 = squared_distances(scaled, centers)
        objective = float(np.sum((membership ** m) * d2))
        return cls(
            feature_means=scaled.mean(axis=0),
            feature_stds=scaled.std(axis=0),
            max_membership_mean=float(membership.max(axis=1).mean()),
            membership_entropy_mean=float(
                _normalized_entropy(membership).mean()
            ),
            objective_per_window=objective / scaled.shape[0],
            n_windows=int(scaled.shape[0]),
            n_clusters=int(centers.shape[0]),
            feature_names=tuple(str(n) for n in feature_names),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (arrays become lists)."""
        return {
            "schema": BASELINE_SCHEMA_VERSION,
            "feature_means": [float(v) for v in self.feature_means],
            "feature_stds": [float(v) for v in self.feature_stds],
            "max_membership_mean": self.max_membership_mean,
            "membership_entropy_mean": self.membership_entropy_mean,
            "objective_per_window": self.objective_per_window,
            "n_windows": self.n_windows,
            "n_clusters": self.n_clusters,
            "feature_names": list(self.feature_names),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BaselineSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        schema = payload.get("schema", BASELINE_SCHEMA_VERSION)
        if schema != BASELINE_SCHEMA_VERSION:
            raise SerializationError(
                f"unsupported baseline schema {schema!r} "
                f"(expected {BASELINE_SCHEMA_VERSION!r})"
            )
        try:
            return cls(
                feature_means=np.asarray(payload["feature_means"],
                                         dtype=float),
                feature_stds=np.asarray(payload["feature_stds"], dtype=float),
                max_membership_mean=float(payload["max_membership_mean"]),
                membership_entropy_mean=float(
                    payload["membership_entropy_mean"]
                ),
                objective_per_window=float(payload["objective_per_window"]),
                n_windows=int(payload["n_windows"]),
                n_clusters=int(payload["n_clusters"]),
                feature_names=tuple(payload.get("feature_names", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed baseline snapshot: {exc}"
            ) from exc

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the snapshot as JSON (atomic write); returns the path."""
        path = Path(path)
        try:
            with atomic_write(path, mode="w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise SerializationError(
                f"could not write baseline snapshot {path}: {exc}"
            ) from exc
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BaselineSnapshot":
        """Load a snapshot persisted by :meth:`save`."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise SerializationError(
                f"could not read baseline snapshot {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"baseline snapshot {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class QuerySignals:
    """The drift-relevant observation extracted from one query.

    Attributes
    ----------
    max_membership_mean:
        Mean over the query's windows of the highest cluster membership.
    membership_entropy_mean:
        Mean normalized membership entropy of the query's windows.
    objective_per_window:
        Eq. 4 objective of the query's windows against the *fitted* centers,
        divided by the window count (per-window quantization error).
    feature_means:
        Per-dimension mean of the query's scaled windows.
    n_windows:
        Window count of the query.
    degraded:
        Whether the robust layer degraded this query's input.
    """

    max_membership_mean: float
    membership_entropy_mean: float
    objective_per_window: float
    feature_means: np.ndarray
    n_windows: int
    degraded: bool = False


def signals_from_query(
    scaled: np.ndarray,
    centers: np.ndarray,
    membership: np.ndarray,
    m: float = 2.0,
    degraded: bool = False,
) -> QuerySignals:
    """Compute one query's :class:`QuerySignals`.

    Parameters mirror :meth:`BaselineSnapshot.from_fit`, applied to the
    query's scaled windows and its Eq. 9 memberships against the fitted
    centers.
    """
    scaled = check_array(scaled, name="scaled", ndim=2, allow_empty=False)
    centers = check_array(centers, name="centers", ndim=2, allow_empty=False)
    membership = check_array(membership, name="membership", ndim=2,
                             allow_empty=False)
    d2 = squared_distances(scaled, centers)
    objective = float(np.sum((membership ** m) * d2))
    return QuerySignals(
        max_membership_mean=float(membership.max(axis=1).mean()),
        membership_entropy_mean=float(_normalized_entropy(membership).mean()),
        objective_per_window=objective / scaled.shape[0],
        feature_means=scaled.mean(axis=0),
        n_windows=int(scaled.shape[0]),
        degraded=bool(degraded),
    )


@dataclass(frozen=True)
class DriftReport:
    """One detector's verdict over its current sliding window.

    Attributes
    ----------
    detector:
        Detector name (stable identifier, e.g. ``membership_confidence``).
    status:
        ``"warming"`` (fewer than ``min_samples`` observations), ``"ok"``
        or ``"drift"``.
    value:
        The windowed statistic the verdict is based on.
    baseline:
        The fit-time reference value.
    threshold:
        The firing boundary the value is compared against.
    n_samples:
        Observations currently inside the sliding window.
    detail:
        Human-readable specifics (e.g. the worst-shifted feature name).
    """

    detector: str
    status: str
    value: float
    baseline: float
    threshold: float
    n_samples: int
    detail: str = ""

    @property
    def firing(self) -> bool:
        """True when the detector reports drift."""
        return self.status == "drift"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "detector": self.detector,
            "status": self.status,
            "value": self.value,
            "baseline": self.baseline,
            "threshold": self.threshold,
            "n_samples": self.n_samples,
            "detail": self.detail,
        }


class DriftDetector:
    """Base class: one sliding-window statistic with a deterministic threshold.

    Parameters
    ----------
    name:
        Stable identifier used in reports, gauges and alerts.
    window:
        Sliding-window length (queries).
    min_samples:
        Observations required before the detector leaves ``"warming"``.
    """

    def __init__(self, name: str, window: int = 64, min_samples: int = 8):
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        if not 1 <= min_samples <= window:
            raise ValidationError(
                f"min_samples must be in [1, window={window}], "
                f"got {min_samples}"
            )
        self.name = name
        self.window = int(window)
        self.min_samples = int(min_samples)
        self._values: Deque[float] = deque(maxlen=self.window)

    # -- subclass hooks -------------------------------------------------

    def _extract(self, signals: QuerySignals) -> float:
        """The scalar this detector tracks per query."""
        raise NotImplementedError

    def _verdict(self, value: float) -> Tuple[bool, float, float, str]:
        """``(is_drift, baseline, threshold, detail)`` for a windowed value."""
        raise NotImplementedError

    # -- streaming interface --------------------------------------------

    def update(self, signals: QuerySignals) -> None:
        """Fold one query's signals into the sliding window."""
        self._values.append(self._extract(signals))

    @property
    def n_samples(self) -> int:
        """Observations currently inside the sliding window."""
        return len(self._values)

    def windowed_value(self) -> float:
        """Mean of the sliding window (0.0 while empty)."""
        if not self._values:
            return 0.0
        return float(sum(self._values) / len(self._values))

    def report(self) -> DriftReport:
        """The detector's current :class:`DriftReport`."""
        value = self.windowed_value()
        is_drift, baseline, threshold, detail = self._verdict(value)
        if len(self._values) < self.min_samples:
            status = "warming"
        else:
            status = "drift" if is_drift else "ok"
        return DriftReport(
            detector=self.name,
            status=status,
            value=value,
            baseline=baseline,
            threshold=threshold,
            n_samples=len(self._values),
            detail=detail,
        )

    def reset(self) -> None:
        """Drop the sliding window."""
        self._values.clear()


class MembershipConfidenceDetector(DriftDetector):
    """Fires when query max-membership drops below the fit-time confidence.

    Parameters
    ----------
    baseline:
        The fit-time snapshot.
    max_drop:
        Allowed relative drop: the detector fires when the windowed mean
        max-membership falls below ``baseline * (1 - max_drop)``.
    """

    def __init__(self, baseline: BaselineSnapshot, max_drop: float = 0.2,
                 window: int = 64, min_samples: int = 8):
        super().__init__("membership_confidence", window, min_samples)
        if not 0.0 < max_drop < 1.0:
            raise ValidationError(f"max_drop must be in (0, 1), got {max_drop}")
        self.baseline = baseline
        self.max_drop = float(max_drop)

    def _extract(self, signals: QuerySignals) -> float:
        return signals.max_membership_mean

    def _verdict(self, value: float) -> Tuple[bool, float, float, str]:
        reference = self.baseline.max_membership_mean
        threshold = reference * (1.0 - self.max_drop)
        return value < threshold, reference, threshold, (
            f"windowed max-membership {value:.3f} vs fit-time "
            f"{reference:.3f} (floor {threshold:.3f})"
        )


class MembershipEntropyDetector(DriftDetector):
    """Fires when membership entropy rises above the fit-time level.

    Parameters
    ----------
    baseline:
        The fit-time snapshot.
    max_increase:
        Allowed absolute increase of the normalized entropy (which lives
        in ``[0, 1]``) over the fit-time mean.
    """

    def __init__(self, baseline: BaselineSnapshot, max_increase: float = 0.15,
                 window: int = 64, min_samples: int = 8):
        super().__init__("membership_entropy", window, min_samples)
        if max_increase <= 0.0:
            raise ValidationError(
                f"max_increase must be positive, got {max_increase}"
            )
        self.baseline = baseline
        self.max_increase = float(max_increase)

    def _extract(self, signals: QuerySignals) -> float:
        return signals.membership_entropy_mean

    def _verdict(self, value: float) -> Tuple[bool, float, float, str]:
        reference = self.baseline.membership_entropy_mean
        threshold = reference + self.max_increase
        return value > threshold, reference, threshold, (
            f"windowed entropy {value:.3f} vs fit-time {reference:.3f} "
            f"(ceiling {threshold:.3f})"
        )


class ObjectiveTrendDetector(DriftDetector):
    """Fires when per-window quantization error outgrows the fit-time value.

    Tracks the Eq. 4 objective of query windows against the *fitted*
    centers, normalized per window — the streaming continuation of the FCM
    objective trend that :mod:`repro.fuzzy.cmeans` records per iteration
    at fit time.

    Parameters
    ----------
    baseline:
        The fit-time snapshot.
    max_ratio:
        Firing boundary as a multiple of the fit-time objective-per-window.
    """

    def __init__(self, baseline: BaselineSnapshot, max_ratio: float = 1.5,
                 window: int = 64, min_samples: int = 8):
        super().__init__("objective_trend", window, min_samples)
        if max_ratio <= 1.0:
            raise ValidationError(f"max_ratio must exceed 1, got {max_ratio}")
        self.baseline = baseline
        self.max_ratio = float(max_ratio)

    def _extract(self, signals: QuerySignals) -> float:
        return signals.objective_per_window

    def _verdict(self, value: float) -> Tuple[bool, float, float, str]:
        reference = max(self.baseline.objective_per_window, _EPS)
        threshold = reference * self.max_ratio
        return value > threshold, reference, threshold, (
            f"windowed objective/window {value:.4g} vs fit-time "
            f"{reference:.4g} (ceiling {threshold:.4g})"
        )


class FeatureShiftDetector(DriftDetector):
    """Fires when any feature's windowed mean shifts away from the baseline.

    The shift of each combined-space dimension is measured in units of its
    fit-time standard deviation; the detector tracks the worst dimension.

    Parameters
    ----------
    baseline:
        The fit-time snapshot.
    max_shift_stds:
        Firing boundary: maximum per-feature shift in fit-time standard
        deviations.
    """

    def __init__(self, baseline: BaselineSnapshot,
                 max_shift_stds: float = 1.0,
                 window: int = 64, min_samples: int = 8):
        super().__init__("feature_shift", window, min_samples)
        if max_shift_stds <= 0.0:
            raise ValidationError(
                f"max_shift_stds must be positive, got {max_shift_stds}"
            )
        self.baseline = baseline
        self.max_shift_stds = float(max_shift_stds)
        self._means: Deque[np.ndarray] = deque(maxlen=self.window)
        self._worst_feature = ""

    def update(self, signals: QuerySignals) -> None:
        """Fold one query's per-feature means into the sliding window."""
        self._means.append(np.asarray(signals.feature_means, dtype=float))
        self._values.append(0.0)  # keep n_samples bookkeeping shared

    def windowed_value(self) -> float:
        """Worst per-feature shift (in baseline stds) over the window."""
        if not self._means:
            self._worst_feature = ""
            return 0.0
        mean = np.mean(np.stack(tuple(self._means)), axis=0)
        stds = np.maximum(self.baseline.feature_stds, _EPS)
        shift = np.abs(mean - self.baseline.feature_means) / stds
        worst = int(np.argmax(shift))
        names = self.baseline.feature_names
        self._worst_feature = names[worst] if worst < len(names) else str(worst)
        return float(shift[worst])

    def _verdict(self, value: float) -> Tuple[bool, float, float, str]:
        detail = (f"worst feature {self._worst_feature!r} shifted "
                  f"{value:.2f} fit-time stds") if self._worst_feature else ""
        return value > self.max_shift_stds, 0.0, self.max_shift_stds, detail

    def reset(self) -> None:
        """Drop the sliding window."""
        super().reset()
        self._means.clear()
        self._worst_feature = ""


class DegradationRateDetector(DriftDetector):
    """Fires when too many recent queries arrived degraded.

    Tracks the fraction of queries inside the window whose
    :class:`~repro.robust.report.DegradationReport` marked them degraded
    (channel dropout, NaN repair, window dropping...).

    Parameters
    ----------
    max_fraction:
        Firing boundary on the windowed degraded fraction.
    """

    def __init__(self, max_fraction: float = 0.25,
                 window: int = 64, min_samples: int = 8):
        super().__init__("degradation_rate", window, min_samples)
        if not 0.0 < max_fraction <= 1.0:
            raise ValidationError(
                f"max_fraction must be in (0, 1], got {max_fraction}"
            )
        self.max_fraction = float(max_fraction)

    def _extract(self, signals: QuerySignals) -> float:
        return 1.0 if signals.degraded else 0.0

    def _verdict(self, value: float) -> Tuple[bool, float, float, str]:
        return value > self.max_fraction, 0.0, self.max_fraction, (
            f"degraded fraction {value:.2f} over the last "
            f"{self.n_samples} queries"
        )


def default_detectors(baseline: BaselineSnapshot,
                      window: int = 64,
                      min_samples: int = 8) -> List[DriftDetector]:
    """The standard detector set over one fit-time baseline."""
    return [
        MembershipConfidenceDetector(baseline, window=window,
                                     min_samples=min_samples),
        MembershipEntropyDetector(baseline, window=window,
                                  min_samples=min_samples),
        ObjectiveTrendDetector(baseline, window=window,
                               min_samples=min_samples),
        FeatureShiftDetector(baseline, window=window,
                             min_samples=min_samples),
        DegradationRateDetector(window=window, min_samples=min_samples),
    ]


class DriftMonitor:
    """Feeds per-query signals to a detector set and exports their health.

    Attach to a fitted classifier via
    :meth:`repro.core.model.MotionClassifier.attach_health`; every query
    then folds one :class:`QuerySignals` into every detector.  While
    observability is enabled, each observation also lands in the
    ``health.query.*`` histograms and every :meth:`reports` call refreshes
    the ``health.drift.<detector>`` status gauges (0 = ok/warming, 1 =
    drift), which is what the SLO rules engine reads.

    Parameters
    ----------
    baseline:
        The fit-time snapshot the detectors compare against.
    detectors:
        Detector set; defaults to :func:`default_detectors`.
    """

    def __init__(self, baseline: BaselineSnapshot,
                 detectors: Optional[Sequence[DriftDetector]] = None):
        import threading

        self.baseline = baseline
        self.detectors: List[DriftDetector] = (
            list(detectors) if detectors is not None
            else default_detectors(baseline)
        )
        self._lock = threading.Lock()
        self._queries = 0

    @property
    def n_queries(self) -> int:
        """Queries observed so far."""
        return self._queries

    def observe(self, signals: QuerySignals) -> None:
        """Fold one query's signals into every detector (thread-safe)."""
        with self._lock:
            self._queries += 1
            for detector in self.detectors:
                detector.update(signals)
        record_counter("health.queries")
        record_histogram("health.query.max_membership",
                         signals.max_membership_mean)
        record_histogram("health.query.entropy",
                         signals.membership_entropy_mean)
        record_histogram("health.query.objective",
                         signals.objective_per_window)

    def reports(self) -> List[DriftReport]:
        """Every detector's current report; refreshes the status gauges."""
        with self._lock:
            reports = [detector.report() for detector in self.detectors]
        for report in reports:
            record_gauge(f"health.drift.{report.detector}",
                         1.0 if report.firing else 0.0)
        return reports

    @property
    def ok(self) -> bool:
        """True when no detector currently reports drift."""
        return not any(r.firing for r in self.reports())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary: query count plus every detector report."""
        return {
            "queries": self._queries,
            "reports": [r.to_dict() for r in self.reports()],
        }
