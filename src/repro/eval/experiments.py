"""Experiment drivers for the paper's Section 6 evaluation.

One :func:`run_experiment` call reproduces one point of the paper's figures:
fit the classifier on the database split, query every test motion, and report

* the misclassification rate (Figures 6–7), using 1-NN classification, and
* the k-NN classified percent with k = 5 (Figures 8–9).

:func:`sweep` runs the full grid — window sizes × cluster counts — producing
the series plotted in the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import MotionClassifier
from repro.data.dataset import MotionDataset
from repro.errors import ValidationError
from repro.eval.metrics import (
    confusion_matrix,
    knn_classified_percent,
    misclassification_rate,
)
from repro.utils.rng import SeedLike

__all__ = ["ExperimentResult", "SweepResult", "run_experiment", "sweep"]

#: The paper's window-size grid (milliseconds).
PAPER_WINDOW_SIZES_MS: Tuple[float, ...] = (50.0, 100.0, 150.0, 200.0)

#: A cluster grid spanning the paper's 2–40 sweep.
PAPER_CLUSTER_GRID: Tuple[int, ...] = (2, 5, 10, 15, 20, 25, 30, 35, 40)


@dataclass(frozen=True)
class ExperimentResult:
    """Metrics of one (window size, cluster count) configuration.

    Attributes
    ----------
    window_ms, n_clusters, k:
        The configuration.
    misclassification_pct:
        Percent of misclassified test queries (1-NN).
    knn_classified_pct:
        Average percent of k retrieved motions in the query's class.
    n_queries:
        Number of test queries evaluated.
    true_labels, predicted_labels:
        Per-query detail for confusion analysis.
    """

    window_ms: float
    n_clusters: int
    k: int
    misclassification_pct: float
    knn_classified_pct: float
    n_queries: int
    true_labels: Tuple[str, ...] = field(default=(), repr=False)
    predicted_labels: Tuple[str, ...] = field(default=(), repr=False)

    def confusion(self):
        """Confusion matrix of the classification run."""
        return confusion_matrix(list(self.true_labels), list(self.predicted_labels))


@dataclass(frozen=True)
class SweepResult:
    """All grid points of one sweep, with figure-style series accessors."""

    results: Tuple[ExperimentResult, ...]

    def series(
        self, metric: str = "misclassification_pct"
    ) -> Dict[float, Tuple[List[int], List[float]]]:
        """Figure series: window size → (cluster counts, metric values).

        ``metric`` is ``"misclassification_pct"`` (Figures 6–7) or
        ``"knn_classified_pct"`` (Figures 8–9).
        """
        if metric not in ("misclassification_pct", "knn_classified_pct"):
            raise ValidationError(f"unknown metric {metric!r}")
        out: Dict[float, Tuple[List[int], List[float]]] = {}
        for window in sorted({r.window_ms for r in self.results}):
            points = sorted(
                (r.n_clusters, getattr(r, metric))
                for r in self.results
                if r.window_ms == window
            )
            out[window] = ([c for c, _ in points], [v for _, v in points])
        return out

    def best(self, metric: str = "misclassification_pct") -> ExperimentResult:
        """The best grid point (lowest misclassification / highest k-NN %)."""
        if metric == "misclassification_pct":
            return min(self.results, key=lambda r: r.misclassification_pct)
        if metric == "knn_classified_pct":
            return max(self.results, key=lambda r: r.knn_classified_pct)
        raise ValidationError(f"unknown metric {metric!r}")


def run_experiment(
    train: MotionDataset,
    test: MotionDataset,
    window_ms: float = 100.0,
    n_clusters: int = 15,
    k: int = 5,
    seed: SeedLike = 0,
    classifier: Optional[MotionClassifier] = None,
    **classifier_kwargs,
) -> ExperimentResult:
    """Evaluate one configuration on a train/test split.

    Parameters
    ----------
    train:
        The database the classifier is fitted on.
    test:
        Query motions (never seen by FCM or the scaler).
    window_ms, n_clusters:
        The configuration under test.
    k:
        Neighbours for the retrieval metric (5 throughout the paper).
    seed:
        Clustering seed.
    classifier:
        A pre-built (unfitted) classifier; overrides the config arguments.
    classifier_kwargs:
        Extra :class:`~repro.core.model.MotionClassifier` arguments
        (``scaler_mode``, ``clusterer``, ``featurizer``, ...).
    """
    if len(test) == 0:
        raise ValidationError("test split is empty")
    model = classifier or MotionClassifier(
        n_clusters=n_clusters, window_ms=window_ms, **classifier_kwargs
    )
    model.fit(train, seed=seed)
    true_labels: List[str] = []
    predicted: List[str] = []
    fractions: List[float] = []
    for record in test:
        # One retrieval per query serves both metrics: every index orders
        # ties by (distance, row), so the head of the k-list is the 1-NN.
        neighbors = model.kneighbors(record, k=k)
        true_labels.append(record.label)
        predicted.append(neighbors[0].label)
        fractions.append(
            sum(n.label == record.label for n in neighbors) / len(neighbors)
        )
    return ExperimentResult(
        window_ms=model.featurizer.window_ms,
        n_clusters=model.n_clusters,
        k=k,
        misclassification_pct=misclassification_rate(true_labels, predicted),
        knn_classified_pct=knn_classified_percent(fractions),
        n_queries=len(test),
        true_labels=tuple(true_labels),
        predicted_labels=tuple(predicted),
    )


def sweep(
    train: MotionDataset,
    test: MotionDataset,
    window_sizes_ms: Sequence[float] = PAPER_WINDOW_SIZES_MS,
    cluster_counts: Sequence[int] = PAPER_CLUSTER_GRID,
    k: int = 5,
    seed: SeedLike = 0,
    **classifier_kwargs,
) -> SweepResult:
    """Run the paper's full grid (window sizes × cluster counts)."""
    if not window_sizes_ms or not cluster_counts:
        raise ValidationError("sweep needs at least one window size and cluster count")
    results = []
    for window_ms in window_sizes_ms:
        for n_clusters in cluster_counts:
            results.append(
                run_experiment(
                    train,
                    test,
                    window_ms=window_ms,
                    n_clusters=n_clusters,
                    k=k,
                    seed=seed,
                    **classifier_kwargs,
                )
            )
    return SweepResult(results=tuple(results))
