"""The ``repro-motions profile`` pipeline: synthetic end-to-end run + report.

:func:`run_profile` builds a small synthetic capture campaign, fits the
classifier and queries every held-out motion with observability enabled,
then returns the collected ``repro.obs/v3`` payload (stages, spans, metrics,
FCM convergence series) plus a ``meta`` section describing the run.

This module sits *above* the pipeline (it imports ``repro.core``), so it is
intentionally not re-exported from ``repro.obs``'s package root — import it
as ``repro.obs.profile``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.model import MotionClassifier
from repro.data.protocol import build_dataset, hand_protocol, leg_protocol
from repro.errors import ValidationError
from repro.eval.metrics import misclassification_rate
from repro.features.combine import WindowFeaturizer
from repro.obs.clock import Clock
from repro.obs.config import capture, span
from repro.obs.export import collect_payload

__all__ = ["REQUIRED_STAGES", "run_profile"]

#: Stage names a full profile run is guaranteed to emit (the documented
#: contract in docs/OBSERVABILITY.md; the integration tests pin these).
REQUIRED_STAGES = (
    "signal.preprocess",
    "features.windowing",
    "features.iav",
    "features.svd",
    "fcm.fit",
    "fcm.iterate",
    "signature.build",
    "retrieval.knn_query",
)


def run_profile(
    study: str = "hand",
    participants: int = 1,
    trials: int = 2,
    clusters: int = 8,
    window_ms: float = 100.0,
    stride_ms: Optional[float] = None,
    k: int = 5,
    test_fraction: float = 0.25,
    seed: int = 0,
    clock: Optional[Clock] = None,
    max_spans: Optional[int] = None,
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    robust_policy: str = "off",
) -> Dict[str, Any]:
    """Profile one synthetic end-to-end pipeline run.

    Runs acquisition (signal synthesis + conditioning), windowed IAV/SVD
    feature extraction, FCM clustering, signature building and k-NN querying
    inside a fresh :func:`repro.obs.config.capture` session, and returns the
    exported payload.  Deterministic given ``seed`` and an injected
    ``clock``.  With ``robust_policy`` other than ``"off"`` the feature path
    runs through :mod:`repro.robust` (adding ``robust.*`` spans/counters to
    the payload when degradation occurs).
    """
    if study == "hand":
        proto = hand_protocol()
    elif study == "leg":
        proto = leg_protocol()
    else:
        raise ValidationError(f"unknown study {study!r}; use 'hand' or 'leg'")

    with capture(clock=clock, max_spans=max_spans) as state:
        with span("profile.total", study=study):
            with span("profile.build_dataset", participants=participants,
                      trials=trials):
                dataset = build_dataset(
                    proto,
                    n_participants=participants,
                    trials_per_motion=trials,
                    seed=seed,
                )
            train, test = dataset.train_test_split(test_fraction, seed=seed)
            featurizer = WindowFeaturizer(window_ms=window_ms,
                                          stride_ms=stride_ms)
            model = MotionClassifier(n_clusters=clusters,
                                     featurizer=featurizer,
                                     n_jobs=n_jobs,
                                     cache_dir=cache_dir,
                                     robust_policy=robust_policy)
            model.fit(train, seed=seed)
            k_eff = min(k, len(train))
            true_labels, predicted = [], []
            for record in test:
                # Score once; the 1-NN label heads the k-list (run_experiment).
                result = model.classify_with_report(record, k=k_eff)
                true_labels.append(record.label)
                predicted.append(result.neighbors[0].label)
        meta = {
            "study": study,
            "participants": participants,
            "trials_per_motion": trials,
            "n_train": len(train),
            "n_queries": len(test),
            "n_clusters": clusters,
            "window_ms": window_ms,
            "stride_ms": stride_ms,
            "k": k_eff,
            "seed": seed,
            "n_jobs": n_jobs,
            "cache_dir": cache_dir,
            "robust_policy": robust_policy,
            "misclassification_pct": misclassification_rate(true_labels,
                                                            predicted),
        }
        if model.feature_cache is not None:
            meta["feature_cache"] = model.feature_cache.stats.as_dict()
        payload = collect_payload(state, meta=meta)
    return payload
