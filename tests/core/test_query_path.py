"""One query path: every MotionClassifier query view gives the same answer.

``signature``, ``kneighbors``, ``classify``, ``classify_with_report`` and
``knn_class_fraction`` all run the same featurize → Eq. 9 signature → k-NN
path, so they must agree on the answer, on what the drift monitor and the
degradation counters see, on the feature cache, and on the spans opened.
"""

from __future__ import annotations

import pytest

from repro.core.model import MotionClassifier
from repro.obs.config import capture
from repro.obs.drift import DegradationRateDetector
from repro.robust import EMGChannelDropout
from tests.factories import toy_motion_dataset


@pytest.fixture(scope="module")
def dataset():
    return toy_motion_dataset()


def _repair_model(dataset):
    return MotionClassifier(n_clusters=4, window_ms=100.0,
                            robust_policy="repair").fit(dataset, seed=0)


def test_classify_feeds_degradation_to_monitor_and_counter(dataset):
    model = _repair_model(dataset)
    monitor = model.attach_health()
    faulted = EMGChannelDropout(n_channels=1).apply(dataset[0], seed=1)
    with capture() as state:
        model.classify(faulted, k=1)
    detector = next(d for d in monitor.detectors
                    if isinstance(d, DegradationRateDetector))
    assert detector.n_samples == 1
    assert detector.windowed_value() == 1.0
    counters = state.registry.to_dict()["counters"]
    assert counters.get("robust.degraded_queries") == 1


def test_classify_with_report_reads_the_feature_cache(dataset, tmp_path):
    model = MotionClassifier(n_clusters=4, window_ms=100.0,
                             cache_dir=tmp_path).fit(dataset, seed=0)
    hits = model.feature_cache.stats.hits
    model.classify_with_report(dataset[0], k=1)
    assert model.feature_cache.stats.hits == hits + 1


def _query_spans(call):
    with capture() as state:
        call()
    return sorted({r.name for r in state.collector.records()
                   if r.name.startswith(("model.", "retrieval."))})


def test_classify_and_classify_with_report_open_the_same_spans(dataset):
    model = _repair_model(dataset)
    record = dataset[0]
    plain = _query_spans(lambda: model.classify(record, k=3))
    reported = _query_spans(lambda: model.classify_with_report(record, k=3))
    assert plain == reported
    assert {"model.signature", "retrieval.knn_query"} <= set(plain)


@pytest.mark.parametrize("clusterer", ["fcm", "kmeans"])
@pytest.mark.parametrize("robust_policy", [None, "repair"])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
def test_views_agree(dataset, clusterer, robust_policy, faulted):
    model = MotionClassifier(n_clusters=4, window_ms=100.0,
                             clusterer=clusterer,
                             robust_policy=robust_policy).fit(dataset, seed=0)
    record = dataset[5]
    if faulted:
        # A flat (zeroed) channel featurizes without a robust policy too.
        record = EMGChannelDropout(n_channels=1, mode="flat").apply(
            record, seed=3)
    k = 3
    result = model.classify_with_report(record, k)
    assert model.classify(record, k) == result.label
    assert model.kneighbors(record, k) == result.neighbors
