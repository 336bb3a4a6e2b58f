"""Regression: worker-side metric state survives the process backend.

Process-pool workers run with fresh observability state; the parent must
fold each worker's ``MetricsRegistry`` snapshot (including every histogram
observation) back into its own registry, in input order.  The contract
asserted here: a histogram fed deterministic observations exports the
*same* summary — count, totals and p50/p95/p99 — whether the
featurization ran serially or fanned out over processes.

The instrumented featurizer records one observation per feature window, so
each worker ships many observations per record; merged in input order, the
parent's samples are the serial run's, in the serial run's order.
"""

from __future__ import annotations

import numpy as np

from repro.features.combine import WindowFeaturizer
from repro.obs.clock import ManualClock
from repro.obs.config import capture, record_counter, record_histogram
from repro.parallel.runner import featurize_records
from tests.factories import toy_motion_dataset

HISTOGRAM_NAME = "test.worker.feature_mass"
COUNTER_NAME = "test.worker.records"


class InstrumentedFeaturizer:
    """Picklable featurizer emitting one deterministic observation per window.

    Module-level so the process backend can pickle it; the observed values
    are a pure function of the record, so serial and process runs see the
    same observation sequence.
    """

    def __init__(self) -> None:
        self._inner = WindowFeaturizer(window_ms=100.0)

    def features(self, record):
        feats = self._inner.features(record)
        record_counter(COUNTER_NAME)
        for row in feats.matrix:
            record_histogram(HISTOGRAM_NAME, float(np.abs(row).sum()))
        return feats

    def cache_fingerprint(self) -> str:
        return "instrumented/" + self._inner.cache_fingerprint()


def run_featurize(records, backend: str, n_jobs: int):
    """Featurize under a fresh capture session; return (features, export)."""
    with capture(clock=ManualClock()) as state:
        features = featurize_records(
            InstrumentedFeaturizer(), records, n_jobs=n_jobs, backend=backend
        )
        exported = state.registry.to_dict()
    return features, exported


class TestProcessBackendMetricsMerge:
    def test_histogram_summary_matches_serial(self):
        records = list(toy_motion_dataset())
        serial_feats, serial = run_featurize(records, "serial", 1)
        process_feats, process = run_featurize(records, "process", 4)

        # The outputs themselves must be byte-identical (sanity: the same
        # work actually ran on both paths).
        assert len(process_feats) == len(serial_feats)
        for a, b in zip(serial_feats, process_feats):
            assert a.matrix.tobytes() == b.matrix.tobytes()

        # Counters recorded inside workers merge into the parent.
        assert serial["counters"][COUNTER_NAME] == len(records)
        assert process["counters"][COUNTER_NAME] == len(records)

        # Every worker ships more than five observations, and the full
        # histogram export — count, total, min/max/mean, p50/p95/p99 AND
        # the samples — matches the serial run exactly: the merge extends
        # the same observation sequence.
        assert serial["histograms"][HISTOGRAM_NAME]["count"] >= 5 * len(records)
        assert process["histograms"][HISTOGRAM_NAME] == \
            serial["histograms"][HISTOGRAM_NAME]

    def test_histogram_count_and_p95_explicit(self):
        # The headline contract, spelled out: fan-out must not lose
        # observations or distort the tail quantile.
        records = list(toy_motion_dataset())
        _, serial = run_featurize(records, "serial", 1)
        _, process = run_featurize(records, "process", 4)

        summary = process["histograms"][HISTOGRAM_NAME]
        assert summary["count"] == serial["histograms"][HISTOGRAM_NAME]["count"]
        assert summary["p95"] == serial["histograms"][HISTOGRAM_NAME]["p95"]

    def test_thread_backend_loses_nothing(self):
        # Threads share the parent registry directly; observation *order*
        # across threads is scheduler-dependent, so only order-independent
        # fields are compared exactly (the total is a sequential sum).
        records = list(toy_motion_dataset())
        _, serial = run_featurize(records, "serial", 1)
        _, threaded = run_featurize(records, "thread", 4)

        assert threaded["counters"][COUNTER_NAME] == len(records)
        got = threaded["histograms"][HISTOGRAM_NAME]
        want = serial["histograms"][HISTOGRAM_NAME]
        assert got["count"] == want["count"]
        for key in ("min", "max", "p50", "p95", "p99"):
            assert got[key] == want[key], key
        np.testing.assert_allclose(got["total"], want["total"])
