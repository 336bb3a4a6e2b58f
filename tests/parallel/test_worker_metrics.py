"""Regression: worker-side observability survives the process pool.

Process-pool workers run with fresh observability state; the parent must
fold each worker's ``MetricsRegistry`` snapshot (including every histogram
observation) and its per-stage span aggregates back into its own state, in
input order.  The contracts asserted here: a histogram fed deterministic
observations exports the *same* summary — count, totals and p50/p95/p99 —
whether the featurization ran serially or fanned out over processes, and a
fanned-out profile reports the serial run's stage names, call counts and
counters.

The instrumented featurizer records one observation per feature window, so
each worker ships many observations per record; merged in input order, the
parent's samples are the serial run's, in the serial run's order.
"""

from __future__ import annotations

import numpy as np

from repro.features.combine import WindowFeaturizer
from repro.obs.clock import ManualClock
from repro.obs.config import capture, record_counter, record_histogram
from repro.obs.export import to_json
from repro.obs.profile import run_profile
from repro.parallel.runner import featurize_records
from tests.factories import toy_motion_dataset

HISTOGRAM_NAME = "test.worker.feature_mass"
COUNTER_NAME = "test.worker.records"


class InstrumentedFeaturizer:
    """Picklable featurizer emitting one deterministic observation per window.

    Module-level so the process pool can pickle it; the observed values
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


def run_featurize(records, n_jobs: int):
    """Featurize under a fresh capture session; return (features, export)."""
    with capture(clock=ManualClock()) as state:
        features = featurize_records(
            InstrumentedFeaturizer(), records, n_jobs=n_jobs
        )
        exported = state.registry.to_dict()
    return features, exported


class TestProcessBackendMetricsMerge:
    def test_histogram_summary_matches_serial(self):
        records = list(toy_motion_dataset())
        serial_feats, serial = run_featurize(records, 1)
        process_feats, process = run_featurize(records, 4)

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
        _, serial = run_featurize(records, 1)
        _, process = run_featurize(records, 4)

        summary = process["histograms"][HISTOGRAM_NAME]
        assert summary["count"] == serial["histograms"][HISTOGRAM_NAME]["count"]
        assert summary["p95"] == serial["histograms"][HISTOGRAM_NAME]["p95"]


PROFILE_KWARGS = dict(participants=1, trials=2, clusters=4)


class TestProcessPoolStageMerge:
    def test_profile_reports_the_serial_stages_and_counters(self):
        serial = run_profile(**PROFILE_KWARGS)
        fanned = run_profile(n_jobs=2, **PROFILE_KWARGS)

        def calls(payload):
            return {name: stat["calls"]
                    for name, stat in payload["stages"].items()}

        # Spans recorded inside the workers (features.extract,
        # features.svd, ...) reach the parent's stage table.
        assert calls(fanned) == calls(serial)
        assert fanned["counters"] == serial["counters"]

    def test_pinned_clock_profile_is_reproducible(self):
        # Workers record on a copy of the parent's clock, so a pinned-clock
        # export does not depend on worker scheduling or real time.
        def run():
            return run_profile(clock=ManualClock(auto_advance=1e-6),
                               n_jobs=2, **PROFILE_KWARGS)

        assert to_json(run()) == to_json(run())
