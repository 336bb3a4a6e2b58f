"""The span and metric name registry.

Dashboards, the profiling report and the observability tests all key on
literal span/metric names; an ad-hoc string in some helper drifts out of
every one of them silently.  This module is the single declaration site:
lint rule R11 statically checks that every ``span(...)`` /
``record_counter(...)`` / ``record_gauge(...)`` / ``record_series(...)`` /
``time_histogram(...)`` / ``record_event(...)`` call outside
:mod:`repro.obs` uses a name registered here (literals must appear in the
``*_NAMES`` sets; f-string names must start with one of the
``*_PREFIXES``).

Adding an instrumentation point is a two-line change: emit the name,
register it here.  Removing one without deleting its registration is
harmless (the registry over-approximates what is emitted).
"""

from __future__ import annotations

__all__ = [
    "EVENT_NAMES",
    "EVENT_PREFIXES",
    "METRIC_NAMES",
    "METRIC_PREFIXES",
    "SPAN_NAMES",
    "SPAN_PREFIXES",
]

#: Every literal span name emitted by the pipeline.
SPAN_NAMES = frozenset({
    # signal acquisition and conditioning
    "signal.acquire",
    "signal.preprocess",
    "signal.filtfilt",
    "signal.resample",
    # feature extraction
    "features.extract",
    "features.windowing",
    "features.iav",
    "features.svd",
    "features.batched.stack",
    "features.batched.svd",
    "features.batched.emg",
    # fuzzy C-means signatures
    "fcm.fit",
    "fcm.restart",
    "fcm.iterate",
    "fcm.membership_query",
    "signature.build",
    # classification model
    "model.fit",
    "model.signature",
    # retrieval
    "retrieval.index_build",
    "retrieval.knn_query",
    "retrieval.idistance_query",
    # persistent signature store
    "store.ingest",
    "store.compact",
    "store.index_build",
    "store.query_batch",
    # parallel execution and caching
    "parallel.map",
    "parallel.featurize",
    "parallel.cache.lookup",
    # robustness / degradation
    "robust.featurize",
    # end-to-end profiling
    "profile.total",
    "profile.build_dataset",
    # model-health monitoring
    "health.check",
})

#: Registered dynamic span-name prefixes (none yet; spans are static).
SPAN_PREFIXES = frozenset()

#: Every literal counter/gauge/series name emitted by the pipeline.
METRIC_NAMES = frozenset({
    # fuzzy C-means
    "fcm.fits",
    "fcm.iterations",
    "fcm.objective",
    "fcm.objective_final",
    "fcm.membership_shift",
    # classification model
    "model.n_windows",
    "model.n_dims",
    "model.queries",
    "model.query_latency_s",
    # retrieval
    "retrieval.linear.queries",
    "retrieval.linear.scanned",
    "retrieval.idistance.queries",
    "retrieval.idistance.candidates",
    "retrieval.idistance.rounds",
    "retrieval.idistance.pruning_ratio",
    # persistent signature store
    "store.records_ingested",
    "store.records_skipped",
    "store.segments_written",
    "store.compactions",
    "store.live_records",
    "store.queries",
    "store.shards_probed",
    "store.candidates",
    # parallel execution and caching
    "parallel.tasks",
    "parallel.cache.hits",
    "parallel.cache.misses",
    "parallel.cache.stores",
    "parallel.cache.evictions",
    "cache.hit_rate",
    # robustness / degradation
    "robust.records_degraded",
    "robust.windows_dropped",
    "robust.channels_masked",
    "robust.samples_filled",
    "robust.fallback_all_windows",
    "robust.degraded_queries",
    "robust.degraded_fraction",
    # model-health monitoring
    "health.queries",
    "health.drift_firing",
    "health.query.max_membership",
    "health.query.entropy",
    "health.query.objective",
    # shared helpers
    "utils.windows.produced",
})

#: Registered dynamic metric-name prefixes.  ``fcm.converged.<reason>``
#: fans out per convergence reason, which is data-dependent;
#: ``health.drift.<detector>`` and ``health.rule.<rule>`` fan out per
#: configured drift detector / SLO rule.
METRIC_PREFIXES = frozenset({
    "fcm.converged.",
    "health.drift.",
    "health.rule.",
})

#: Every literal provenance-event name emitted by the pipeline (see
#: :mod:`repro.obs.events`; events carry the query correlation id).
EVENT_NAMES = frozenset({
    # per-query provenance trail
    "query.received",
    "query.featurized",
    "query.retrieved",
    "query.classified",
    "query.degraded",
    # featurization fan-out
    "featurize.batch",
    # retrieval backends
    "retrieval.query",
    # persistent signature store (batched fan-out queries)
    "store.query",
    # model-health monitoring (SLO/drift alerts)
    "health.alert",
})

#: Registered dynamic event-name prefixes (none yet; events are static).
EVENT_PREFIXES = frozenset()
