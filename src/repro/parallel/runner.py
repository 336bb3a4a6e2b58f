"""Fan-out of per-motion windowing + feature extraction.

:func:`featurize_records` is the parallel, cached equivalent of::

    [featurizer.features(rec) for rec in records]

and is byte-identical to it for every ``n_jobs`` and cache state.  The flow:

1. consult the cache (in the calling process) for every record;
2. compute only the misses, serially or fanned out over a process pool via
   :func:`repro.parallel.executor.pool_map` (order-stable);
3. store the freshly computed entries back (again in the calling process,
   so process workers never contend for cache files);
4. merge hits and computed results into one list in **input order**.

Process workers run with their own observability state.  When the parent's
observability is enabled, each worker records into a private session on a
copy of the parent's clock and ships back its metrics snapshot (counters,
gauges, histogram samples, series) and its per-stage span aggregates; the
parent merges both in input order, so metric exports match the serial run
exactly and the stage table has the serial run's names and call counts.
Individual span records and provenance events stay in the worker.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.data.record import RecordedMotion
from repro.errors import FeatureError
from repro.features.base import WindowFeatures
from repro.obs.clock import Clock
from repro.obs.config import capture, current_state, record_event, span
from repro.parallel.cache import FeatureCache, record_cache_key
from repro.parallel.executor import effective_n_jobs, pool_map

__all__ = ["featurize_records"]


def _featurize_in_process(payload: Tuple[Any, RecordedMotion, Optional[Clock]]):
    """Compute one motion's features; the worker function of the fan-out.

    ``clock`` is ``None`` when the call runs in the calling process or the
    parent's observability is off: the features are computed under whatever
    state is active.  Otherwise the work runs in a private capture session
    on ``clock`` and its metrics snapshot and stage aggregates travel back
    for merging.
    """
    featurizer, record, clock = payload
    if clock is None:
        return featurizer.features(record), None, None
    with capture(clock=clock) as state:
        features = featurizer.features(record)
    return features, state.registry.to_dict(), state.collector.stages()


def featurize_records(
    featurizer,
    records: Sequence[RecordedMotion],
    n_jobs: int = 1,
    cache: Optional[FeatureCache] = None,
) -> List[WindowFeatures]:
    """Window + featurize every record, in parallel and through the cache.

    Parameters
    ----------
    featurizer:
        A :class:`~repro.features.combine.WindowFeaturizer` (anything with
        ``features(record)`` and ``cache_fingerprint()``).  With more than
        one job it must pickle; if it does not,
        :class:`~repro.errors.SerializationError` is raised.
    records:
        The motions to featurize.
    n_jobs:
        Worker processes; ``1`` (the default) runs serially, ``-1`` uses
        all CPUs.
    cache:
        Optional :class:`~repro.parallel.cache.FeatureCache`; hits skip
        computation entirely, misses are computed then stored.

    Returns
    -------
    list of WindowFeatures
        One entry per record, in input order.
    """
    records = list(records)
    with span("parallel.featurize", n_records=len(records),
              n_jobs=n_jobs) as sp:
        results: List[Optional[WindowFeatures]] = [None] * len(records)
        pending: List[Tuple[int, Optional[str]]] = []
        if cache is not None:
            fingerprint = featurizer.cache_fingerprint()
            for i, record in enumerate(records):
                key = record_cache_key(record, fingerprint)
                hit = cache.load(key)
                if hit is None:
                    pending.append((i, key))
                else:
                    results[i] = hit
        else:
            pending = [(i, None) for i in range(len(records))]
        sp.set(cache_hits=len(records) - len(pending), computed=len(pending))
        record_event("featurize.batch", n_records=len(records),
                     cache_hits=len(records) - len(pending),
                     computed=len(pending))

        if pending:
            # More than one job and more than one miss: pool_map runs the
            # misses on a process pool, whose workers report back.
            jobs = min(effective_n_jobs(n_jobs), len(pending))
            state = current_state()
            clock = state.clock if jobs > 1 and state.enabled else None
            outcomes = pool_map(
                _featurize_in_process,
                [(featurizer, records[i], clock) for i, _ in pending],
                n_jobs=jobs,
            )
            computed = []
            for features, metrics, stages in outcomes:
                computed.append(features)
                if metrics is not None:
                    state.registry.merge(metrics)
                    state.collector.merge_stages(stages)
            for (i, key), features in zip(pending, computed):
                results[i] = features
                # A None from a broken worker is caught by the merge guard
                # below; it must never be stored as a poisoned cache entry.
                if cache is not None and key is not None and features is not None:
                    cache.store(key, features)
    merged: List[WindowFeatures] = []
    for i, wf in enumerate(results):
        if wf is None:
            # Every index must be a cache hit or a computed miss; a hole
            # means a worker returned nothing for this record.  A partial
            # merge must never leave this function — the chaos tier pins
            # this as a typed failure, not a crash deeper downstream.
            raise FeatureError(
                f"featurizer produced no features for record "
                f"{records[i].key!r}; refusing a partial merge"
            )
        merged.append(wf)
    return merged
