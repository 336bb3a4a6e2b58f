"""Exact p50/p95/p99 of histograms and stage aggregates.

Both keep every observation and summarise on read
(:func:`repro.obs.metrics.summarize`), so their quantiles are
``numpy.percentile``'s default (linear) method to within one ulp — the
interpolation is the same, written ``lo * (1 - f) + hi * f`` — at every
count, and do not depend on the order the observations arrived in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import StageStat

QUANTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0))


def histogram_summary(values):
    hist = MetricsRegistry().histogram("h")
    for value in values:
        hist.observe(value)
    return hist.summary()


def stage_summary(values):
    stat = StageStat()
    for value in values:
        stat.add(value, None)
    return {key.removesuffix("_s"): value
            for key, value in stat.to_dict().items()}


SUMMARIES = {"histogram": histogram_summary, "stage": stage_summary}


@pytest.mark.parametrize("kind", sorted(SUMMARIES))
@pytest.mark.parametrize("n", [1, 2, 5, 7, 100, 1000])
def test_quantiles_match_numpy_percentile(kind, n):
    values = np.random.default_rng(n).lognormal(mean=-6.0, sigma=1.0, size=n)
    summary = SUMMARIES[kind](values.tolist())
    got = np.array([summary[key] for key, _ in QUANTILES])
    want = np.percentile(values, [pct for _, pct in QUANTILES])
    np.testing.assert_array_max_ulp(got, want, maxulp=1)


@pytest.mark.parametrize("kind", sorted(SUMMARIES))
def test_permuted_stream_gives_the_same_summary(kind):
    rng = np.random.default_rng(7)
    # On a 2**-20 grid every partial sum is exact, so the sequential total
    # is order-free too and the whole summary can be compared with ==.
    values = np.round(rng.exponential(size=1000) * 2**20) / 2**20
    original = SUMMARIES[kind](values.tolist())
    for order in (rng.permutation(values), np.sort(values),
                  np.sort(values)[::-1]):
        assert SUMMARIES[kind](order.tolist()) == original
