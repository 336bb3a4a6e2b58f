"""Guard: the cached hand-sweep figure data matches what the code computes.

The Figures 6/8 benchmarks read ``_cache/sweep_hand_*.json`` and never
recompute it, so a change to clustering or scoring could leave the figures
describing older code.  This recomputes the 100 ms column (all eight cluster
counts) from the committed ``hand_p4_t4_s42`` campaign with
:func:`conftest.run_point` and requires each point's misclassification
percent, k-NN classified percent and per-query predictions to equal the
cached ones exactly.
"""

import json

import pytest

from conftest import CLUSTER_GRID, run_point, sweep_cache_file

WINDOW_MS = 100.0


@pytest.fixture(scope="module")
def cached_column():
    rows = json.loads(sweep_cache_file("hand").read_text())
    return {r["n_clusters"]: r for r in rows if r["window_ms"] == WINDOW_MS}


@pytest.mark.parametrize("n_clusters", CLUSTER_GRID)
def test_cached_sweep_point_is_current(hand_split, cached_column, n_clusters):
    cached = cached_column[n_clusters]
    result = run_point(*hand_split, WINDOW_MS, n_clusters)
    assert result.misclassification_pct == cached["mis"]
    assert result.knn_classified_pct == cached["knn"]
    assert list(result.predicted_labels) == cached["pred"]
