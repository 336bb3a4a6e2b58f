"""Guard: the cached figure sweeps match what the code computes.

The Figures 6–9 benchmarks read ``_cache/sweep_{hand,leg}_*.json`` and never
recompute them, so a change to clustering or scoring could leave the figures
describing older code.  This recomputes every point of both studies (4
window sizes × 8 cluster counts each) from the committed campaigns with
:func:`conftest.run_point` and requires each point's misclassification
percent, k-NN classified percent and per-query predictions to equal the
cached ones exactly.
"""

import json

import pytest

from conftest import CLUSTER_GRID, WINDOW_SIZES_MS, run_point, sweep_cache_file

STUDIES = ("hand", "leg")


@pytest.fixture(scope="module")
def cached_points():
    return {
        study: {(r["window_ms"], r["n_clusters"]): r
                for r in json.loads(sweep_cache_file(study).read_text())}
        for study in STUDIES
    }


@pytest.mark.parametrize("study, window_ms, n_clusters", [
    (study, window_ms, n_clusters)
    for study in STUDIES
    for window_ms in WINDOW_SIZES_MS
    for n_clusters in CLUSTER_GRID
])
def test_cached_sweep_point_is_current(request, cached_points, study,
                                       window_ms, n_clusters):
    cached = cached_points[study][(window_ms, n_clusters)]
    split = request.getfixturevalue(f"{study}_split")
    result = run_point(*split, window_ms, n_clusters)
    assert result.misclassification_pct == cached["mis"]
    assert result.knn_classified_pct == cached["knn"]
    assert list(result.predicted_labels) == cached["pred"]
