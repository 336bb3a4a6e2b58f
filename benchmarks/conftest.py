"""Shared benchmark infrastructure.

The figure benchmarks replay the paper's Section 6 protocol on synthetic
capture campaigns.  Building a campaign takes ~1 minute and a full sweep a
few minutes, so both are cached on disk under ``benchmarks/_cache/`` keyed
by their configuration — the first ``pytest benchmarks/`` run pays the cost,
subsequent runs are fast.

Protocol choices (documented in EXPERIMENTS.md):

* 4 synthetic participants x 4 trials per motion class;
* stratified 75/25 train/test split;
* 25 ms sliding-window stride (the paper says "sliding window approach";
  the stride ablation benchmark compares this against non-overlapping
  windows);
* k = 5 for the retrieval metric, as in the paper;
* one BLAS thread, as in ``perfbench/run.py``.  FCM's products give the
  same bits on one and two threads (``tests/parallel/test_blas_threads.py``),
  but that holds only for the BLAS it was checked with, and a rounding
  change can flip an Eq. 6 near-tie, so a cached sweep is still only ever
  written with the pin in force (see :func:`_sweep_cached`).

Every benchmark session also runs with observability enabled in
aggregate-only mode (``max_spans=0`` — exact per-stage totals, no
individual span records) and dumps the ``repro.obs/v3`` payload, with the
benchmark-protocol configuration as its ``meta``, to
``benchmarks/_cache/obs_metrics.json`` on exit.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

#: The pin must be set before numpy loads its BLAS to take effect.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
ONE_BLAS_THREAD = "numpy" not in sys.modules or all(
    os.environ.get(var) == "1" for var in _BLAS_THREAD_VARS)
for _var in _BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import pytest  # noqa: E402

from repro.data.protocol import (  # noqa: E402
    build_dataset,
    hand_protocol,
    leg_protocol,
    whole_body_protocol,
)
from repro.data.serialize import load_dataset, save_dataset  # noqa: E402
from repro.eval.experiments import ExperimentResult, SweepResult, run_experiment  # noqa: E402
from repro.features.combine import WindowFeaturizer  # noqa: E402
from repro.core.model import MotionClassifier  # noqa: E402
from repro.obs.config import configure  # noqa: E402
from repro.obs.export import collect_payload, write_json  # noqa: E402

CACHE_DIR = Path(__file__).parent / "_cache"


def _benchmark_config() -> dict:
    """The benchmark-protocol knobs, as the payload's ``meta``."""
    return {
        "source": "benchmarks",
        "n_participants": N_PARTICIPANTS,
        "trials_per_motion": TRIALS_PER_MOTION,
        "dataset_seed": DATASET_SEED,
        "split_seed": SPLIT_SEED,
        "fit_seed": FIT_SEED,
        "window_sizes_ms": list(WINDOW_SIZES_MS),
        "cluster_grid": list(CLUSTER_GRID),
        "stride_ms": STRIDE_MS,
        "k": K_RETRIEVED,
    }


@pytest.fixture(scope="session", autouse=True)
def _obs_session():
    """Collect per-stage telemetry for the whole benchmark session.

    ``max_spans=0`` keeps exact per-stage aggregates and counters without
    retaining individual span records; the aggregates still keep each
    span's duration, 8 B per span.  The payload lands in
    ``benchmarks/_cache/obs_metrics.json``.
    """
    state = configure(enabled=True, reset=True, max_spans=0)
    try:
        yield state
    finally:
        configure(enabled=False)
        CACHE_DIR.mkdir(exist_ok=True)
        payload = collect_payload(state, meta=_benchmark_config())
        write_json(CACHE_DIR / "obs_metrics.json", payload)

#: Campaign size (per study).
N_PARTICIPANTS = 4
TRIALS_PER_MOTION = 4
DATASET_SEED = 42
SPLIT_SEED = 0
FIT_SEED = 0

#: The paper's figure grid.
WINDOW_SIZES_MS = (50.0, 100.0, 150.0, 200.0)
CLUSTER_GRID = (2, 5, 10, 15, 20, 25, 30, 40)
STRIDE_MS = 25.0
K_RETRIEVED = 5


def _dataset(study: str):
    """Build or load the cached capture campaign for one study."""
    CACHE_DIR.mkdir(exist_ok=True)
    stem = CACHE_DIR / (
        f"{study}_p{N_PARTICIPANTS}_t{TRIALS_PER_MOTION}_s{DATASET_SEED}"
    )
    if stem.with_suffix(".json").exists() and stem.with_suffix(".npz").exists():
        # Both halves must be present: the manifest is committed but the
        # array bundle may be absent on a fresh checkout.
        return load_dataset(stem)
    protocols = {
        "hand": hand_protocol,
        "leg": leg_protocol,
        "whole": whole_body_protocol,
    }
    proto = protocols[study]()
    dataset = build_dataset(
        proto,
        n_participants=N_PARTICIPANTS,
        trials_per_motion=TRIALS_PER_MOTION,
        seed=DATASET_SEED,
    )
    save_dataset(dataset, stem)
    return dataset


def run_point(train, test, window_ms: float, n_clusters: int, **kwargs):
    """One experiment at the benchmark protocol's settings."""
    featurizer = WindowFeaturizer(
        window_ms=window_ms,
        stride_ms=STRIDE_MS,
        use_emg=kwargs.pop("use_emg", True),
        use_mocap=kwargs.pop("use_mocap", True),
    )
    classifier = MotionClassifier(
        n_clusters=n_clusters, featurizer=featurizer, **kwargs
    )
    return run_experiment(
        train, test, k=K_RETRIEVED, seed=FIT_SEED, classifier=classifier
    )


def sweep_cache_file(study: str) -> Path:
    """The JSON disk cache of one study's full figure sweep."""
    key = (
        f"sweep_{study}_w{'-'.join(str(int(w)) for w in WINDOW_SIZES_MS)}"
        f"_c{'-'.join(str(c) for c in CLUSTER_GRID)}"
        f"_stride{int(STRIDE_MS)}_k{K_RETRIEVED}"
        f"_p{N_PARTICIPANTS}_t{TRIALS_PER_MOTION}"
        f"_ds{DATASET_SEED}_sp{SPLIT_SEED}_f{FIT_SEED}"
    )
    return CACHE_DIR / f"{key}.json"


def _sweep_cached(study: str, train, test) -> SweepResult:
    """Full figure sweep with a JSON disk cache."""
    CACHE_DIR.mkdir(exist_ok=True)
    cache_file = sweep_cache_file(study)
    if cache_file.exists():
        rows = json.loads(cache_file.read_text())
        return SweepResult(results=tuple(
            ExperimentResult(
                window_ms=r["window_ms"],
                n_clusters=r["n_clusters"],
                k=r["k"],
                misclassification_pct=r["mis"],
                knn_classified_pct=r["knn"],
                n_queries=r["n_queries"],
                true_labels=tuple(r["true"]),
                predicted_labels=tuple(r["pred"]),
            )
            for r in rows
        ))
    if not ONE_BLAS_THREAD:
        pytest.fail(
            f"{cache_file.name} is missing, and numpy was loaded before "
            f"this conftest could pin BLAS to one thread; write it from a "
            f"session that collects only benchmarks/"
        )
    results = []
    for window_ms in WINDOW_SIZES_MS:
        for n_clusters in CLUSTER_GRID:
            results.append(run_point(train, test, window_ms, n_clusters))
    sweep_result = SweepResult(results=tuple(results))
    cache_file.write_text(json.dumps([
        {
            "window_ms": r.window_ms,
            "n_clusters": r.n_clusters,
            "k": r.k,
            "mis": r.misclassification_pct,
            "knn": r.knn_classified_pct,
            "n_queries": r.n_queries,
            "true": list(r.true_labels),
            "pred": list(r.predicted_labels),
        }
        for r in sweep_result.results
    ]))
    return sweep_result


@pytest.fixture(scope="session")
def hand_dataset():
    """The cached right-hand campaign."""
    return _dataset("hand")


@pytest.fixture(scope="session")
def leg_dataset():
    """The cached right-leg campaign."""
    return _dataset("leg")


@pytest.fixture(scope="session")
def whole_body_dataset():
    """The cached whole-body campaign (15 classes, both montages)."""
    return _dataset("whole")


@pytest.fixture(scope="session")
def hand_split(hand_dataset):
    """Stratified 75/25 split of the hand campaign."""
    return hand_dataset.train_test_split(test_fraction=0.25, seed=SPLIT_SEED)


@pytest.fixture(scope="session")
def leg_split(leg_dataset):
    """Stratified 75/25 split of the leg campaign."""
    return leg_dataset.train_test_split(test_fraction=0.25, seed=SPLIT_SEED)


@pytest.fixture(scope="session")
def hand_sweep(hand_split):
    """The full Figures 6/8 sweep (disk-cached)."""
    return _sweep_cached("hand", *hand_split)


@pytest.fixture(scope="session")
def leg_sweep(leg_split):
    """The full Figures 7/9 sweep (disk-cached)."""
    return _sweep_cached("leg", *leg_split)


def band_mean(series, clusters_from: int, clusters_to: int) -> float:
    """Mean of a figure series over a cluster band, across window sizes."""
    values = []
    for clusters, ys in series.values():
        values.extend(
            y for c, y in zip(clusters, ys) if clusters_from <= c <= clusters_to
        )
    return sum(values) / len(values)
