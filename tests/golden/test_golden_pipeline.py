"""Golden end-to-end pipeline test: committed inputs, exact expected outputs.

A small dataset is committed under ``tests/golden/data/`` together with the
expected database signatures and classifications
(``expected_pipeline.json``).  The test replays the full pipeline — load,
split, featurize, cluster, classify — and compares **exactly** (floats
round-trip through JSON ``repr`` without loss), so any numeric drift in the
feature or clustering code is caught, not just gross breakage.

When drift is intentional (an algorithm fix changed the numbers), rerun with
``pytest tests/golden --regen-goldens`` and commit the rewritten files; the
diff in review then documents exactly what moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import MotionClassifier
from repro.data.serialize import load_dataset, save_dataset
from repro.eval.metrics import misclassification_rate
from tests.factories import toy_motion_dataset

GOLDEN_DIR = Path(__file__).parent
DATASET_STEM = GOLDEN_DIR / "data" / "golden_dataset"
EXPECTED_PATH = GOLDEN_DIR / "expected_pipeline.json"

CONFIG = {
    "n_clusters": 4,
    "window_ms": 100.0,
    "test_fraction": 0.25,
    "seed": 0,
}


def compute_actual() -> dict:
    """Run the pipeline on the committed dataset; plain-JSON result."""
    dataset = load_dataset(DATASET_STEM)
    train, test = dataset.train_test_split(CONFIG["test_fraction"],
                                           seed=CONFIG["seed"])
    model = MotionClassifier(n_clusters=CONFIG["n_clusters"],
                             window_ms=CONFIG["window_ms"])
    model.fit(train, seed=CONFIG["seed"])
    signatures = {
        key: [float(v) for v in vector]
        for key, vector in zip(model.database_keys, model.database_signatures)
    }
    classifications = {rec.key: model.classify(rec) for rec in test}
    true_labels = [rec.label for rec in test]
    return {
        "config": CONFIG,
        "signatures": signatures,
        "classifications": classifications,
        "misclassification_pct": float(
            misclassification_rate(true_labels,
                                   [classifications[r.key] for r in test])
        ),
    }


def describe_drift(expected: dict, actual: dict) -> list:
    """Human-readable description of every difference (empty when equal)."""
    problems = []
    for section in ("signatures", "classifications"):
        exp, act = expected[section], actual[section]
        for key in sorted(set(exp) - set(act)):
            problems.append(f"{section}: {key!r} disappeared")
        for key in sorted(set(act) - set(exp)):
            problems.append(f"{section}: {key!r} is new")
    for key, exp_vec in expected["signatures"].items():
        act_vec = actual["signatures"].get(key)
        if act_vec is None or act_vec == exp_vec:
            continue
        diff = np.abs(np.asarray(act_vec) - np.asarray(exp_vec))
        problems.append(
            f"signatures[{key!r}]: {int((diff > 0).sum())}/{diff.size} "
            f"components drifted, max |Δ| = {diff.max():.3e} "
            f"(first at index {int(np.argmax(diff > 0))})"
        )
    for key, exp_label in expected["classifications"].items():
        act_label = actual["classifications"].get(key)
        if act_label is not None and act_label != exp_label:
            problems.append(
                f"classifications[{key!r}]: expected {exp_label!r}, "
                f"got {act_label!r}"
            )
    if expected["misclassification_pct"] != actual["misclassification_pct"]:
        problems.append(
            f"misclassification_pct: expected "
            f"{expected['misclassification_pct']!r}, got "
            f"{actual['misclassification_pct']!r}"
        )
    if expected["config"] != actual["config"]:
        problems.append(
            f"config: expected {expected['config']}, got {actual['config']}"
        )
    return problems


def regenerate() -> dict:
    """Rewrite the committed dataset and expected outputs."""
    DATASET_STEM.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(toy_motion_dataset(), DATASET_STEM)
    actual = compute_actual()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(actual, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return actual


def test_pipeline_matches_goldens(regen_goldens):
    if regen_goldens:
        regenerate()
        pytest.skip("golden files regenerated; rerun without --regen-goldens")
    assert EXPECTED_PATH.exists() and DATASET_STEM.with_suffix(".npz").exists(), (
        "golden files missing; generate them with: "
        "pytest tests/golden --regen-goldens"
    )
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = compute_actual()
    problems = describe_drift(expected, actual)
    assert not problems, (
        "pipeline output drifted from the goldens:\n  "
        + "\n  ".join(problems)
        + "\n(if the change is intentional, refresh with "
        "`pytest tests/golden --regen-goldens` and commit the diff)"
    )


def test_golden_dataset_loads_and_is_wellformed():
    dataset = load_dataset(DATASET_STEM)
    assert len(dataset) == 12
    assert sorted(set(r.label for r in dataset)) == ["alpha", "beta", "gamma"]
