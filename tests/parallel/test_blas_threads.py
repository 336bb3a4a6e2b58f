"""Determinism across BLAS thread counts: one and two threads, same bytes.

OpenBLAS may split a matrix product over threads, and a split can change the
order in which a long sum is accumulated.  Fuzzy c-means sums over every
window in its center update, so a single product over all windows gave a
different fit at one and at two threads at the sweep's shape.  Its products
now run over fixed blocks of windows (``repro.utils.distances.CHUNK``).

Each case runs in two fresh interpreters, with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1 in one and 2 in the
other (the setting only takes effect before numpy loads), and requires
byte-identical outputs:

* an FCM fit at about the sweep's shape, 2800 windows of 16 features at
  c = 40, where one product over all windows in the center update changed
  bits;
* an FCM fit at the ``query`` set-up's shape, 14,812 windows at c = 15,
  where one ``(c, d) × (d, n)`` distance product changed bits, plus the
  reductions over those windows that follow a fit: the scaler statistics,
  Eq. 9 memberships, Xie–Beni and the drift baseline;
* ``MotionClassifier.database_signatures`` on the committed golden dataset;
* ``Myomonitor().condition`` of a 4-channel 1000 Hz recording at the
  ``query`` trial lengths (2925 and 4217 samples), which runs the filter
  kernel's block products through the order-8 anti-alias low-pass;
* ``filtfilt`` through ``butter_bandpass(20, 450, 1000, 4)``, the band-pass
  of the Myomonitor's acquisition.

It shows the property only for the installed BLAS and the kernels it
selects for the CPU it runs on.  It is skipped on a single-core host, where
two BLAS threads cannot run at once.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = r"""
import sys

import numpy as np

from repro.core.model import MotionClassifier
from repro.data.serialize import load_dataset
from repro.emg import EMGRecording, Myomonitor
from repro.features.scaling import FeatureScaler
from repro.fuzzy import FuzzyCMeans, membership_matrix, xie_beni_index
from repro.obs.drift import BaselineSnapshot
from repro.signal import butter_bandpass, filtfilt

out = {}


def fit(name, n, c, max_iter):
    # Blobs around c means: the fitted centers sit away from the origin, so
    # the products' rounding reaches the distances.
    gen = np.random.default_rng(n)
    means = gen.normal(scale=3.0, size=(c, 16))
    x = means[gen.integers(0, c, size=n)] + gen.normal(size=(n, 16))
    result = FuzzyCMeans(n_clusters=c, max_iter=max_iter).fit(x, seed=1)
    out[name + ".centers"] = result.centers
    out[name + ".membership"] = result.membership
    out[name + ".objective_history"] = result.objective_history
    return x, result


fit("sweep", 2800, 40, 30)
x, result = fit("query", 14812, 15, 20)
scaler = FeatureScaler().fit(x)
out["query.scaled"] = scaler.transform(x)
out["query.eq9"] = membership_matrix(x, result.centers)
out["query.xie_beni"] = np.array(
    xie_beni_index(x, result.centers, result.membership))
out["query.baseline_objective"] = np.array(BaselineSnapshot.from_fit(
    x, result.centers, result.membership).objective_per_window)

train, _ = load_dataset(sys.argv[2]).train_test_split(0.25, seed=0)
model = MotionClassifier(n_clusters=4, window_ms=100.0).fit(train, seed=0)
out["golden.database_signatures"] = model.database_signatures

gen = np.random.default_rng(7)
for n in (2925, 4217):
    raw = EMGRecording(channels=("c0", "c1", "c2", "c3"), fs=1000.0,
                       data_volts=gen.normal(scale=1e-4, size=(n, 4)))
    out[f"condition.{n}"] = Myomonitor().condition(raw).data_volts
band = butter_bandpass(20.0, 450.0, 1000.0, 4)
out["filtfilt.bandpass"] = filtfilt(band.b, band.a, gen.normal(size=(4217, 4)))
np.savez(sys.argv[1], **out)
"""


def run_child(threads: int, path: Path) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    dataset = ROOT / "tests" / "golden" / "data" / "golden_dataset"
    subprocess.run([sys.executable, "-c", CHILD, str(path), str(dataset)],
                   env=env, check=True, timeout=300)
    with np.load(path) as arrays:
        return {name: arrays[name] for name in arrays.files}


def difference(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shapes {a.shape} and {b.shape}"
    return f"max |Δ| {np.abs(a - b).max():.3g}"


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="two BLAS threads need at least two cores")
def test_one_and_two_blas_threads_give_the_same_bytes(tmp_path):
    one = run_child(1, tmp_path / "one.npz")
    two = run_child(2, tmp_path / "two.npz")
    assert sorted(one) == sorted(two)
    differing = [
        f"{name}: {difference(one[name], two[name])}"
        for name in sorted(one)
        if one[name].shape != two[name].shape
        or one[name].tobytes() != two[name].tobytes()
    ]
    assert not differing, "outputs differ between 1 and 2 BLAS threads:\n" \
        + "\n".join(differing)
