"""The public API surface: exports exist, are documented, and cohere."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.signal",
    "repro.skeleton",
    "repro.motions",
    "repro.mocap",
    "repro.emg",
    "repro.sync",
    "repro.data",
    "repro.features",
    "repro.fuzzy",
    "repro.core",
    "repro.retrieval",
    "repro.baselines",
    "repro.eval",
]


def test_version_is_set():
    assert repro.__version__ == "1.0.0"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_exported_items_are_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented {undocumented}"


def test_library_does_not_import_scipy():
    """The library is numpy-only; scipy is a test oracle exclusively.

    Filtering runs too, so a lazy ``import scipy.signal`` inside a filter
    kernel fails here as well as an eager one at import time.
    """
    import subprocess
    import sys

    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import repro, repro.signal, repro.core, repro.eval, repro.retrieval\n"
        "import repro.baselines, repro.emg, repro.mocap, repro.cli\n"
        "import numpy as np\n"
        "from repro.emg import EMGRecording, Myomonitor\n"
        "from repro.signal import butter_bandpass\n"
        "rng = np.random.default_rng(0)\n"
        "raw = EMGRecording(channels=('a', 'b'), fs=1000.0,\n"
        "                   data_volts=1e-4 * rng.normal(size=(500, 2)))\n"
        "assert Myomonitor().condition(raw).data_volts.shape[1] == 2\n"
        "y = butter_bandpass(20.0, 450.0, 1000.0).apply_zero_phase(rng.normal(size=300))\n"
        "assert np.all(np.isfinite(y))\n"
        "print('clean')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout


def test_paper_entry_points_exist():
    """The names a reader of the paper would look for."""
    from repro import (  # noqa: F401
        FuzzyCMeans,
        MotionClassifier,
        build_dataset,
        hand_protocol,
        leg_protocol,
        membership_matrix,
        motion_signature,
        run_experiment,
        sweep,
    )
    from repro.features import IAVExtractor, WeightedSVDExtractor  # noqa: F401
