"""The repro-motions command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.data.serialize import save_dataset
from repro.lint.cli import main as lint_main


@pytest.fixture
def saved_toy(toy_dataset, tmp_path):
    save_dataset(toy_dataset, tmp_path / "toy")
    return str(tmp_path / "toy")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_defaults(self):
        args = build_parser().parse_args(["build", "-o", "/tmp/x"])
        assert args.study == "hand"
        assert args.participants == 2

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate", "ds"])
        assert args.clusters == 15
        assert args.window_ms == 100.0
        assert args.k == 5

    def test_sweep_grid_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "ds", "--clusters", "2", "4", "--windows-ms", "50"]
        )
        assert args.clusters == [2, 4]
        assert args.windows_ms == [50.0]


class TestCommands:
    def test_info(self, saved_toy, capsys):
        assert main(["info", saved_toy]) == 0
        out = capsys.readouterr().out
        assert "3 classes" in out
        assert "alpha" in out

    def test_info_without_dataset_reports_environment(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro-motions" in out
        assert "module" in out  # optional-extras table
        assert "observability:" in out

    def test_info_missing_dataset_is_graceful(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "ghost")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate(self, saved_toy, capsys):
        code = main([
            "evaluate", saved_toy, "--clusters", "3", "--window-ms", "100",
            "--k", "3", "--test-fraction", "0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "misclassification" in out
        assert "kNN classified" in out

    def test_evaluate_with_kmeans_and_stride(self, saved_toy, capsys):
        code = main([
            "evaluate", saved_toy, "--clusters", "3", "--clusterer", "kmeans",
            "--stride-ms", "50", "--k", "2",
        ])
        assert code == 0

    def test_sweep(self, saved_toy, capsys):
        code = main([
            "sweep", saved_toy, "--windows-ms", "100", "--clusters", "2", "4",
            "--k", "2", "--stride-ms", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Misclassification rate" in out
        assert "kNN classified percent" in out

    def test_build_and_info_roundtrip(self, tmp_path, capsys):
        stem = str(tmp_path / "built")
        code = main([
            "build", "--study", "leg", "--participants", "1", "--trials", "1",
            "--seed", "5", "-o", stem,
        ])
        assert code == 0
        assert main(["info", stem]) == 0
        out = capsys.readouterr().out
        assert "right_leg" in out


def test_sweep_csv_export(tmp_path, toy_dataset):
    from repro.data.serialize import save_dataset

    save_dataset(toy_dataset, tmp_path / "toy")
    prefix = str(tmp_path / "out")
    code = main([
        "sweep", str(tmp_path / "toy"), "--windows-ms", "100",
        "--clusters", "2", "4", "--k", "2", "--stride-ms", "50",
        "--csv", prefix,
    ])
    assert code == 0
    mis = (tmp_path / "out_misclassification.csv").read_text()
    knn = (tmp_path / "out_knn.csv").read_text()
    assert mis.startswith("window_ms,clusters,misclassification")
    assert knn.startswith("window_ms,clusters,knn")
    assert len(mis.strip().splitlines()) == 3  # header + 2 grid points


class TestParallelFlags:
    """The --n-jobs / --cache-dir knobs (repro.parallel)."""

    @pytest.mark.parametrize("command, tail", [
        ("build", ["-o", "/tmp/x"]),
        ("evaluate", ["ds"]),
        ("sweep", ["ds"]),
        ("profile", []),
    ])
    def test_defaults_on_every_subcommand(self, command, tail):
        args = build_parser().parse_args([command, *tail])
        assert args.n_jobs == 1
        assert not hasattr(args, "backend")
        assert args.cache_dir is None

    def test_help_documents_the_knobs(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--help"])
        out = capsys.readouterr().out
        assert "--n-jobs" in out
        assert "--cache-dir" in out
        assert "byte-identical" in out

    def test_evaluate_with_parallel_and_cache(self, saved_toy, tmp_path,
                                              capsys):
        cache_dir = tmp_path / "feature_cache"
        argv = [
            "evaluate", saved_toy, "--clusters", "3", "--k", "2",
            "--n-jobs", "2", "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert "misclassification" in serial_out
        assert cache_dir.is_dir()  # entries were stored

        # Warm re-run through the cache: identical report.
        assert main(argv) == 0
        assert capsys.readouterr().out == serial_out

    def test_build_warms_the_cache(self, tmp_path, capsys):
        stem = str(tmp_path / "built")
        cache_dir = tmp_path / "warm"
        code = main([
            "build", "--study", "leg", "--participants", "1", "--trials", "1",
            "--seed", "5", "-o", stem, "--cache-dir", str(cache_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache" in out.lower()
        assert any(cache_dir.rglob("*.npz"))


class TestRobustFlag:
    @pytest.mark.parametrize("command, tail", [
        (["build", "--output", "m"], []),
        (["evaluate", "d"], []),
        (["profile"], []),
    ])
    def test_default_is_off(self, command, tail):
        args = build_parser().parse_args(command + tail)
        assert args.robust_policy == "off"

    def test_accepts_every_policy(self):
        parser = build_parser()
        for policy in ("off", "strict", "mask", "repair"):
            args = parser.parse_args(["evaluate", "d",
                                      "--robust-policy", policy])
            assert args.robust_policy == policy

    def test_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "d",
                                       "--robust-policy", "lenient"])

    def test_evaluate_with_robust_policy(self, saved_toy, capsys):
        code = main([
            "evaluate", saved_toy, "--clusters", "3", "--window-ms", "100",
            "--robust-policy", "mask",
        ])
        assert code == 0
        assert "misclassification" in capsys.readouterr().out

    def test_build_with_robust_policy_warms_cache(self, tmp_path, capsys):
        code = main([
            "build", "--trials", "2", "--output", str(tmp_path / "model"),
            "--robust-policy", "repair",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert list((tmp_path / "cache").rglob("*.npz"))

    def test_help_documents_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--help"])
        assert "--robust-policy" in capsys.readouterr().out


#: Flags deleted with the thread backend, the lint report cache, baseline
#: file and changed-files mode, the OpenMetrics exposition and the resource
#: sampler, per command.
_DELETED_FLAGS = [
    (["lint"], ["--baseline", "--write-baseline", "--cache", "--changed"]),
    (["selftest"], ["--baseline", "--lint-cache"]),
    (["build"], ["--backend"]),
    (["evaluate"], ["--backend"]),
    (["sweep"], ["--backend"]),
    (["profile"], ["--backend", "--resources"]),
    (["health"], ["--openmetrics-out"]),
]


@pytest.mark.parametrize("command, flags", _DELETED_FLAGS,
                         ids=[" ".join(c) for c, _ in _DELETED_FLAGS])
def test_help_lists_no_deleted_flag(command, flags, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "--help"])
    out = capsys.readouterr().out
    for flag in flags:
        # "--cache" must not match "--cache-dir".
        assert not re.search(rf"{flag}(?![\w-])", out), flag


def test_bench_subcommand_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "check"])


def test_lint_module_help_lists_no_deleted_flag(capsys):
    with pytest.raises(SystemExit):
        lint_main(["--help"])
    out = capsys.readouterr().out
    for flag in ("--baseline", "--write-baseline", "--cache", "--changed"):
        assert not re.search(rf"{flag}(?![\w-])", out), flag


class TestSelftest:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["selftest"])
        assert args.tests == "tests"
        assert args.skip_tests is False

    def test_skip_tests_runs_lint_only(self, capsys):
        code = main(["selftest", "--skip-tests"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint OK" in out
        assert "tier-1" not in out

    def test_missing_tests_dir_exits_2(self, tmp_path, capsys):
        code = main(["selftest", "--tests", str(tmp_path / "nope")])
        assert code == 2

    def test_runs_tier1_tests_in_given_dir(self, tmp_path, capsys):
        tests_dir = tmp_path / "minitests"
        tests_dir.mkdir()
        (tests_dir / "test_trivial.py").write_text(
            "import pytest\n\n"
            "@pytest.mark.tier1\n"
            "def test_passes():\n"
            "    assert True\n"
        )
        code = main(["selftest", "--tests", str(tests_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint OK" in out
        assert "tier-1 OK" in out

    def test_failing_tests_exit_1(self, tmp_path, capsys):
        tests_dir = tmp_path / "minitests"
        tests_dir.mkdir()
        (tests_dir / "test_trivial.py").write_text(
            "import pytest\n\n"
            "@pytest.mark.tier1\n"
            "def test_fails():\n"
            "    assert False\n"
        )
        code = main(["selftest", "--tests", str(tests_dir)])
        assert code == 1
        assert "tier-1 FAILED" in capsys.readouterr().out


class TestHealthCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["health"])
        assert args.study == "hand"
        assert args.clusters == 8
        assert args.drift_fault == "none"
        assert args.detector_window == 32
        assert args.detector_min_samples == 4
        assert args.watch is None
        assert args.robust_policy == "off"

    def test_rejects_unknown_fault(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["health", "--drift-fault", "meteor"])

    def test_clean_check_exits_0(self, capsys):
        code = main(["health", "--clusters", "4", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "healthy" in out
        assert "drift detectors" in out
        assert "slo rules" in out

    def test_drifted_check_exits_1_and_writes_alerts(self, tmp_path, capsys):
        alerts_path = tmp_path / "alerts.jsonl"
        code = main([
            "health", "--clusters", "4", "--seed", "0",
            "--drift-fault", "emg-dropout",
            "--alerts-out", str(alerts_path),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "UNHEALTHY" in out
        assert "appended" in out
        import json as _json
        lines = alerts_path.read_text().splitlines()
        assert lines
        assert any(_json.loads(line)["severity"] == "critical"
                   for line in lines)

    def test_custom_rules_file(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        # An impossible SLO so the run breaches deterministically.
        rules.write_text("model.queries < 1 severity=critical name=impossible\n")
        code = main([
            "health", "--clusters", "4", "--rules", str(rules),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "impossible" in out

    def test_watch_with_ticks_runs_bounded(self, capsys):
        code = main([
            "health", "--clusters", "4", "--watch", "0", "--ticks", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("healthy") >= 2
        assert "watch: next check" in out


class TestStoreCommand:
    """The ``store`` subcommand group (ingest/compact/stats/query)."""

    def _ingest(self, store_dir, signatures=400, **extra):
        argv = [
            "store", "ingest", "--store", str(store_dir),
            "--base", "random", "--signatures", str(signatures),
            "--tenants", "5", "--clusters", "6", "--batch-size", "150",
            "--seed", "0",
        ]
        for flag, value in extra.items():
            argv += [f"--{flag}", str(value)]
        return main(argv)

    def test_parser_requires_store_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["store", "query", "--store", "s"]
        )
        assert args.store_command == "query"
        assert args.k == 5
        assert args.shards == 4
        assert args.mode == "tenant"
        assert not hasattr(args, "backend")
        assert args.tenant is None

    def test_ingest_then_stats(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert self._ingest(store_dir) == 0
        out = capsys.readouterr().out
        assert "ingested 400 signatures" in out
        assert "3 new segment(s)" in out  # 400 records / 150 per batch

        assert main(["store", "stats", "--store", str(store_dir),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "records" in out
        assert "400" in out
        assert "passed their CRC checks" in out

    def test_reingest_same_seed_appends_new_ids(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._ingest(store_dir, signatures=200)
        self._ingest(store_dir, signatures=200)
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(store_dir)]) == 0
        assert "400" in capsys.readouterr().out

    def test_compact(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._ingest(store_dir)
        capsys.readouterr()
        assert main(["store", "compact", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "compacted 3 segment(s) -> 1" in out
        assert main(["store", "stats", "--store", str(store_dir),
                     "--verify"]) == 0

    def test_query_passes_oracle_check(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._ingest(store_dir)
        capsys.readouterr()
        code = main([
            "store", "query", "--store", str(store_dir),
            "--queries", "16", "--k", "3", "--shards", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle check OK" in out

    def test_query_tenant_filter(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._ingest(store_dir)
        capsys.readouterr()
        code = main([
            "store", "query", "--store", str(store_dir),
            "--queries", "8", "--k", "2", "--tenant", "tenant-00000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 shard(s)" in out
        assert "oracle check OK" in out

    def test_query_empty_store_exits_2(self, tmp_path, capsys):
        code = main(["store", "query", "--store", str(tmp_path / "none")])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_stats_detects_corruption(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._ingest(store_dir, signatures=150)
        seg = next(store_dir.glob("seg-*.sig"))
        raw = bytearray(seg.read_bytes())
        raw[-5] ^= 0xFF
        seg.write_bytes(bytes(raw))
        capsys.readouterr()
        code = main(["store", "stats", "--store", str(store_dir),
                     "--verify"])
        assert code == 1
        assert "verify:" in capsys.readouterr().err
