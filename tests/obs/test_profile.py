"""Integration: run_profile stage contract, CLI profile and --trace/--metrics-out."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.data.serialize import save_dataset
from repro.errors import ValidationError
from repro.obs.clock import ManualClock, MonotonicClock
from repro.obs.config import configure, current_state
from repro.obs.export import SCHEMA_VERSION, to_json
from repro.obs.profile import REQUIRED_STAGES, run_profile

PROFILE_KWARGS = dict(participants=1, trials=2, clusters=4, k=3, seed=0)


@pytest.fixture(autouse=True)
def _obs_disabled():
    configure(enabled=False, reset=True)
    yield
    configure(enabled=False, reset=True)


@pytest.fixture(scope="module")
def payload():
    return run_profile(**PROFILE_KWARGS)


@pytest.fixture
def saved_toy(toy_dataset, tmp_path):
    save_dataset(toy_dataset, tmp_path / "toy")
    return str(tmp_path / "toy")


class TestRunProfile:
    def test_schema_and_required_stages(self, payload):
        assert payload["schema"] == SCHEMA_VERSION
        missing = [s for s in REQUIRED_STAGES if s not in payload["stages"]]
        assert not missing, f"profile run missing stages: {missing}"
        for stat in payload["stages"].values():
            assert stat["calls"] >= 1
            assert stat["total_s"] >= 0.0

    def test_exported_key_set(self, payload):
        assert payload["schema"] == "repro.obs/v3"
        assert set(payload) == {
            "schema", "stages", "spans", "spans_dropped", "counters",
            "gauges", "histograms", "series", "events", "events_dropped",
            "meta",
        }

    def test_fcm_convergence_series(self, payload):
        objective = payload["series"]["fcm.objective"]
        shift = payload["series"]["fcm.membership_shift"]
        assert len(objective) >= 2
        assert len(shift) == len(objective)
        assert objective[-1] <= objective[0]  # J_m decreases
        assert payload["counters"]["fcm.fits"] >= 1.0
        assert any(name.startswith("fcm.converged.")
                   for name in payload["counters"])

    def test_meta_describes_the_run(self, payload):
        meta = payload["meta"]
        assert meta["study"] == "hand"
        assert meta["n_clusters"] == 4
        assert meta["n_train"] > 0 and meta["n_queries"] > 0
        assert 0.0 <= meta["misclassification_pct"] <= 100.0

    def test_leaves_global_obs_disabled(self, payload):
        from repro.obs.config import is_enabled

        assert not is_enabled()

    def test_unknown_study_rejected(self):
        with pytest.raises(ValidationError):
            run_profile(study="torso")

    def test_deterministic_with_injected_clock(self):
        def run():
            return run_profile(clock=ManualClock(auto_advance=1e-6),
                               **PROFILE_KWARGS)

        assert to_json(run()) == to_json(run())

    def test_default_run_does_not_reuse_an_injected_clock(self):
        pinned = run_profile(clock=ManualClock(auto_advance=1e-6),
                             **PROFILE_KWARGS)
        assert isinstance(current_state().clock, ManualClock)
        real = run_profile(**PROFILE_KWARGS)
        assert isinstance(current_state().clock, MonotonicClock)
        # Pinned ticks are 1 µs per clock read; real time is far longer.
        assert real["stages"]["model.fit"]["total_s"] > \
            10 * pinned["stages"]["model.fit"]["total_s"]


class TestQuantilesInPayload:
    def test_stage_dicts_carry_quantiles(self, payload):
        for name, stat in payload["stages"].items():
            for key in ("p50_s", "p95_s", "p99_s"):
                assert key in stat, f"stage {name} missing {key}"
            assert stat["min_s"] <= stat["p50_s"] <= stat["p95_s"] \
                <= stat["p99_s"] <= stat["max_s"] + 1e-12

    def test_query_latency_histogram_has_quantiles(self, payload):
        latency = payload["histograms"]["model.query_latency_s"]
        assert latency["count"] >= 1
        for key in ("p50", "p95", "p99"):
            assert key in latency
        assert "samples" not in latency  # merge input, never exported


class TestProvenanceInPayload:
    def test_every_query_emits_lifecycle_events(self, payload):
        events = payload["events"]
        assert payload["events_dropped"] == 0
        names = {event["name"] for event in events}
        assert {"query.received", "query.retrieved",
                "query.classified"} <= names
        # Each test record is scored once: one event of each lifecycle
        # step per query, so no record is featurized or retrieved twice.
        for name in ("query.received", "query.retrieved", "query.classified"):
            n_events = sum(1 for e in events if e["name"] == name)
            assert n_events == payload["meta"]["n_queries"], name

    def test_query_ids_correlate_a_full_query(self, payload):
        by_id: dict = {}
        for event in payload["events"]:
            if event["query_id"] is not None:
                by_id.setdefault(event["query_id"], set()).add(event["name"])
        assert by_id, "no correlated events in profile payload"
        assert all(qid.startswith("q") for qid in by_id)
        # At least one query id must span the classify lifecycle.
        assert any({"query.received", "query.classified"} <= names
                   for names in by_id.values())


class TestSpanLoss:
    def test_max_spans_surfaces_drop_count(self):
        payload = run_profile(max_spans=5, **PROFILE_KWARGS)
        assert payload["spans_dropped"] > 0
        assert len(payload["spans"]) == 5

    def test_cli_warns_about_dropped_spans(self, tmp_path, capsys):
        code = main([
            "profile", "--participants", "1", "--trials", "2",
            "--clusters", "4", "--k", "3", "--max-spans", "5",
            "-o", str(tmp_path / "p.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "span records dropped" in out
        assert "--max-spans" in out


class TestProfileCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.clusters == 8
        assert args.participants == 1
        assert args.trials == 2
        assert args.output == "profile.json"

    def test_profile_prints_and_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        code = main([
            "profile", "--participants", "1", "--trials", "2",
            "--clusters", "4", "--k", "3", "-o", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage" in out  # the breakdown table header
        assert "FCM:" in out and "iterations" in out
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        for stage in REQUIRED_STAGES:
            assert stage in payload["stages"]


class TestTraceAndMetricsFlags:
    def test_evaluate_trace_prints_stage_table(self, saved_toy, capsys):
        code = main([
            "evaluate", saved_toy, "--clusters", "3", "--k", "2", "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for stage in ("features.iav", "features.svd", "fcm.fit",
                      "signature.build", "retrieval.knn_query"):
            assert stage in out, f"--trace table missing stage {stage}"

    def test_evaluate_metrics_out_writes_payload(self, saved_toy, tmp_path,
                                                 capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "evaluate", saved_toy, "--clusters", "3", "--k", "2",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["meta"]["command"] == "evaluate"
        for stage in ("model.fit", "fcm.fit", "signature.build",
                      "retrieval.knn_query"):
            assert stage in payload["stages"]
        assert len(payload["series"]["fcm.objective"]) >= 1

    def test_build_metrics_out_covers_acquisition(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "build", "--study", "leg", "--participants", "1", "--trials", "1",
            "--seed", "5", "-o", str(tmp_path / "ds"),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["meta"]["command"] == "build"
        for stage in ("signal.acquire", "signal.preprocess",
                      "signal.filtfilt", "signal.resample"):
            assert stage in payload["stages"]

    def test_flags_leave_obs_disabled_after(self, saved_toy, capsys):
        from repro.obs.config import is_enabled

        main(["evaluate", saved_toy, "--clusters", "3", "--k", "2",
              "--trace"])
        capsys.readouterr()
        assert not is_enabled()
