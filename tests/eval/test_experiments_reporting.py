"""Experiment drivers and ASCII reporting."""

import pytest

from repro.core.model import MotionClassifier
from repro.errors import ValidationError
from repro.eval.experiments import ExperimentResult, SweepResult, run_experiment, sweep
from repro.eval.metrics import knn_classified_percent, misclassification_rate
from repro.eval.reporting import format_series, format_table


@pytest.fixture
def split(toy_dataset):
    return toy_dataset.train_test_split(test_fraction=0.25, seed=0)


class TestRunExperiment:
    def test_result_fields(self, split):
        train, test = split
        result = run_experiment(train, test, window_ms=100.0, n_clusters=3,
                                k=3, seed=0)
        assert result.n_queries == len(test)
        assert 0.0 <= result.misclassification_pct <= 100.0
        assert 0.0 <= result.knn_classified_pct <= 100.0
        assert result.window_ms == 100.0
        assert result.n_clusters == 3
        assert len(result.true_labels) == len(result.predicted_labels) == len(test)

    def test_toy_classes_are_learnable(self, split):
        train, test = split
        result = run_experiment(train, test, window_ms=100.0, n_clusters=4,
                                k=3, seed=0)
        assert result.misclassification_pct <= 34.0

    def test_confusion_accessor(self, split):
        train, test = split
        result = run_experiment(train, test, window_ms=100.0, n_clusters=3, seed=0)
        labels, matrix = result.confusion()
        assert matrix.sum() == result.n_queries
        assert set(labels) >= set(result.true_labels)

    def test_empty_test_rejected(self, toy_dataset):
        from repro.data.dataset import MotionDataset

        with pytest.raises(ValidationError):
            run_experiment(toy_dataset, MotionDataset(name="none"))

    @pytest.mark.parametrize("clusterer", ["fcm", "kmeans"])
    def test_one_retrieval_matches_classify_and_fraction(self, split,
                                                         clusterer):
        """Scoring each query once gives the two-pass answers exactly."""
        train, test = split
        model = MotionClassifier(n_clusters=4, window_ms=100.0,
                                 clusterer=clusterer)
        result = run_experiment(train, test, k=3, seed=0, classifier=model)
        truth = [r.label for r in test]
        predicted = [model.classify(r, k=1) for r in test]
        fractions = [model.knn_class_fraction(r, k=3) for r in test]
        assert result.predicted_labels == tuple(predicted)
        assert result.misclassification_pct == misclassification_rate(
            truth, predicted)
        assert result.knn_classified_pct == knn_classified_percent(fractions)

    def test_classifier_kwargs_forwarded(self, split):
        train, test = split
        result = run_experiment(train, test, window_ms=100.0, n_clusters=3,
                                seed=0, clusterer="kmeans")
        assert result.n_queries == len(test)


class TestSweep:
    @pytest.fixture
    def sweep_result(self, split):
        train, test = split
        return sweep(train, test, window_sizes_ms=(50.0, 100.0),
                     cluster_counts=(2, 4), k=3, seed=0)

    def test_grid_size(self, sweep_result):
        assert len(sweep_result.results) == 4

    def test_series_layout(self, sweep_result):
        series = sweep_result.series("misclassification_pct")
        assert set(series) == {50.0, 100.0}
        clusters, values = series[50.0]
        assert clusters == [2, 4]
        assert len(values) == 2

    def test_knn_series(self, sweep_result):
        series = sweep_result.series("knn_classified_pct")
        for clusters, values in series.values():
            assert all(0.0 <= v <= 100.0 for v in values)

    def test_best(self, sweep_result):
        best = sweep_result.best("misclassification_pct")
        assert best.misclassification_pct == min(
            r.misclassification_pct for r in sweep_result.results
        )
        best_knn = sweep_result.best("knn_classified_pct")
        assert best_knn.knn_classified_pct == max(
            r.knn_classified_pct for r in sweep_result.results
        )

    def test_unknown_metric(self, sweep_result):
        with pytest.raises(ValidationError):
            sweep_result.series("f1")
        with pytest.raises(ValidationError):
            sweep_result.best("f1")

    def test_empty_grid_rejected(self, split):
        train, test = split
        with pytest.raises(ValidationError):
            sweep(train, test, window_sizes_ms=(), cluster_counts=(2,))


class TestFormatTable:
    def test_layout(self):
        text = format_table(["name", "value"], [["a", 1.25], ["bb", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.2" in lines[2]  # one-decimal float rendering

    def test_row_width_validated(self):
        with pytest.raises(ValidationError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValidationError):
            format_table([], [])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestFormatSeries:
    def test_renders_all_windows(self):
        series = {
            50.0: ([2, 4], [30.0, 10.0]),
            100.0: ([2, 4], [25.0, 12.0]),
        }
        text = format_series("Figure 6", series, y_label="miscls %")
        assert "Figure 6" in text
        assert "50 ms" in text and "100 ms" in text
        assert "30.0" in text and "12.0" in text

    def test_mismatched_axes_rejected(self):
        series = {50.0: ([2, 4], [1.0, 2.0]), 100.0: ([2, 8], [1.0, 2.0])}
        with pytest.raises(ValidationError, match="cluster axis"):
            format_series("t", series)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            format_series("t", {50.0: ([2, 4], [1.0])})

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            format_series("t", {})


class TestSeriesToCSV:
    def test_long_format(self):
        from repro.eval.reporting import series_to_csv

        series = {50.0: ([2, 4], [30.0, 10.0]), 100.0: ([2, 4], [25.0, 12.5])}
        csv = series_to_csv(series, value_name="mis")
        lines = csv.strip().splitlines()
        assert lines[0] == "window_ms,clusters,mis"
        assert "50,2,30" in lines[1]
        assert len(lines) == 5
        assert csv.endswith("\n")

    def test_empty_rejected(self):
        from repro.eval.reporting import series_to_csv

        with pytest.raises(ValidationError):
            series_to_csv({})

    def test_mismatched_lengths_rejected(self):
        from repro.eval.reporting import series_to_csv

        with pytest.raises(ValidationError):
            series_to_csv({50.0: ([2], [1.0, 2.0])})
