import json

import numpy as np
import pytest

from mgtdetect.errors import DataError
from mgtdetect.evaluation import (
    ConfusionMatrix,
    evaluate_predictions,
    format_results_table,
    macro_f1,
    per_class_f1,
    roc_curve,
    threshold_candidates,
)


class TestConfusionMatrix:
    def test_hand_counts(self):
        cm = ConfusionMatrix.from_predictions(
            [1, 1, 0, 0, 1, 0], [1, 0, 0, 1, 1, 0]
        )
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
        assert cm.total == 6

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            ConfusionMatrix.from_predictions([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix.from_predictions([1, 2], [1, 0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix.from_predictions([], [])


class TestF1:
    def test_hand_case(self):
        # generated: tp=2 fp=1 fn=1 -> f1 = 4/6; human: tp'=tn=2 fp'=fn=1
        # fn'=fp=1 -> f1 = 4/6 as well
        y_true = [1, 1, 0, 0, 1, 0]
        y_pred = [1, 0, 0, 1, 1, 0]
        scores = per_class_f1(y_true, y_pred)
        assert scores["generated"] == pytest.approx(2 / 3)
        assert scores["human"] == pytest.approx(2 / 3)
        assert macro_f1(y_true, y_pred) == pytest.approx(2 / 3)

    def test_perfect(self):
        assert macro_f1([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert macro_f1([0, 1], [1, 0]) == 0.0

    def test_degenerate_class_scores_zero(self):
        # nothing true and nothing predicted for "generated"
        scores = per_class_f1([0, 0], [0, 0])
        assert scores["generated"] == 0.0
        assert scores["human"] == 1.0
        assert macro_f1([0, 0], [0, 0]) == 0.5

    def test_symmetry_under_class_swap(self):
        y_true = np.array([1, 0, 0, 1, 1, 0, 1, 0])
        y_pred = np.array([1, 1, 0, 0, 1, 0, 1, 1])
        assert macro_f1(y_true, y_pred) == pytest.approx(
            macro_f1(1 - y_true, 1 - y_pred)
        )

    def test_matches_count_formula_on_random_data(self, rng):
        # exact equality: both sides reduce to the same float arithmetic
        for _ in range(500):
            n = int(rng.integers(2, 60))
            y_true = rng.integers(0, 2, size=n)
            y_pred = rng.integers(0, 2, size=n)
            cm = ConfusionMatrix.from_predictions(y_true, y_pred)
            f1_gen = (
                2 * cm.tp / (2 * cm.tp + cm.fp + cm.fn)
                if 2 * cm.tp + cm.fp + cm.fn
                else 0.0
            )
            f1_hum = (
                2 * cm.tn / (2 * cm.tn + cm.fn + cm.fp)
                if 2 * cm.tn + cm.fn + cm.fp
                else 0.0
            )
            assert macro_f1(y_true, y_pred) == 0.5 * (f1_gen + f1_hum)


class TestThresholdCandidates:
    def test_includes_endpoints_and_midpoints(self):
        cands = threshold_candidates([0.2, 0.4, 0.8])
        assert cands == [0.0, (0.2 + 0.4) / 2, (0.4 + 0.8) / 2, 1.0]

    def test_duplicates_collapse(self):
        assert threshold_candidates([0.5, 0.5, 0.5]) == [0.0, 1.0]

    def test_sorted_ascending(self, rng):
        cands = threshold_candidates(rng.random(30))
        assert cands == sorted(cands)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            threshold_candidates([])


class TestRocCurve:
    def test_endpoints(self):
        points = roc_curve([0.2, 0.7, 0.4, 0.9], [0, 1, 0, 1])
        assert points[0].threshold == 0.0
        assert (points[0].tpr, points[0].fpr) == (1.0, 1.0)
        assert points[-1].threshold == 1.0
        assert (points[-1].tpr, points[-1].fpr) == (0.0, 0.0)

    def test_exact_rates(self):
        points = roc_curve([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0])
        by_threshold = {p.threshold: (p.tpr, p.fpr) for p in points}
        assert by_threshold[(0.3 + 0.8) / 2] == (0.5, 0.5)
        assert by_threshold[(0.1 + 0.3) / 2] == (1.0, 0.5)
        assert by_threshold[0.0] == (1.0, 1.0)

    def test_threshold_inclusive(self):
        # score == threshold predicts positive
        points = roc_curve([0.0, 1.0], [0, 1])
        assert [(p.threshold, p.tpr, p.fpr) for p in points] == [
            (0.0, 1.0, 1.0),
            (0.5, 1.0, 0.0),
            (1.0, 1.0, 0.0),
        ]

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            roc_curve([0.1, 0.9], [1, 1])

    def test_matches_exhaustive_oracle(self, rng):
        # Reference: recompute each rate by explicit counting over every
        # candidate produced independently from the sorted distinct scores.
        for _ in range(20):
            n = int(rng.integers(4, 40))
            scores = np.round(rng.random(n), 3)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            distinct = sorted(set(scores.tolist()))
            cands = sorted(
                {0.0, 1.0}
                | {(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])}
            )
            points = roc_curve(scores, labels)
            assert [p.threshold for p in points] == cands
            n_pos = int(np.sum(labels == 1))
            n_neg = n - n_pos
            for point in points:
                tp = sum(
                    1 for s, l in zip(scores, labels) if l == 1 and s >= point.threshold
                )
                fp = sum(
                    1 for s, l in zip(scores, labels) if l == 0 and s >= point.threshold
                )
                assert point.tpr == tp / n_pos
                assert point.fpr == fp / n_neg

    def test_monotone_nonincreasing_in_threshold(self, rng):
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        points = roc_curve(scores, labels)
        tprs = [p.tpr for p in points]
        fprs = [p.fpr for p in points]
        assert tprs == sorted(tprs, reverse=True)
        assert fprs == sorted(fprs, reverse=True)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            roc_curve([0.5], [1, 0])


class TestEvalReport:
    def test_report_fields_and_json(self):
        report = evaluate_predictions(
            [1, 0, 1, 0], [1, 0, 0, 0], scores=[0.9, 0.2, 0.4, 0.1], model="demo"
        )
        assert report.n == 4
        assert report.macro_f1 == pytest.approx(
            0.5 * (2 / 3 + 4 / 5)
        )
        blob = json.loads(report.to_json())
        assert blob["model"] == "demo"
        assert blob["confusion"] == {"tp": 1, "fp": 0, "tn": 2, "fn": 1}
        assert blob["roc"] is not None
        assert blob["roc"][0]["threshold"] == 0.0

    def test_no_scores_no_roc(self):
        report = evaluate_predictions([1, 0], [1, 0])
        assert report.roc is None
        assert json.loads(report.to_json())["roc"] is None

    def test_each_present_language_is_scored_on_its_rows(self):
        report = evaluate_predictions(
            [1, 0, 1, 0, 1], [1, 0, 0, 1, 1], languages=["es", "en", "es", "en", "es"]
        )
        assert report.macro_f1_per_language == {
            "en": macro_f1([0, 0], [0, 1]),
            "es": macro_f1([1, 1, 1], [1, 0, 1]),
        }
        assert list(json.loads(report.to_json())["macro_f1_per_language"]) == ["en", "es"]
        assert "macro_f1[en]=0.3333  macro_f1[es]=0.4000" in report.to_text()

    def test_no_languages_no_per_language_scores(self):
        report = evaluate_predictions([1, 0], [1, 0])
        assert json.loads(report.to_json())["macro_f1_per_language"] == {}
        assert "macro_f1[" not in report.to_text()

    def test_languages_must_match_the_rows(self):
        with pytest.raises(DataError, match="3 languages for 2 rows"):
            evaluate_predictions([1, 0], [1, 0], languages=["en", "en", "es"])

    def test_text_rendering_mentions_counts(self):
        report = evaluate_predictions([1, 0], [1, 0], model="m")
        text = report.to_text()
        assert "tp=1" in text
        assert "m" in text


class TestResultsTable:
    def test_alignment_and_placeholders(self):
        table = format_results_table(
            [("neural", 0.91234, 0.898765), ("svm", None, 0.75)]
        )
        lines = table.splitlines()
        assert lines[0].split() == ["model", "validation", "F1", "test", "F1"]
        assert "0.9123" in lines[2]
        assert "-" in lines[3]
