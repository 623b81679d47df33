from fractions import Fraction

import numpy as np
import pytest

from mgtdetect.ensemble import (
    ensemble_predict_labels,
    ensemble_predict_proba,
    meta_features,
    select_threshold,
    train_ensemble,
)
from mgtdetect.errors import ConfigError, DataError
from mgtdetect.evaluation import macro_f1
from mgtdetect.shallow import GbtGrid

SMALL_GRID = GbtGrid(estimators=(5, 20), depths=(3,), learning_rates=(0.1, 0.5))


def oracle_select(scores, labels, rule):
    """Reference: enumerate every candidate, collect objectives, then take
    the optimum and break ties toward the larger threshold at the end."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    distinct = sorted(set(scores.tolist()))
    candidates = sorted(
        {0.0, 1.0} | {(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])}
    )
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    pairs = []
    for t in candidates:
        tp = int(np.sum(scores[labels == 1] >= t))
        fp = int(np.sum(scores[labels == 0] >= t))
        tpr = Fraction(tp, n_pos)
        fpr = Fraction(fp, n_neg)
        if rule == "sum_to_one":
            pairs.append((abs(tpr + fpr - 1), t))
        else:
            pairs.append((tpr - fpr, t))
    if rule == "sum_to_one":
        best = min(objective for objective, _ in pairs)
    else:
        best = max(objective for objective, _ in pairs)
    return max(t for objective, t in pairs if objective == best)


class TestSelectThreshold:
    @pytest.mark.parametrize("rule", ["sum_to_one", "youden"])
    def test_matches_exhaustive_enumeration(self, rule):
        rng = np.random.default_rng(321)
        for _ in range(200):
            n = int(rng.integers(4, 50))
            # two-decimal scores force plenty of exact ties
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert select_threshold(scores, labels, rule) == oracle_select(
                scores, labels, rule
            )

    def test_tie_goes_to_larger_threshold(self):
        # Identical scores: thresholds 0 and 1 are equally (un)balanced,
        # so the larger one must win under both rules.
        assert select_threshold([0.5, 0.5], [0, 1], "sum_to_one") == 1.0
        assert select_threshold([0.5, 0.5], [0, 1], "youden") == 1.0

    def test_youden_tie_on_inverted_model(self):
        # J = 0 at both endpoints and J = -1 in the middle
        assert select_threshold([0.2, 0.8], [1, 0], "youden") == 1.0

    def test_balanced_rule_picks_separator(self):
        t = select_threshold([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], "sum_to_one")
        assert t == 0.5

    def test_youden_picks_separator(self):
        assert select_threshold([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], "youden") == 0.5

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError):
            select_threshold([0.5], [1], "accuracy")

    @pytest.mark.parametrize("rule", ["sum_to_one", "youden"])
    def test_single_class_rejected(self, rule):
        with pytest.raises(DataError, match="both classes"):
            select_threshold([0.1, 0.9], [0, 0], rule)

    @pytest.mark.parametrize("rule", ["sum_to_one", "youden"])
    def test_threshold_inclusive(self, rule):
        # At threshold 1 the score 1.0 still counts as positive, so the
        # perfect split there ties with 0.5 and the larger threshold wins.
        assert select_threshold([0.0, 1.0], [0, 1], rule) == 1.0


class TestMetaFeatures:
    def test_width_is_twice_base_count(self):
        probs3 = [np.array([0.2, 0.8])] * 3
        assert meta_features(probs3, [0.5] * 3).shape == (2, 6)
        probs2 = [np.array([0.2, 0.8])] * 2
        assert meta_features(probs2, [0.5] * 2).shape == (2, 4)

    def test_probability_and_vote_layout(self):
        matrix = meta_features(
            [np.array([0.3, 0.7]), np.array([0.6, 0.1])], [0.5, 0.5]
        )
        np.testing.assert_array_equal(
            matrix, [[0.3, 0.0, 0.6, 1.0], [0.7, 1.0, 0.1, 0.0]]
        )

    def test_vote_uses_geq_convention(self):
        matrix = meta_features([np.array([0.5])], [0.5])
        assert matrix[0, 1] == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            meta_features([np.array([0.5])], [0.5, 0.5])
        with pytest.raises(DataError):
            meta_features([], [])
        with pytest.raises(DataError):
            meta_features([np.array([0.5]), np.array([0.5, 0.5])], [0.5, 0.5])


def oracle_base_setup(n=40):
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    probs = labels.astype(np.float64)
    return {"oracle": probs}, labels


def complementary_bases(n_per_cell=50):
    """Two bases whose marginal scores overlap across classes, while the
    joint pattern identifies the label exactly."""
    patterns = [
        # (base a score, base b score, label)
        (0.9, 0.4, 1),
        (0.4, 0.9, 1),
        (0.6, 0.1, 0),
        (0.1, 0.6, 0),
    ]
    pa, pb, labels = [], [], []
    for a, b, label in patterns:
        pa += [a] * n_per_cell
        pb += [b] * n_per_cell
        labels += [label] * n_per_cell
    return (
        {"a": np.array(pa), "b": np.array(pb)},
        np.array(labels, dtype=np.int64),
    )


class TestTrainEnsemble:
    def test_oracle_base_reaches_perfect_holdout_f1(self):
        probs, labels = oracle_base_setup()
        model = train_ensemble(probs, labels, grid=SMALL_GRID)
        preds = ensemble_predict_labels(model, probs)
        assert macro_f1(labels, preds) == 1.0

    def test_strictly_beats_complementary_error_bases(self):
        probs, labels = complementary_bases()
        model = train_ensemble(probs, labels, grid=SMALL_GRID)
        ensemble_score = macro_f1(labels, ensemble_predict_labels(model, probs))
        for name, threshold in zip(model.base_names, model.base_thresholds):
            base_preds = (probs[name] >= threshold).astype(np.int64)
            base_score = macro_f1(labels, base_preds)
            assert ensemble_score > base_score, name
            assert base_score < 1.0, name

    def test_per_base_thresholds_are_calibrated_individually(self):
        probs, labels = complementary_bases()
        model = train_ensemble(probs, labels, grid=SMALL_GRID)
        for name, threshold in zip(model.base_names, model.base_thresholds):
            assert threshold == select_threshold(probs[name], labels)

    def test_deterministic_for_fixed_seed(self):
        probs, labels = complementary_bases()
        a = train_ensemble(probs, labels, grid=SMALL_GRID, seed=5)
        b = train_ensemble(probs, labels, grid=SMALL_GRID, seed=5)
        np.testing.assert_array_equal(
            ensemble_predict_proba(a, probs), ensemble_predict_proba(b, probs)
        )
        assert a.threshold == b.threshold

    def test_small_holdout_rejected(self):
        labels = np.array([0, 1] * 9 + [0])  # 19 rows
        probs = {"a": np.linspace(0, 1, 19)}
        with pytest.raises(DataError, match="at least 20"):
            train_ensemble(probs, labels)

    def test_train_holdout_overlap_rejected(self):
        probs, labels = oracle_base_setup()
        n = len(labels)
        with pytest.raises(DataError, match="overlap"):
            train_ensemble(
                probs,
                labels,
                grid=SMALL_GRID,
                holdout_ids=[f"d{i}" for i in range(n)],
                train_ids=["d0", "other"],
            )

    def test_disjoint_ids_accepted(self):
        probs, labels = oracle_base_setup()
        n = len(labels)
        model = train_ensemble(
            probs,
            labels,
            grid=SMALL_GRID,
            holdout_ids=[f"h{i}" for i in range(n)],
            train_ids=[f"t{i}" for i in range(100)],
        )
        assert model.base_names == ("oracle",)

    def test_no_bases_rejected(self):
        with pytest.raises(DataError):
            train_ensemble({}, np.zeros(30, dtype=np.int64))


class TestEnsemblePredict:
    def test_missing_base_rejected(self):
        probs, labels = oracle_base_setup()
        model = train_ensemble(probs, labels, grid=SMALL_GRID)
        with pytest.raises(DataError, match="missing"):
            ensemble_predict_proba(model, {})

    def test_extra_base_rejected(self):
        probs, labels = oracle_base_setup()
        model = train_ensemble(probs, labels, grid=SMALL_GRID)
        with pytest.raises(DataError, match="unexpected"):
            ensemble_predict_proba(
                model, {"oracle": probs["oracle"], "mystery": probs["oracle"]}
            )

    def test_labels_use_calibrated_threshold(self):
        probs, labels = complementary_bases()
        model = train_ensemble(probs, labels, grid=SMALL_GRID)
        scores = ensemble_predict_proba(model, probs)
        np.testing.assert_array_equal(
            ensemble_predict_labels(model, probs),
            (scores >= model.threshold).astype(np.int64),
        )
