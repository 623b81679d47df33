import json

import numpy as np
import pytest

from mgtdetect.errors import ConfigError, DataError
from mgtdetect.shallow import (
    GbtGrid,
    GbtHyperparams,
    GbtModel,
    gbt_from_jsonable,
    gbt_predict_proba_many,
    gbt_to_jsonable,
    gbt_train,
    grid_search,
    knn_fit,
    knn_from_jsonable,
    knn_predict_proba_many,
    knn_to_jsonable,
)


def knn_oracle(train_x, train_labels, k, queries):
    """Reference: true Euclidean distances, full stable sort per query."""
    out = []
    for q in queries:
        d = np.sqrt(np.sum((train_x - q) ** 2, axis=1))
        order = np.argsort(d, kind="stable")
        out.append(float(np.mean(train_labels[order[:k]] == 1)))
    return np.array(out)


def knn_one(model, query):
    return float(knn_predict_proba_many(model, np.asarray([query], dtype=np.float64))[0])


def stored_depth(tree: dict) -> int:
    """Depth of one tree as gbt_to_jsonable writes it."""
    if "value" in tree:
        return 0
    return 1 + max(stored_depth(tree["left"]), stored_depth(tree["right"]))


def logistic_loss(y, p):
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


class TestKnn:
    def test_matches_full_sort_oracle_on_500_queries(self, rng):
        train_x = rng.normal(size=(200, 6))
        labels = rng.integers(0, 2, size=200)
        queries = rng.normal(size=(500, 6))
        for k in (1, 10, 200):
            model = knn_fit(train_x, labels, k=k)
            got = knn_predict_proba_many(model, queries)
            np.testing.assert_array_equal(got, knn_oracle(train_x, labels, k, queries))

    def test_duplicate_points_tie_break_by_stored_index(self):
        # Two stored points at distance zero: the earlier index wins a slot.
        model = knn_fit(np.array([[0.0], [0.0], [1.0]]), [1, 0, 0], k=2)
        assert knn_one(model, [0.0]) == 0.5
        first_only = knn_fit(np.array([[0.0], [0.0], [1.0]]), [1, 0, 0], k=1)
        assert knn_one(first_only, [0.0]) == 1.0

    def test_query_on_training_point(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, 6.0]])
        model = knn_fit(x, [1, 0, 0], k=1)
        assert knn_one(model, [0.0, 0.0]) == 1.0
        assert knn_one(model, [5.0, 5.1]) == 0.0

    def test_probability_is_neighbor_fraction(self):
        x = np.array([[0.0], [0.1], [0.2], [10.0]])
        model = knn_fit(x, [1, 1, 0, 0], k=3)
        assert knn_one(model, [0.0]) == pytest.approx(2 / 3)

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(DataError):
            knn_fit(np.zeros((3, 2)), [0, 1, 0], k=4)

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError):
            knn_fit(np.zeros((3, 2)), [0, 1, 0], k=0)

    def test_width_mismatch_rejected(self):
        model = knn_fit(np.zeros((3, 2)), [0, 1, 0], k=1)
        with pytest.raises(DataError):
            knn_predict_proba_many(model, np.zeros((1, 3)))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(DataError):
            knn_fit(np.zeros((2, 1)), [0, 2], k=1)

    def test_default_k_is_ten(self):
        model = knn_fit(np.zeros((12, 1)) + np.arange(12)[:, None], [0, 1] * 6)
        assert model.k == 10


class TestGbtLossCurve:
    @pytest.mark.parametrize("lr", [0.05, 0.1, 0.3])
    def test_training_loss_non_increasing_per_round(self, rng, lr):
        x = rng.normal(size=(80, 4))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
        # flip a few labels so the fit cannot trivially saturate
        noisy = y.copy()
        flip = rng.choice(80, size=8, replace=False)
        noisy[flip] = 1 - noisy[flip]
        model = gbt_train(x, noisy, n_estimators=30, max_depth=3, learning_rate=lr)
        losses = []
        for t in range(len(model.trees) + 1):
            prefix = GbtModel(
                trees=model.trees[:t],
                learning_rate=model.learning_rate,
                base_score=model.base_score,
            )
            losses.append(logistic_loss(noisy, gbt_predict_proba_many(prefix, x)))
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12


class TestGbtStump:
    def test_recovers_threshold_within_one_sorted_gap(self, rng):
        for trial in range(20):
            n = 50
            x = np.sort(rng.normal(size=n) * 10.0)
            boundary = int(rng.integers(5, n - 5))
            y = (np.arange(n) >= boundary).astype(np.int64)
            model = gbt_train(
                x[:, None], y, n_estimators=1, max_depth=1, learning_rate=0.1
            )
            root = model.trees[0]
            assert not root.is_leaf
            # the ideal cut separates x[boundary-1] from x[boundary]; one
            # sorted gap of slack on each side
            low = x[boundary - 2]
            high = x[boundary + 1]
            assert low <= root.threshold <= high, f"trial {trial}"

    def test_exact_midpoint_on_clean_data(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = gbt_train(x, y, n_estimators=1, max_depth=1, learning_rate=0.1)
        root = model.trees[0]
        assert root.threshold == 5.5
        # base score is logit(0.5) = 0; residuals are +-0.5 with hessians
        # 0.25, so each leaf is sum(residual) / (sum(hessian) + 1)
        assert root.left.value == pytest.approx(-1.0 / 1.5)
        assert root.right.value == pytest.approx(1.0 / 1.5)

    def test_prediction_uses_learning_rate_and_base(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        lr = 0.1
        model = gbt_train(x, y, n_estimators=1, max_depth=1, learning_rate=lr)
        expected_right = 1.0 / (1.0 + np.exp(-(0.0 + lr * (1.0 / 1.5))))
        prob = gbt_predict_proba_many(model, np.array([[12.0]]))[0]
        assert prob == pytest.approx(expected_right)


class TestGbtStructure:
    def test_depth_bounded(self, rng):
        x = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, size=60)
        for depth in (1, 2, 3):
            model = gbt_train(x, y, n_estimators=4, max_depth=depth, learning_rate=0.1)
            trees = gbt_to_jsonable(model)["trees"]
            assert all(stored_depth(t) <= depth for t in trees)

    def test_every_leaf_keeps_two_samples(self, rng):
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        y[0], y[1] = 0, 1
        model = gbt_train(x, y, n_estimators=2, max_depth=4, learning_rate=0.1)

        def leaf_counts(node, rows):
            if node.is_leaf:
                return [len(rows)]
            mask = x[rows, node.feature] <= node.threshold
            return leaf_counts(node.left, rows[mask]) + leaf_counts(
                node.right, rows[~mask]
            )

        for tree in model.trees:
            counts = leaf_counts(tree, np.arange(20))
            assert min(counts) >= 2

    def test_isolating_split_is_refused(self):
        # unconstrained greedy would cut off the single positive at x=0
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 0])
        model = gbt_train(x, y, n_estimators=1, max_depth=3, learning_rate=0.1)
        root = model.trees[0]
        if not root.is_leaf:
            assert root.threshold == 1.5  # the only cut leaving 2 on each side

    def test_every_threshold_is_a_midpoint_of_consecutive_values(self, rng):
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        model = gbt_train(x, y, n_estimators=6, max_depth=3, learning_rate=0.2)

        def walk(node, rows):
            if node.is_leaf:
                return
            col = np.sort(x[rows, node.feature])
            midpoints = {(lo + hi) / 2.0 for lo, hi in zip(col, col[1:])}
            assert node.threshold in midpoints
            mask = x[rows, node.feature] <= node.threshold
            walk(node.left, rows[mask])
            walk(node.right, rows[~mask])

        for tree in model.trees:
            walk(tree, np.arange(50))

    def test_duplicate_feature_tie_goes_to_first(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        model = gbt_train(x, y, n_estimators=1, max_depth=1, learning_rate=0.1)
        assert model.trees[0].feature == 0

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            gbt_train(np.zeros((4, 1)), [1, 1, 1, 1])

    def test_bad_hyperparams_rejected(self):
        x, y = np.zeros((4, 1)), [0, 1, 0, 1]
        with pytest.raises(ConfigError):
            gbt_train(x, y, n_estimators=0)
        with pytest.raises(ConfigError):
            gbt_train(x, y, max_depth=0)
        with pytest.raises(ConfigError):
            gbt_train(x, y, learning_rate=0.0)


class TestGridSearch:
    def test_all_ties_pick_smallest_config(self):
        # constant features make every grid point identical, so the first
        # visited candidate (fewest trees, shallowest, smallest rate) wins
        x = np.zeros((30, 2))
        y = np.array([0, 1] * 15)
        _, params = grid_search(x, y, x, y)
        assert params == GbtHyperparams(2, 3, 1e-5)

    def test_picks_config_that_fits_signal(self, rng):
        x = rng.normal(size=(120, 3))
        y = (x[:, 0] > 0).astype(np.int64)
        xv = rng.normal(size=(60, 3))
        yv = (xv[:, 0] > 0).astype(np.int64)
        grid = GbtGrid(estimators=(2, 10), depths=(3,), learning_rates=(1e-5, 0.1))
        model, params = grid_search(x, y, xv, yv, grid)
        preds = (gbt_predict_proba_many(model, xv) >= 0.5).astype(np.int64)
        assert float(np.mean(preds == yv)) > 0.9
        assert params.learning_rate == 0.1

    def test_default_grid_covers_reference_configuration(self):
        grid = GbtGrid()
        assert 3 in grid.estimators or 3 in grid.depths
        assert (3 in grid.estimators) and (5 in grid.depths) and (1e-3 in grid.learning_rates)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            GbtGrid(estimators=())


class TestSerialization:
    def test_gbt_round_trip_bitwise(self, rng):
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        y[0], y[1] = 0, 1
        model = gbt_train(x, y, n_estimators=5, max_depth=3, learning_rate=0.05)
        blob = json.loads(json.dumps(gbt_to_jsonable(model)))
        restored = gbt_from_jsonable(blob)
        np.testing.assert_array_equal(
            gbt_predict_proba_many(restored, x), gbt_predict_proba_many(model, x)
        )

    def test_knn_round_trip_bitwise(self, rng):
        x = rng.normal(size=(25, 4))
        y = rng.integers(0, 2, size=25)
        y[0], y[1] = 0, 1
        model = knn_fit(x, y, k=5)
        restored = knn_from_jsonable(json.loads(json.dumps(knn_to_jsonable(model))))
        queries = rng.normal(size=(30, 4))
        np.testing.assert_array_equal(
            knn_predict_proba_many(restored, queries),
            knn_predict_proba_many(model, queries),
        )
        assert restored.k == 5
