import dataclasses
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtdetect import shallow
from mgtdetect.errors import ConfigError, DataError
from mgtdetect.evaluation import macro_f1
from mgtdetect.shallow import (
    LEAF_DAMPING,
    MIN_SAMPLES_PER_LEAF,
    GbtGrid,
    GbtHyperparams,
    GbtModel,
    TreeNode,
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


def knn_argsort_reference(model, queries):
    """Reference: the expansion's distances, one full stable sort per query."""
    q = np.asarray(queries, dtype=np.float64)
    x_sq = np.sum(model.x**2, axis=1)
    q_sq = np.sum(q**2, axis=1)
    d2 = np.maximum(q_sq[:, None] + x_sq[None, :] - 2.0 * (q @ model.x.T), 0.0)
    probs = np.empty(q.shape[0], dtype=np.float64)
    for row in range(q.shape[0]):
        nearest = np.argsort(d2[row], kind="stable")[: model.k]
        probs[row] = float(np.mean(model.labels[nearest] == 1))
    return probs


@st.composite
def knn_cases(draw):
    """Stored rows and queries on a small grid, so distances tie often."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    cell = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    grid = st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n)
    x = np.array(draw(grid), dtype=np.float64).reshape(n, d)
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = x[0]  # a duplicate stored row
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    k = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    m = draw(st.integers(0, 6))
    rows = [list(r) for r in x] + [[float("nan")] * d]
    queries = draw(
        st.lists(
            st.one_of(st.sampled_from(rows), st.lists(cell, min_size=d, max_size=d)),
            min_size=m,
            max_size=m,
        )
    )
    return knn_fit(x, labels, k=k), np.array(queries, dtype=np.float64).reshape(m, d)


class TestKnnSelection:
    """Partial selection picks the neighbors of a stable full sort."""

    @settings(max_examples=300, deadline=None)
    @given(case=knn_cases())
    def test_matches_the_per_row_argsort(self, case):
        model, queries = case
        got = knn_predict_proba_many(model, queries)
        assert got.tobytes() == knn_argsort_reference(model, queries).tobytes()

    def test_matches_the_per_row_argsort_on_floats(self, rng):
        x = rng.normal(size=(300, 8))
        x[150:] = x[:150]  # every distance appears twice
        labels = rng.integers(0, 2, size=300)
        queries = np.vstack([rng.normal(size=(40, 8)), x[:10]])
        for k in (1, 2, 7, 299, 300):
            model = knn_fit(x, labels, k=k)
            got = knn_predict_proba_many(model, queries)
            assert got.tobytes() == knn_argsort_reference(model, queries).tobytes()

    @pytest.mark.parametrize("cap", [1, 59, 120, 121])
    def test_blocks_give_the_same_probabilities(self, rng, monkeypatch, cap):
        # Small integers keep every distance exact, whatever rows share a block.
        x = rng.integers(-2, 3, size=(60, 5)).astype(np.float64)
        labels = rng.integers(0, 2, size=60)
        queries = np.vstack([rng.integers(-2, 3, size=(23, 5)), x[:7]]).astype(np.float64)
        model = knn_fit(x, labels, k=9)
        whole = knn_predict_proba_many(model, queries)
        monkeypatch.setattr(shallow, "_KNN_BLOCK_CELLS", cap)
        assert knn_predict_proba_many(model, queries).tobytes() == whole.tobytes()

    def test_zero_queries(self):
        model = knn_fit(np.eye(3), [0, 1, 1], k=2)
        assert knn_predict_proba_many(model, np.zeros((0, 3))).shape == (0,)


def reference_feature_splits(x, residuals):
    """Reference: one stable argsort and one gain scan per feature.

    Each feature's (best gain, threshold): the gain is -inf when no cut is
    allowed, and the lowest threshold wins ties.  The threshold is the
    midpoint, or the lower value when the midpoint rounds onto the upper.
    The two running sums are real ``np.cumsum`` calls.
    """
    n = x.shape[0]
    total_sum = float(np.sum(residuals))
    total_sq = float(np.sum(residuals**2))
    parent_sse = total_sq - total_sum**2 / n
    splits = []
    for feature in range(x.shape[1]):
        order = np.argsort(x[:, feature], kind="stable")
        col = x[order, feature]
        csum = np.cumsum(residuals[order])
        csq = np.cumsum(residuals[order] ** 2)
        left_n = np.arange(1, n)
        valid = (
            (col[:-1] < col[1:])
            & (left_n >= MIN_SAMPLES_PER_LEAF)
            & (n - left_n >= MIN_SAMPLES_PER_LEAF)
        )
        right_sum = total_sum - csum[:-1]
        sse = (
            csq[:-1]
            - csum[:-1] ** 2 / left_n
            + (total_sq - csq[:-1])
            - right_sum**2 / (n - left_n)
        )
        gain = np.where(valid, parent_sse - sse, -np.inf)
        idx = int(np.argmax(gain))
        threshold = (col[idx] + col[idx + 1]) / 2.0
        if not threshold < col[idx + 1]:
            threshold = col[idx]
        splits.append((float(gain[idx]), float(threshold)))
    return splits


def reference_best_split(x, residuals):
    """Reference: the first feature whose best gain is the largest one above
    the floor, at its lowest best threshold."""
    if x.shape[0] < 2 * MIN_SAMPLES_PER_LEAF:
        return None
    best_gain = 1e-12
    best = None
    for feature, (gain, threshold) in enumerate(reference_feature_splits(x, residuals)):
        if gain > best_gain:
            best_gain = gain
            best = (feature, threshold)
    return best


def reference_tree(x, residuals, hessians, depth, max_depth):
    if depth < max_depth:
        split = reference_best_split(x, residuals)
        if split is not None:
            feature, threshold = split
            mask = x[:, feature] <= threshold
            return TreeNode(
                feature=feature,
                threshold=threshold,
                left=reference_tree(
                    x[mask], residuals[mask], hessians[mask], depth + 1, max_depth
                ),
                right=reference_tree(
                    x[~mask], residuals[~mask], hessians[~mask], depth + 1, max_depth
                ),
            )
    return TreeNode(value=float(np.sum(residuals) / (np.sum(hessians) + LEAF_DAMPING)))


def reference_gbt(x, y, n_estimators, max_depth, learning_rate):
    """Reference fit: every node re-sorts its own rows, every round re-applies."""
    yf = np.asarray(y, dtype=np.float64)
    mean = float(np.mean(yf))
    base_score = float(np.log(mean / (1.0 - mean)))
    raw = np.full(x.shape[0], base_score)
    trees = []
    for _ in range(n_estimators):
        p = 1.0 / (1.0 + np.exp(-raw))
        tree = reference_tree(x, yf - p, p * (1.0 - p), 0, max_depth)
        raw += learning_rate * GbtModel((tree,), 1.0, 0.0).predict_raw(x)
        trees.append(tree)
    return GbtModel(tuple(trees), float(learning_rate), base_score)


def leaf_counts(node, x, rows):
    """Training rows reaching each leaf, routed as serving routes them."""
    if node.is_leaf:
        return [len(rows)]
    mask = x[rows, node.feature] <= node.threshold
    return leaf_counts(node.left, x, rows[mask]) + leaf_counts(node.right, x, rows[~mask])


@st.composite
def training_sets(draw):
    """Small matrices with tied values, duplicate and constant columns."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        cell = st.integers(0, 3).map(float)
    else:
        cell = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    x = np.array(rows, dtype=np.float64)
    extra = draw(st.sampled_from(["none", "duplicate", "constant"]))
    if extra == "duplicate":
        x = np.hstack([x, x[:, [draw(st.integers(0, d - 1))]]])
    elif extra == "constant":
        x = np.hstack([np.full((n, 1), draw(cell)), x])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[0], y[1] = 0, 1
    return x, y


class TestGbtExactness:
    """The presorted fit grows exactly the trees of the per-node reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=training_sets(),
        max_depth=st.integers(1, 10),
        n_estimators=st.integers(1, 3),
        learning_rate=st.sampled_from([0.05, 0.3, 1.0]),
    )
    def test_matches_per_node_reference(self, data, max_depth, n_estimators, learning_rate):
        x, y = data
        got = gbt_train(x, y, n_estimators, max_depth, learning_rate)
        want = reference_gbt(x, y, n_estimators, max_depth, learning_rate)
        assert got == want

    def test_matches_reference_on_a_wide_tied_matrix(self, rng):
        x = np.round(rng.normal(size=(120, 40)), 1)
        x[:, 5] = x[:, 2]
        x[:, 7] = 0.25
        y = (x[:, 0] + x[:, 3] > 0).astype(np.int64)
        y[rng.choice(120, size=15, replace=False)] ^= 1
        for depth in (1, 4, 10):
            got = gbt_train(x, y, n_estimators=3, max_depth=depth, learning_rate=0.3)
            assert got == reference_gbt(x, y, 3, depth, 0.3)

    def test_fewer_trees_are_a_prefix(self, rng):
        x = np.round(rng.normal(size=(60, 5)), 1)
        y = rng.integers(0, 2, size=60)
        y[0], y[1] = 0, 1
        full = gbt_train(x, y, n_estimators=8, max_depth=4, learning_rate=0.3)
        for k in range(1, 8):
            short = gbt_train(x, y, n_estimators=k, max_depth=4, learning_rate=0.3)
            assert full.trees[:k] == short.trees
            assert (short.learning_rate, short.base_score) == (
                full.learning_rate,
                full.base_score,
            )

    def test_adjacent_doubles_split_at_the_lower_value(self):
        # The midpoint of two adjacent doubles can round onto the upper one,
        # which would send every row left.
        low = np.nextafter(1.0, 2.0)
        high = np.nextafter(low, 2.0)
        assert (low + high) / 2.0 == high
        x = np.array([[low]] * 4 + [[high]] * 4)
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        model = gbt_train(x, y, n_estimators=1, max_depth=1, learning_rate=0.1)
        root = model.trees[0]
        assert root.threshold == low
        assert min(leaf_counts(root, x, np.arange(8))) >= MIN_SAMPLES_PER_LEAF
        probs = gbt_predict_proba_many(model, x)
        assert np.all(probs[:4] < 0.5) and np.all(probs[4:] > 0.5)


class TestGbtColumnBlock:
    """Chunked search and two-buffer partition: the same trees, less work."""

    @staticmethod
    def tied_matrix(rng, n=60, d=11):
        x = np.round(rng.normal(size=(n, d)), 1)
        x[:, 4] = x[:, 1]
        x[rng.choice(n, size=6, replace=False), 2] = np.nan
        y = (x[:, 0] + x[:, 3] > 0).astype(np.int64)
        y[rng.choice(n, size=8, replace=False)] ^= 1
        return x, y

    # 1: one feature a chunk; 37: the root's 60 rows do not fit, small nodes
    # take several features; 240: the root's 11 features in chunks of 4, 4, 3.
    @pytest.mark.parametrize("cells", [1, 37, 240])
    def test_chunk_budgets_grow_the_same_trees(self, rng, monkeypatch, cells):
        x, y = self.tied_matrix(rng)
        assert x.size <= shallow._SPLIT_CHUNK_CELLS  # one chunk by default
        want = [gbt_train(x, y, 3, depth, 0.3) for depth in (1, 2, 3, 8)]
        monkeypatch.setattr(shallow, "_SPLIT_CHUNK_CELLS", cells)
        assert [gbt_train(x, y, 3, depth, 0.3) for depth in (1, 2, 3, 8)] == want

    def test_a_node_taller_than_a_chunk_grows_the_reference_trees(self, rng):
        # One feature holds more rows than a chunk's cells, so each chunk is
        # one feature and the scratch is sized by the row count, as on a
        # corpus of tens of thousands of documents; the gains and right-hand
        # terms then fill all 2 n doubles of the gathered moments.
        n = shallow._SPLIT_CHUNK_CELLS + 17
        x = np.round(rng.normal(size=(n, 3)), 1)
        x[rng.choice(n, size=500, replace=False), 2] = np.nan
        y = (x[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(np.int64)
        assert shallow._ColumnBlock(x)._moments.size == n
        got = gbt_train(x, y, n_estimators=2, max_depth=3, learning_rate=0.3)
        want = reference_gbt(x, y, 2, 3, 0.3)
        assert len(got.trees) == 2
        for got_tree, want_tree in zip(got.trees, want.trees):
            assert got_tree == want_tree
        assert got == want

    @pytest.mark.parametrize("max_depth", [1, 2, 3, 6])
    def test_partitions_once_per_split_with_a_searched_child(self, rng, monkeypatch, max_depth):
        x, y = self.tied_matrix(rng)
        calls = []
        partition = shallow._ColumnBlock._partition

        def counting(self, lo, mid, hi, depth, rows, mask, left, right):
            calls.append((depth, left, right))
            partition(self, lo, mid, hi, depth, rows, mask, left, right)

        monkeypatch.setattr(shallow._ColumnBlock, "_partition", counting)
        model = gbt_train(x, y, 3, max_depth, 0.3)
        want = []

        def walk(node, rows, depth):
            # Preorder, as the fit splits; a child is searched when it may
            # split again and holds enough rows for two leaves.
            if node.is_leaf:
                return
            goes_left = x[rows, node.feature] <= node.threshold
            parts = (rows[goes_left], rows[~goes_left])
            searched = [
                depth + 1 < max_depth and len(part) >= 2 * MIN_SAMPLES_PER_LEAF
                for part in parts
            ]
            if any(searched):
                want.append((depth, *searched))
            walk(node.left, parts[0], depth + 1)
            walk(node.right, parts[1], depth + 1)

        for tree in model.trees:
            walk(tree, np.arange(len(x)), 0)
        assert calls == want
        if max_depth > 2:
            assert any(not (left and right) for _, left, right in calls)

    @pytest.mark.parametrize("shape", [(1000, 200), (500, 800)])
    def test_peak_memory_is_three_blocks_and_a_chunk(self, rng, shape):
        # The root's and two work buffers' int32 order and ranks take 24
        # bytes a cell, as the sort's three 8-byte temporaries do.  The
        # search's scratch (33 bytes a chunk cell: the gathered complex
        # moments, which then hold the gains and right-hand terms, their
        # complex running sums and the cuts refused) and a move's
        # temporaries are bounded by the chunk; a full-size float64 scratch,
        # as the search once kept, took about 48 a cell.
        x = rng.normal(size=shape)
        y = (x[:, 0] > 0).astype(np.int64)
        gbt_train(x[:40, :3], y[:40], 1, 2, 0.3)  # numpy's one-time allocations
        tracemalloc.start()
        try:
            gbt_train(x, y, n_estimators=2, max_depth=3, learning_rate=0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * x.size + 64 * shallow._SPLIT_CHUNK_CELLS


# Residuals whose squares and sums stay finite: signed zeros, subnormals,
# magnitudes from 1e-150 to 1e150 and ordinary values.
_RESIDUALS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 1e-150, -1e150]),
    st.builds(
        lambda sign, magnitude: sign * magnitude,
        st.sampled_from([1.0, -1.0]),
        st.floats(1e-150, 1e150),
    ),
    st.floats(-1.0, 1.0),
)


@st.composite
def stump_cases(draw):
    """A matrix with tied, duplicate, constant and NaN columns, and residuals
    that either mix magnitudes or cancel: large values and their negations
    around small ones, so each running sum depends on every rounding."""
    n = draw(st.integers(2 * MIN_SAMPLES_PER_LEAF, 40))
    d = draw(st.integers(1, 4))
    cell = draw(
        st.sampled_from(
            [st.integers(0, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False)]
        )
    )
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    x = np.array(rows, dtype=np.float64).reshape(n, d)
    for extra in draw(
        st.lists(st.sampled_from(["duplicate", "constant", "nan", "some nan"]), max_size=3)
    ):
        if extra == "duplicate":
            column = x[:, draw(st.integers(0, x.shape[1] - 1))]
        elif extra == "constant":
            column = np.full(n, draw(cell))
        elif extra == "nan":
            column = np.full(n, np.nan)
        else:
            column = x[:, 0].copy()
            column[draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))] = np.nan
        x = np.insert(x, draw(st.integers(0, x.shape[1])), column, axis=1)
    values = _RESIDUALS
    if draw(st.booleans()):
        big = draw(st.floats(1e100, 1e150))
        values = st.one_of(
            st.sampled_from([big, -big, np.nextafter(big, np.inf), -np.nextafter(big, 0.0)]),
            _RESIDUALS,
        )
    residuals = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    return x, residuals


class TestComplexAccumulate:
    """One complex running sum gives the two real running sums bit for bit.

    A stump's search runs once, at the root, so after the fit the block
    still holds every feature's best gain, floored as the search floors it.
    """

    @pytest.mark.parametrize("budget", ["one cell", "three features", "default"])
    @settings(max_examples=150, deadline=None)
    @given(case=stump_cases())
    def test_every_feature_gain_equals_two_real_running_sums(self, budget, case):
        x, residuals = case
        n = x.shape[0]
        cells = {"one cell": 1, "three features": 3 * n}.get(budget, shallow._SPLIT_CHUNK_CELLS)
        hessians = np.full(n, 0.25)
        with mock.patch.object(shallow, "_SPLIT_CHUNK_CELLS", cells):
            block = shallow._ColumnBlock(x)
            tree, _ = block.fit_tree(residuals, hessians, max_depth=1)
        assert tree == reference_tree(x, residuals, hessians, 0, 1)
        want = np.array([gain for gain, _ in reference_feature_splits(x, residuals)])
        want[~(want > shallow._SPLIT_GAIN_EPS)] = -np.inf
        assert block._best_gain.tobytes() == want.tobytes()


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
        with pytest.raises(ConfigError):
            gbt_train(x, y, learning_rate=float("nan"))


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

    @pytest.mark.parametrize(
        "grid",
        [
            GbtGrid(estimators=(2, 5), depths=(1, 3), learning_rates=(0.05, 0.5)),
            GbtGrid(
                estimators=(5, 1, 3, 5), depths=(3, 1, 3), learning_rates=(0.5, 0.05, 0.5)
            ),
        ],
    )
    def test_equals_fitting_every_grid_point(self, rng, grid, monkeypatch):
        x = np.round(rng.normal(size=(80, 4)), 1)
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
        y[rng.choice(80, size=12, replace=False)] ^= 1
        xv = np.round(rng.normal(size=(40, 4)), 1)
        yv = (xv[:, 0] > 0).astype(np.int64)
        best_score, want = -1.0, None
        for n_estimators in sorted(grid.estimators):
            for max_depth in sorted(grid.depths):
                for learning_rate in sorted(grid.learning_rates):
                    model = gbt_train(x, y, n_estimators, max_depth, learning_rate)
                    preds = (gbt_predict_proba_many(model, xv) >= 0.5).astype(np.int64)
                    score = macro_f1(yv, preds)
                    if score > best_score:
                        best_score = score
                        want = (model, GbtHyperparams(n_estimators, max_depth, learning_rate))
        fits = []
        original = shallow.gbt_train

        def counting(*args, **kwargs):
            fits.append(kwargs["n_estimators"])
            return original(*args, **kwargs)

        monkeypatch.setattr(shallow, "gbt_train", counting)
        model, params = grid_search(x, y, xv, yv, grid)
        assert (model, params) == want
        got = gbt_predict_proba_many(model, xv)
        assert got.tobytes() == gbt_predict_proba_many(want[0], xv).tobytes()
        # One fit per (depth, rate), each at the largest tree count.
        assert fits == [max(grid.estimators)] * (
            len(set(grid.depths)) * len(set(grid.learning_rates))
        )

    def test_default_grid_covers_reference_configuration(self):
        grid = GbtGrid()
        assert 3 in grid.estimators or 3 in grid.depths
        assert (3 in grid.estimators) and (5 in grid.depths) and (1e-3 in grid.learning_rates)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            GbtGrid(estimators=())


def apply_tree_reference(node, x):
    """Reference: walk one tree, routing the rows node by node."""
    out = np.empty(x.shape[0], dtype=np.float64)
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        current, rows = stack.pop()
        if current.is_leaf:
            out[rows] = current.value
            continue
        mask = x[rows, current.feature] <= current.threshold
        stack.append((current.left, rows[mask]))
        stack.append((current.right, rows[~mask]))
    return out


def predict_raw_reference(model, x):
    raw = np.full(x.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        raw += model.learning_rate * apply_tree_reference(tree, x)
    return raw


_CUTS = [-1.0, 0.0, 0.5, 2.0]


@st.composite
def tree_models(draw):
    """Unbalanced and single-leaf trees, and rows that sit on thresholds or are NaN."""
    d = draw(st.integers(1, 4))
    leaf = st.floats(-3, 3, allow_nan=False).map(lambda v: TreeNode(value=v))
    tree = st.recursive(
        leaf,
        lambda children: st.builds(
            TreeNode,
            feature=st.integers(0, d - 1),
            threshold=st.sampled_from(_CUTS),
            left=children,
            right=children,
        ),
        max_leaves=24,
    )
    trees = tuple(draw(st.lists(tree, max_size=6)))
    model = GbtModel(
        trees,
        draw(st.sampled_from([0.1, 0.3, 1.0])),
        draw(st.floats(-2, 2, allow_nan=False)),
    )
    m = draw(st.integers(0, 8))
    cell = st.sampled_from(_CUTS + [-0.5, 1.0, 3.0, float("nan")])
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=m, max_size=m))
    return model, np.array(rows, dtype=np.float64).reshape(m, d)


class TestGbtNodeArrays:
    """Level-by-level scoring of the node arrays equals walking each tree."""

    @settings(max_examples=150, deadline=None)
    @given(case=tree_models())
    def test_matches_walking_each_tree(self, case):
        model, x = case
        assert model.predict_raw(x).tobytes() == predict_raw_reference(model, x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=tree_models())
    def test_replaced_trees_rederive_the_arrays(self, case):
        model, x = case
        for n in range(len(model.trees) + 1):
            fewer = dataclasses.replace(model, trees=model.trees[:n])
            want = predict_raw_reference(fewer, x)
            assert fewer.predict_raw(x).tobytes() == want.tobytes()
            assert len(fewer.nodes.roots) == n

    def test_matches_walking_each_trained_tree(self, rng):
        x = np.round(rng.normal(size=(200, 6)), 1)
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        y[rng.choice(200, size=20, replace=False)] ^= 1
        model = gbt_train(x, y, n_estimators=20, max_depth=10, learning_rate=0.3)
        queries = np.vstack([np.round(rng.normal(size=(50, 6)), 1), x[:20]])
        queries[3, 2] = np.nan
        want = predict_raw_reference(model, queries)
        assert model.predict_raw(queries).tobytes() == want.tobytes()

    def test_grid_search_flattens_each_fit_and_the_selected_model(self, rng, monkeypatch):
        x = np.round(rng.normal(size=(60, 3)), 1)
        y = (x[:, 0] > 0).astype(np.int64)
        grid = GbtGrid(estimators=(1, 2, 4), depths=(2, 3), learning_rates=(0.1, 0.3))
        flattened = []
        original = shallow._NodeArrays.of

        def counting(trees):
            flattened.append(len(trees))
            return original(trees)

        monkeypatch.setattr(shallow._NodeArrays, "of", counting)
        _, params = grid_search(x, y, x, y, grid)
        # One per (depth, rate) fit at the largest count, then the model returned.
        assert flattened == [4] * 4 + [params.n_estimators]

    def test_decodes_a_tree_deeper_than_the_recursion_limit(self):
        depth = 5000
        tree = {"value": -1.0}
        for level in reversed(range(depth)):
            tree = {
                "feature": 0,
                "threshold": float(level),
                "left": {"value": float(level)},
                "right": tree,
            }
        model = gbt_from_jsonable({"learning_rate": 1.0, "base_score": 0.0, "trees": [tree]})
        x = np.array([[-5.0], [0.0], [2.5], [4998.0], [1e9], [np.nan]])
        np.testing.assert_array_equal(
            model.predict_raw(x), [0.0, 0.0, 3.0, 4998.0, -1.0, -1.0]
        )
        assert model.predict_raw(x).tobytes() == predict_raw_reference(model, x).tobytes()


class TestGbtSigmoid:
    """Probabilities of raw scores past the exp range are 0.0, with no warning."""

    def test_score_past_the_exp_range_is_0_without_a_warning(self):
        # exp(-z) overflows a double below a raw score of about -709.78.
        model = GbtModel(trees=(TreeNode(value=-1000.0),), learning_rate=1.0, base_score=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = gbt_predict_proba_many(model, np.zeros((3, 2)))
            assert shallow._sigmoid(-1000.0) == 0.0
        assert probs.tolist() == [0.0, 0.0, 0.0]

    def test_every_probability_keeps_the_bits_of_the_plain_formula(self):
        z = np.concatenate([
            np.linspace(-709.78, 709.78, 1001),
            [-709.7, -36.0, -1e-300, -0.0, 0.0, 1e-300, 36.0, 710.0, 1e3, 1e308],
        ])
        assert shallow._sigmoid(z).tobytes() == (1.0 / (1.0 + np.exp(-z))).tobytes()
        past = np.array([-709.8, -745.2, -1e3, -1e308, -np.inf])
        assert shallow._sigmoid(past).tolist() == [0.0] * len(past)


def _one_split_model(feature: int) -> GbtModel:
    stump = TreeNode(
        feature=feature, threshold=0.0, left=TreeNode(value=1.0), right=TreeNode(value=-1.0)
    )
    return GbtModel(trees=(stump,), learning_rate=0.1, base_score=0.0)


class TestSerialization:
    def test_gbt_round_trip_bitwise(self, rng):
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        y[0], y[1] = 0, 1
        model = gbt_train(x, y, n_estimators=5, max_depth=3, learning_rate=0.05)
        blob = json.loads(json.dumps(gbt_to_jsonable(model)))
        restored = gbt_from_jsonable(blob)
        assert restored == model
        # The arrays read from the stored trees are those of the trained trees.
        for got, want in zip(restored.nodes, model.nodes):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            gbt_predict_proba_many(restored, x), gbt_predict_proba_many(model, x)
        )

    @pytest.mark.parametrize("child", [3, None, [], "value"])
    def test_stored_node_that_is_not_an_object_rejected(self, child):
        blob = gbt_to_jsonable(_one_split_model(0))
        blob["trees"][0]["left"] = child
        message = f"model.trees[0].left must be an object, got {child!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            gbt_from_jsonable(blob)

    @pytest.mark.parametrize("rate", [-1.0, 0.0, -0.0, float("nan")])
    def test_learning_rate_not_above_zero_rejected(self, rate):
        blob = gbt_to_jsonable(_one_split_model(0))
        blob["learning_rate"] = rate
        # A NaN is refused as no finite number before its sign is checked.
        message = "a finite number, got nan" if rate != rate else "positive"
        with pytest.raises(DataError, match=f"learning_rate must be {message}"):
            gbt_from_jsonable(blob)

    def test_negative_split_feature_rejected(self):
        blob = gbt_to_jsonable(_one_split_model(-1))
        with pytest.raises(DataError, match="splits on feature -1"):
            gbt_from_jsonable(blob)

    def test_split_past_the_input_width_rejected(self):
        model = gbt_from_jsonable(gbt_to_jsonable(_one_split_model(3)))
        with pytest.raises(DataError, match="splits on feature 3, but its input has 3 columns"):
            gbt_predict_proba_many(model, np.zeros((2, 3)))

    @pytest.mark.parametrize("n_rows", [0, 2])
    def test_split_past_the_width_rejected_where_no_row_goes(self, n_rows):
        # Rows at or below 0 go left, so none reaches the split on feature 5.
        bad = TreeNode(feature=5, threshold=0.0, left=TreeNode(value=1.0), right=TreeNode())
        root = TreeNode(feature=0, threshold=0.0, left=TreeNode(value=2.0), right=bad)
        stump = _one_split_model(0).trees[0]
        model = GbtModel(trees=(stump, root), learning_rate=0.1, base_score=0.0)
        with pytest.raises(DataError, match="splits on feature 5, but its input has 3 columns"):
            gbt_predict_proba_many(model, np.zeros((n_rows, 3)))

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
