"""Neighbor and tree baselines: kNN and gradient-boosted trees.

The kNN model memorizes the training matrix and scores a query as the
fraction of generated labels among its k nearest neighbors by Euclidean
distance, with distance ties broken by lower stored index.

The boosted trees minimize logistic loss.  Each round fits a regression
tree to the residual (label minus current probability) using exact greedy
variance-reduction splits over sorted feature values; leaf values take a
Newton step with unit damping.  Everything is deterministic: ties in split
quality resolve to the lowest feature index and then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_settings
from .evaluation import macro_f1

MIN_SAMPLES_PER_LEAF = 2
LEAF_DAMPING = 1.0
_SPLIT_GAIN_EPS = 1e-12


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


def _check_features(x: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{what} must be a 2-d matrix, got shape {arr.shape}")
    return arr


def _check_binary_labels(y: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    arr = np.asarray(y, dtype=np.int64)
    if arr.shape != (n,):
        raise DataError(f"expected {n} labels, got shape {arr.shape}")
    values = set(np.unique(arr).tolist())
    if not values <= {0, 1}:
        raise DataError(f"labels must be 0/1, got extra values {sorted(values - {0, 1})}")
    return arr


@dataclass(frozen=True)
class KnnModel:
    """Memorized training set with a neighbor count."""

    x: np.ndarray
    labels: np.ndarray
    k: int = 10

    def __post_init__(self) -> None:
        x = _check_features(self.x, "knn training matrix")
        labels = _check_binary_labels(self.labels, x.shape[0])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if self.k > x.shape[0]:
            raise DataError(
                f"k={self.k} exceeds the {x.shape[0]} stored training points"
            )


def knn_fit(x: np.ndarray, labels: Sequence[int] | np.ndarray, k: int = 10) -> KnnModel:
    return KnnModel(x=np.asarray(x, dtype=np.float64), labels=np.asarray(labels), k=k)


def knn_predict_proba_many(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Generated-fraction among the k nearest stored points, per query."""
    q = _check_features(queries, "knn query matrix")
    if q.shape[1] != model.x.shape[1]:
        raise DataError(
            f"query width {q.shape[1]} does not match model width {model.x.shape[1]}"
        )
    # Squared Euclidean distances via the expansion; ordering matches true
    # distances and exact duplicates produce exactly equal entries.
    x_sq = np.sum(model.x**2, axis=1)
    q_sq = np.sum(q**2, axis=1)
    d2 = np.maximum(q_sq[:, None] + x_sq[None, :] - 2.0 * (q @ model.x.T), 0.0)
    probs = np.empty(q.shape[0], dtype=np.float64)
    for row in range(q.shape[0]):
        order = np.argsort(d2[row], kind="stable")
        nearest = order[: model.k]
        probs[row] = float(np.mean(model.labels[nearest] == 1))
    return probs


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (value)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(x: np.ndarray, residuals: np.ndarray) -> tuple[int, float] | None:
    """Exact greedy search: (feature, midpoint threshold) or None.

    Maximizes the reduction in residual sum of squares; both children must
    keep at least MIN_SAMPLES_PER_LEAF samples.  First feature and lowest
    threshold win ties.
    """
    n = x.shape[0]
    if n < 2 * MIN_SAMPLES_PER_LEAF:
        return None
    total_sum = float(np.sum(residuals))
    total_sq = float(np.sum(residuals**2))
    parent_sse = total_sq - total_sum**2 / n
    best_gain = _SPLIT_GAIN_EPS
    best: tuple[int, float] | None = None
    for feature in range(x.shape[1]):
        col = x[:, feature]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_res = residuals[order]
        csum = np.cumsum(sorted_res)
        csq = np.cumsum(sorted_res**2)
        left_n = np.arange(1, n)
        valid = (
            (sorted_col[:-1] < sorted_col[1:])
            & (left_n >= MIN_SAMPLES_PER_LEAF)
            & ((n - left_n) >= MIN_SAMPLES_PER_LEAF)
        )
        if not np.any(valid):
            continue
        left_sum = csum[:-1]
        left_sq = csq[:-1]
        right_n = n - left_n
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        sse = (
            left_sq
            - left_sum**2 / left_n
            + right_sq
            - right_sum**2 / right_n
        )
        gain = np.where(valid, parent_sse - sse, -np.inf)
        idx = int(np.argmax(gain))
        if gain[idx] > best_gain:
            best_gain = float(gain[idx])
            best = (feature, float((sorted_col[idx] + sorted_col[idx + 1]) / 2.0))
    return best


def _build_tree(
    x: np.ndarray,
    residuals: np.ndarray,
    hessians: np.ndarray,
    depth: int,
    max_depth: int,
) -> TreeNode:
    if depth < max_depth:
        split = _best_split(x, residuals)
        if split is not None:
            feature, threshold = split
            mask = x[:, feature] <= threshold
            return TreeNode(
                feature=feature,
                threshold=threshold,
                left=_build_tree(
                    x[mask], residuals[mask], hessians[mask], depth + 1, max_depth
                ),
                right=_build_tree(
                    x[~mask], residuals[~mask], hessians[~mask], depth + 1, max_depth
                ),
            )
    value = float(np.sum(residuals) / (np.sum(hessians) + LEAF_DAMPING))
    return TreeNode(value=value)


def _apply_tree(node: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0], dtype=np.float64)
    idx = np.arange(x.shape[0])
    stack = [(node, idx)]
    while stack:
        current, rows = stack.pop()
        if current.is_leaf:
            out[rows] = current.value
            continue
        mask = x[rows, current.feature] <= current.threshold
        stack.append((current.left, rows[mask]))
        stack.append((current.right, rows[~mask]))
    return out


@dataclass(frozen=True)
class GbtModel:
    trees: tuple[TreeNode, ...]
    learning_rate: float
    base_score: float

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        x = _check_features(x, "gbt query matrix")
        raw = np.full(x.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            raw += self.learning_rate * _apply_tree(tree, x)
        return raw


def gbt_predict_proba_many(model: GbtModel, x: np.ndarray) -> np.ndarray:
    return _sigmoid(model.predict_raw(x))


def gbt_train(
    x: np.ndarray,
    y: Sequence[int] | np.ndarray,
    n_estimators: int = 3,
    max_depth: int = 5,
    learning_rate: float = 1e-3,
) -> GbtModel:
    """Boosted regression trees on the logistic-loss residuals.

    The raw score starts at the log-odds of the training prior.  The exact
    greedy fit has no random component, so it takes no seed.
    """
    x = _check_features(x, "gbt training matrix")
    labels = _check_binary_labels(y, x.shape[0])
    if n_estimators < 1:
        raise ConfigError(f"n_estimators must be at least 1, got {n_estimators}")
    if max_depth < 1:
        raise ConfigError(f"max_depth must be at least 1, got {max_depth}")
    if learning_rate <= 0:
        raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
    mean = float(np.mean(labels))
    if mean in (0.0, 1.0):
        raise DataError("gbt training needs both classes present")
    base_score = float(np.log(mean / (1.0 - mean)))
    yf = labels.astype(np.float64)
    raw = np.full(x.shape[0], base_score, dtype=np.float64)
    trees: list[TreeNode] = []
    for _ in range(n_estimators):
        p = _sigmoid(raw)
        residuals = yf - p
        hessians = p * (1.0 - p)
        tree = _build_tree(x, residuals, hessians, 0, max_depth)
        raw += learning_rate * _apply_tree(tree, x)
        trees.append(tree)
    return GbtModel(
        trees=tuple(trees),
        learning_rate=float(learning_rate),
        base_score=base_score,
    )


def _tree_to_jsonable(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_jsonable(node.left),
        "right": _tree_to_jsonable(node.right),
    }


def _tree_from_jsonable(data: dict) -> TreeNode:
    if "value" in data:
        return TreeNode(value=float(data["value"]))
    return TreeNode(
        feature=int(data["feature"]),
        threshold=float(data["threshold"]),
        left=_tree_from_jsonable(data["left"]),
        right=_tree_from_jsonable(data["right"]),
    )


def gbt_to_jsonable(model: GbtModel) -> dict:
    return {
        "learning_rate": model.learning_rate,
        "base_score": model.base_score,
        "trees": [_tree_to_jsonable(tree) for tree in model.trees],
    }


def gbt_from_jsonable(data: dict) -> GbtModel:
    try:
        return GbtModel(
            trees=tuple(_tree_from_jsonable(t) for t in data["trees"]),
            learning_rate=float(data["learning_rate"]),
            base_score=float(data["base_score"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed boosted-tree model: {exc}") from exc


def knn_to_jsonable(model: KnnModel) -> dict:
    return {
        "k": model.k,
        "x": model.x.tolist(),
        "labels": model.labels.tolist(),
    }


def knn_from_jsonable(data: dict) -> KnnModel:
    try:
        return KnnModel(
            x=np.asarray(data["x"], dtype=np.float64),
            labels=np.asarray(data["labels"], dtype=np.int64),
            k=int(data["k"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed neighbor model: {exc}") from exc


class GbtHyperparams(NamedTuple):
    n_estimators: int
    max_depth: int
    learning_rate: float


@dataclass(frozen=True)
class GbtGrid:
    """Discretized search space for the boosted-tree hyperparameters."""

    estimators: tuple[int, ...] = (2, 3, 5, 10, 20, 30)
    depths: tuple[int, ...] = (3, 5, 7, 10)
    learning_rates: tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

    def __post_init__(self) -> None:
        check_settings(self)
        if not self.estimators or not self.depths or not self.learning_rates:
            raise ConfigError("grid ranges must be nonempty")
        for name in ("estimators", "depths"):
            if min(getattr(self, name)) < 1:
                raise ConfigError(
                    f"gbt {name} must be at least 1, got {getattr(self, name)}"
                )
        if min(self.learning_rates) <= 0:
            raise ConfigError(
                f"gbt learning_rates must be positive, got {self.learning_rates}"
            )


def grid_search(
    x_train: np.ndarray,
    y_train: Sequence[int] | np.ndarray,
    x_val: np.ndarray,
    y_val: Sequence[int] | np.ndarray,
    grid: GbtGrid = GbtGrid(),
) -> tuple[GbtModel, GbtHyperparams]:
    """Pick the grid point with the best validation macro-F1 at 0.5.

    Candidates are visited with estimators, then depth, then learning rate
    ascending, and only strict improvements replace the incumbent, so ties
    resolve to fewer trees, then shallower trees, then the smaller rate.
    """
    x_train = _check_features(x_train, "grid-search training matrix")
    x_val = _check_features(x_val, "grid-search validation matrix")
    y_train = _check_binary_labels(y_train, x_train.shape[0])
    y_val = _check_binary_labels(y_val, x_val.shape[0])
    best_score = -1.0
    best_model: GbtModel | None = None
    best_params: GbtHyperparams | None = None
    for n_estimators in sorted(grid.estimators):
        for max_depth in sorted(grid.depths):
            for learning_rate in sorted(grid.learning_rates):
                model = gbt_train(
                    x_train,
                    y_train,
                    n_estimators=n_estimators,
                    max_depth=max_depth,
                    learning_rate=learning_rate,
                )
                preds = (gbt_predict_proba_many(model, x_val) >= 0.5).astype(np.int64)
                score = macro_f1(y_val, preds)
                if score > best_score:
                    best_score = score
                    best_model = model
                    best_params = GbtHyperparams(
                        n_estimators, max_depth, learning_rate
                    )
    assert best_model is not None and best_params is not None
    return best_model, best_params
