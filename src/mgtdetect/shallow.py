"""Neighbor and tree baselines: kNN and gradient-boosted trees.

The kNN model memorizes the training matrix and scores a query as the
fraction of generated labels among its k nearest neighbors by Euclidean
distance, with distance ties broken by lower stored index.  Queries are
scored in blocks of bounded size: ``np.partition`` finds each query's k-th
distance, and the neighbors are every distance below it plus the
lowest-indexed ones equal to it, the set a stable full sort would take.

The boosted trees minimize logistic loss.  Each round fits a regression
tree to the residual (label minus current probability) using exact greedy
variance-reduction splits over sorted feature values; leaf values take a
Newton step with unit damping.  Everything is deterministic: ties in split
quality resolve to the lowest feature index and then the lowest threshold.

The fit is the exact-greedy presorted column block of XGBoost (Chen &
Guestrin, KDD 2016), without its histogram approximation: every column is
stably sorted once per fit, each split partitions that order stably into
its children, and a node scores every cut of every feature in one
vectorized pass.  Tree t does not depend on the number of trees, so the
grid search fits each (depth, rate) pair once, at the largest tree count,
and scores the smaller counts as prefixes of that fit.

A model also keeps its trees as flat node arrays (feature, threshold,
children, leaf value), the usual layout for scoring tree ensembles (as in
QuickScorer, Lucchese et al., SIGIR 2015).  Scoring routes all rows
through all trees one level per step and adds the trees' outputs in tree
order, so it gives the same sums, bit for bit, as walking each tree in
turn.  A prefix of a model reuses the full model's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .checkpoint import decode_array, encode_array
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


# Distance cells (query rows x stored rows) scored at once; each float64
# temporary of a block takes at most 8 MiB.
_KNN_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class KnnModel:
    """Memorized training set with a neighbor count."""

    x: np.ndarray
    labels: np.ndarray
    k: int = 10
    # Squared norm of each stored row, computed once.
    x_sq: np.ndarray = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "x_sq", np.sum(x**2, axis=1))


def knn_fit(x: np.ndarray, labels: Sequence[int] | np.ndarray, k: int = 10) -> KnnModel:
    return KnnModel(x=np.asarray(x, dtype=np.float64), labels=np.asarray(labels), k=k)


def knn_predict_proba_many(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Generated-fraction among the k nearest stored points, per query.

    Queries are scored in blocks of at most ``_KNN_BLOCK_CELLS`` distances.
    """
    q = _check_features(queries, "knn query matrix")
    if q.shape[1] != model.x.shape[1]:
        raise DataError(
            f"query width {q.shape[1]} does not match model width {model.x.shape[1]}"
        )
    generated = model.labels == 1
    probs = np.empty(q.shape[0], dtype=np.float64)
    step = max(1, _KNN_BLOCK_CELLS // model.x.shape[0])
    for start in range(0, q.shape[0], step):
        nearest = _nearest_k(model, q[start : start + step])
        count = np.count_nonzero(nearest & generated, axis=1)
        probs[start : start + step] = count / model.k
    return probs


def _nearest_k(model: KnnModel, q: np.ndarray) -> np.ndarray:
    """Mask of each query's k nearest stored rows, lower stored index first on ties.

    This is the set ``argsort(d2, kind="stable")[:k]`` takes: every distance
    below the k-th smallest, then the lowest-indexed distances equal to it.
    """
    # Squared Euclidean distances via the expansion.  BLAS may sum a product
    # in another order for another block shape or output column, so the
    # last bits of a distance can depend on the rows scored with it.
    q_sq = np.sum(q**2, axis=1)
    d2 = np.maximum(q_sq[:, None] + model.x_sq[None, :] - 2.0 * (q @ model.x.T), 0.0)
    kth = np.partition(d2, model.k - 1, axis=1)[:, model.k - 1 : model.k]
    below = d2 < kth
    ties = d2 == kth
    nan_kth = np.isnan(kth[:, 0])
    if nan_kth.any():
        # argsort ranks every number below NaN, and NaNs tie with each other.
        below[nan_kth] = ~np.isnan(d2[nan_kth])
        ties[nan_kth] = ~below[nan_kth]
    wanted = model.k - np.count_nonzero(below, axis=1)
    excess = np.count_nonzero(ties, axis=1) > wanted
    if excess.any():
        ties[excess] &= np.cumsum(ties[excess], axis=1) <= wanted[excess, None]
    return below | ties


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


class _ColumnBlock:
    """One training matrix presorted per feature, reused by every tree.

    ``order`` holds, for each feature, the row ids in ascending stable order
    of that feature's values, and ``ranks`` the rank of each of those values
    among the feature's distinct values (-1 for NaN).  Since NaN sorts last
    and compares false, two sorted values compare with ``<`` exactly as their
    ranks do.  Both are flat buffers: the node holding sorted slots
    ``lo:hi`` owns ``[d * lo, d * hi)`` and reads it as a C-contiguous
    ``(d, hi - lo)`` block.  A split partitions that block stably in place,
    so each child again owns one contiguous block whose columns are sorted,
    and no node sorts anything.
    """

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.n, self.d = x.shape
        xt = np.ascontiguousarray(x.T)
        order = np.argsort(xt, axis=1, kind="stable")
        values = np.take_along_axis(xt, order, axis=1)
        ranks = np.zeros(values.shape, dtype=np.int32)
        np.cumsum(values[:, 1:] > values[:, :-1], axis=1, out=ranks[:, 1:])
        ranks[np.isnan(values)] = -1
        ids = np.int32 if self.n <= np.iinfo(np.int32).max else np.intp
        self._root_order = order.astype(ids).ravel()
        self._root_ranks = ranks.ravel()
        # Free the sort's temporaries before the work buffers exist.
        del xt, order, values, ranks
        self.order = np.empty_like(self._root_order)
        self.ranks = np.empty_like(self._root_ranks)
        # Scratch for one node's split search, read through ``_block`` from
        # slot 0: running sums of the sorted residuals and of their squares.
        self._csum = np.empty(self.n * self.d)
        self._csq = np.empty(self.n * self.d)
        self._goes_left = np.empty(self.n, dtype=bool)

    def _block(self, buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return buf[self.d * lo : self.d * hi].reshape(self.d, hi - lo)

    def fit_tree(
        self, residuals: np.ndarray, hessians: np.ndarray, max_depth: int
    ) -> tuple[TreeNode, np.ndarray]:
        """Grow one tree; also return the leaf value of every training row."""
        np.copyto(self.order, self._root_order)
        np.copyto(self.ranks, self._root_ranks)
        leaf_values = np.empty(self.n, dtype=np.float64)
        tree = self._grow(
            0, self.n, np.arange(self.n), residuals, hessians, 0, max_depth, leaf_values
        )
        return tree, leaf_values

    def _grow(
        self,
        lo: int,
        hi: int,
        rows: np.ndarray,
        residuals: np.ndarray,
        hessians: np.ndarray,
        depth: int,
        max_depth: int,
        leaf_values: np.ndarray,
    ) -> TreeNode:
        # ``rows`` lists the node's row ids ascending, the order in which
        # the node's sums are taken.
        node_res = residuals[rows]
        if depth < max_depth:
            split = self._best_split(lo, hi, residuals, node_res)
            if split is not None:
                feature, threshold = split
                mask = self.x[rows, feature] <= threshold
                mid = lo + int(np.count_nonzero(mask))
                self._partition(lo, hi, rows, mask)
                args = (residuals, hessians, depth + 1, max_depth, leaf_values)
                return TreeNode(
                    feature=feature,
                    threshold=threshold,
                    left=self._grow(lo, mid, rows[mask], *args),
                    right=self._grow(mid, hi, rows[~mask], *args),
                )
        value = float(np.sum(node_res) / (np.sum(hessians[rows]) + LEAF_DAMPING))
        leaf_values[rows] = value
        return TreeNode(value=value)

    def _best_split(
        self, lo: int, hi: int, residuals: np.ndarray, node_res: np.ndarray
    ) -> tuple[int, float] | None:
        """Exact greedy search over every feature: (feature, threshold) or None.

        Maximizes the reduction in residual sum of squares; both children
        must keep at least MIN_SAMPLES_PER_LEAF samples.  First feature and
        lowest threshold win ties.  The threshold is the midpoint of the two
        sorted values it separates, or the lower one when the midpoint
        rounds up onto the upper one.
        """
        n = hi - lo
        if n < 2 * MIN_SAMPLES_PER_LEAF or self.d == 0:
            return None
        total_sum = float(np.sum(node_res))
        total_sq = float(np.sum(node_res**2))
        parent_sse = total_sq - total_sum**2 / n
        # Candidate cut i keeps sorted slots 0..i on the left; only cuts
        # leaving MIN_SAMPLES_PER_LEAF on each side are scored.
        cuts = slice(MIN_SAMPLES_PER_LEAF - 1, n - MIN_SAMPLES_PER_LEAF)
        after = slice(cuts.start + 1, cuts.stop + 1)
        left_n = np.arange(MIN_SAMPLES_PER_LEAF, n - MIN_SAMPLES_PER_LEAF + 1)
        right_n = n - left_n
        width = len(left_n)
        order = self._block(self.order, lo, hi)
        sorted_res = residuals[order]
        csum = np.cumsum(sorted_res, axis=1, out=self._block(self._csum, 0, n))
        np.multiply(sorted_res, sorted_res, out=sorted_res)
        csq = np.cumsum(sorted_res, axis=1, out=self._block(self._csq, 0, n))
        left_sum = csum[:, cuts]
        left_sq = csq[:, cuts]
        # sse = left_sq - left_sum**2 / left_n + right_sq - right_sum**2 / right_n,
        # evaluated in that order; each buffer is overwritten once used.
        gain = np.square(left_sum, out=sorted_res[:, :width])
        np.divide(gain, left_n, out=gain)
        np.subtract(left_sq, gain, out=gain)
        right_sq = np.subtract(total_sq, left_sq, out=left_sq)
        np.add(gain, right_sq, out=gain)
        right_sum = np.subtract(total_sum, left_sum, out=left_sum)
        np.square(right_sum, out=right_sum)
        np.divide(right_sum, right_n, out=right_sum)
        np.subtract(gain, right_sum, out=gain)
        np.subtract(parent_sse, gain, out=gain)
        # A cut between equal values is no cut.
        ranks = self._block(self.ranks, lo, hi)
        gain[ranks[:, cuts] >= ranks[:, after]] = -np.inf
        best_cut = np.argmax(gain, axis=1)
        best_gain = gain[np.arange(self.d), best_cut]
        # As in a scan keeping strict improvements over the floor, a feature
        # whose best gain is NaN or at most the floor never wins.
        best_gain[~(best_gain > _SPLIT_GAIN_EPS)] = -np.inf
        feature = int(np.argmax(best_gain))
        if not best_gain[feature] > _SPLIT_GAIN_EPS:
            return None
        slot = int(best_cut[feature]) + cuts.start
        below = self.x[order[feature, slot], feature]
        above = self.x[order[feature, slot + 1], feature]
        threshold = (below + above) / 2.0
        if not threshold < above:
            threshold = below
        return feature, float(threshold)

    def _partition(self, lo: int, hi: int, rows: np.ndarray, mask: np.ndarray) -> None:
        """Stably move the rows going left to the front of every column."""
        self._goes_left[rows] = mask
        span = slice(self.d * lo, self.d * hi)
        # Row-major order keeps each feature's left rows together, in
        # sorted order, as the C layout of a (d, left count) block.
        left = self._goes_left[self.order[span]]
        right = ~left
        for buf in (self.order, self.ranks):
            to_left = np.compress(left, buf[span])
            to_right = np.compress(right, buf[span])
            mid = span.start + to_left.size
            buf[span.start : mid] = to_left
            buf[mid : span.stop] = to_right


# A node reader returns (feature, threshold, value, left, right).  A leaf
# reads as feature -1 with no children, and a split as value 0.0.
def _read_tree_node(node: TreeNode) -> tuple:
    if node.is_leaf:
        return -1, 0.0, node.value, None, None
    return node.feature, node.threshold, 0.0, node.left, node.right


def _read_stored_node(data: dict) -> tuple:
    """Read a node as ``gbt_to_jsonable`` stores it."""
    if "value" in data:
        return -1, 0.0, float(data["value"]), None, None
    feature = int(data["feature"])
    if feature < 0:
        raise DataError(f"boosted tree splits on feature {feature}, below 0")
    return feature, float(data["threshold"]), 0.0, data["left"], data["right"]


class _NodeArrays(NamedTuple):
    """A model's trees as flat node arrays, tree after tree, each in preorder.

    A split node sends a row left when ``x[feature] <= threshold`` and right
    otherwise, NaN included.  A leaf has feature -1 and is its own left and
    right child, so a row routed for more levels than its tree is deep stays
    on its leaf.  ``roots`` and ``depths`` hold each tree's first node and
    depth; ``max_feature`` is the highest split feature, or -1.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depths: np.ndarray
    max_feature: int

    @classmethod
    def of(cls, trees: Sequence, read=_read_tree_node) -> "_NodeArrays":
        """Flatten trees whose nodes ``read`` takes apart, with an explicit stack.

        No tree depth makes Python recurse.
        """
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        roots: list[int] = []
        depths: list[int] = []
        for tree in trees:
            roots.append(len(feature))
            depth = 0
            # (node, index of the parent whose right child it is or -1, level)
            stack = [(tree, -1, 0)]
            while stack:
                node, parent, level = stack.pop()
                node_feature, node_threshold, node_value, low, high = read(node)
                index = len(feature)
                if parent >= 0:
                    right[parent] = index
                feature.append(node_feature)
                threshold.append(node_threshold)
                value.append(node_value)
                if low is None:
                    left.append(index)
                    right.append(index)
                    depth = max(depth, level)
                else:
                    left.append(index + 1)  # preorder: the left child is next
                    right.append(-1)
                    stack.append((high, index, level + 1))
                    stack.append((low, -1, level + 1))
            depths.append(depth)
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value, dtype=np.float64),
            roots=np.array(roots, dtype=np.intp),
            depths=np.array(depths, dtype=np.intp),
            max_feature=max(feature, default=-1),
        )

    def trees(self) -> tuple[TreeNode, ...]:
        """The trees these arrays hold, built from the last node back."""
        feature = self.feature.tolist()
        threshold = self.threshold.tolist()
        left = self.left.tolist()
        right = self.right.tolist()
        value = self.value.tolist()
        built: list = [None] * len(feature)
        # In preorder both children come after their split.
        for index in reversed(range(len(feature))):
            if left[index] == index:
                built[index] = TreeNode(value=value[index])
            else:
                built[index] = TreeNode(
                    feature[index], threshold[index], built[left[index]], built[right[index]]
                )
        return tuple(built[root] for root in self.roots.tolist())

    def prefix(self, n_trees: int) -> "_NodeArrays":
        """The arrays of the first ``n_trees`` trees, as views of these."""
        end = int(self.roots[n_trees]) if n_trees < len(self.roots) else len(self.feature)
        return _NodeArrays(
            feature=self.feature[:end],
            threshold=self.threshold[:end],
            left=self.left[:end],
            right=self.right[:end],
            value=self.value[:end],
            roots=self.roots[:n_trees],
            depths=self.depths[:n_trees],
            max_feature=int(self.feature[:end].max(initial=-1)),
        )

    def leaf_values(self, x: np.ndarray) -> np.ndarray:
        """(trees, rows) leaf values, routing every row through every tree."""
        if self.max_feature >= x.shape[1]:
            raise DataError(
                f"boosted tree splits on feature {self.max_feature}, "
                f"but its input has {x.shape[1]} columns"
            )
        rows = np.arange(x.shape[0])
        node = np.repeat(self.roots[:, None], x.shape[0], axis=1)
        for _ in range(int(self.depths.max(initial=0))):
            goes_left = x[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
        return self.value[node]


@dataclass(frozen=True)
class GbtModel:
    trees: tuple[TreeNode, ...]
    learning_rate: float
    base_score: float
    # The trees as node arrays.  Derived from ``trees`` when not given; when
    # given, they must be the arrays of exactly these trees.
    nodes: _NodeArrays | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.nodes is None:
            object.__setattr__(self, "nodes", _NodeArrays.of(self.trees))

    def prefix(self, n_trees: int) -> "GbtModel":
        """The model of the first ``n_trees`` trees, sharing these node arrays."""
        return GbtModel(
            self.trees[:n_trees],
            self.learning_rate,
            self.base_score,
            self.nodes.prefix(n_trees),
        )

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        x = _check_features(x, "gbt query matrix")
        raw = np.full(x.shape[0], self.base_score, dtype=np.float64)
        # Tree outputs are added one tree at a time, in tree order.
        for leaves in self.learning_rate * self.nodes.leaf_values(x):
            raw += leaves
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
    block = _ColumnBlock(x)
    trees: list[TreeNode] = []
    for _ in range(n_estimators):
        p = _sigmoid(raw)
        residuals = yf - p
        hessians = p * (1.0 - p)
        tree, leaf_values = block.fit_tree(residuals, hessians, max_depth)
        raw += learning_rate * leaf_values
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


def gbt_to_jsonable(model: GbtModel) -> dict:
    return {
        "learning_rate": model.learning_rate,
        "base_score": model.base_score,
        "trees": [_tree_to_jsonable(tree) for tree in model.trees],
    }


def gbt_from_jsonable(data: dict) -> GbtModel:
    try:
        # One walk over the stored trees gives the node arrays, and the
        # trees are built back from those.
        nodes = _NodeArrays.of(data["trees"], _read_stored_node)
        return GbtModel(
            trees=nodes.trees(),
            learning_rate=float(data["learning_rate"]),
            base_score=float(data["base_score"]),
            nodes=nodes,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed boosted-tree model: {exc}") from exc


def knn_to_jsonable(model: KnnModel) -> dict:
    return {
        "k": model.k,
        "x": encode_array(model.x),
        "labels": encode_array(model.labels),
    }


def knn_from_jsonable(data: dict) -> KnnModel:
    try:
        return KnnModel(
            x=decode_array(data["x"], np.float64),
            labels=decode_array(data["labels"], np.int64),
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

    Ties resolve to fewer trees, then shallower trees, then the smaller
    rate.  Tree t of a fit does not depend on the number of trees asked
    for, so each (depth, rate) pair is fit once, at the largest tree count,
    and a smaller count is scored as that fit's first trees.
    """
    x_train = _check_features(x_train, "grid-search training matrix")
    x_val = _check_features(x_val, "grid-search validation matrix")
    y_train = _check_binary_labels(y_train, x_train.shape[0])
    y_val = _check_binary_labels(y_val, x_val.shape[0])
    estimators = sorted(set(grid.estimators))
    best: tuple[tuple, GbtModel, GbtHyperparams] | None = None
    for max_depth in sorted(set(grid.depths)):
        for learning_rate in sorted(set(grid.learning_rates)):
            full = gbt_train(
                x_train,
                y_train,
                n_estimators=estimators[-1],
                max_depth=max_depth,
                learning_rate=learning_rate,
            )
            for n_estimators in estimators:
                model = full.prefix(n_estimators)
                preds = (gbt_predict_proba_many(model, x_val) >= 0.5).astype(np.int64)
                rank = (-macro_f1(y_val, preds), n_estimators, max_depth, learning_rate)
                if best is None or rank < best[0]:
                    params = GbtHyperparams(n_estimators, max_depth, learning_rate)
                    best = (rank, model, params)
    assert best is not None
    return best[1], best[2]
