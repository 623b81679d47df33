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
stably sorted once per fit, and each split partitions that order stably
into its children, out of place between two work buffers and only for a
child that will look for a split.  A node scores every cut of every
feature in chunks of whole features sized to stay in cache, the paper's
cache-aware access; every step is elementwise or a running sum along one
feature, so the chunks give the gains of one pass bit for bit.  Each row
carries its residual and squared residual as one complex number, so one
running sum of the gathered complex values gives both sums of every cut:
complex addition adds the real and the imaginary parts apart, with no
multiply, so the two parts are bit for bit the two real running sums.
Tree t does not depend on the number of trees, so the grid search fits
each (depth, rate) pair once, at the largest tree count.

A model also keeps its trees as flat node arrays (feature, threshold,
children, leaf value), the usual layout for scoring tree ensembles (as in
QuickScorer, Lucchese et al., SIGIR 2015), always derived from the trees.
Scoring routes all rows through all trees one level per step and adds the
trees' outputs in tree order, so it gives the same sums, bit for bit, as
walking each tree in turn.  The grid search routes the validation rows
through a fit once and scores every tree count from the running sum of
its trees' outputs, the sums a model of that many trees would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .checkpoint import decode_array, encode_array, stored_float, stored_int
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


def _searched(n: int, depth: int, max_depth: int) -> bool:
    """Whether a node of ``n`` rows at ``depth`` looks for a split."""
    return depth < max_depth and n >= 2 * MIN_SAMPLES_PER_LEAF


# Cells (features x node rows) that one pass of the split search works on,
# unless one feature holds more: each complex working array of a chunk then
# takes 512 KiB, so a chunk's arrays stay in cache between the passes.
_SPLIT_CHUNK_CELLS = 1 << 15


def _chunk_features(n: int) -> int:
    """Features per chunk of a node of ``n`` rows: at least one."""
    return max(1, _SPLIT_CHUNK_CELLS // n)


class _ColumnBlock:
    """One training matrix presorted per feature, reused by every tree.

    ``order`` holds, for each feature, the row ids in ascending stable order
    of that feature's values, and ``ranks`` the rank of each of those values
    among the feature's distinct values (-1 for NaN).  Since NaN sorts last
    and compares false, two sorted values compare with ``<`` exactly as their
    ranks do.  Both are flat buffers: the node holding sorted slots
    ``lo:hi`` owns ``[d * lo, d * hi)`` and reads it as a C-contiguous
    ``(d, hi - lo)`` block.

    The root reads the presorted buffers, which every tree shares.  A split
    partitions its block stably, out of place, into the same span of a work
    buffer: a node at depth k >= 1 reads work buffer (k - 1) % 2 and writes
    its children into the other, so each child again owns one contiguous
    block whose columns are sorted, and no node sorts anything.  A node's
    span is overwritten only by its own descendants, once it is split.  A
    child that will not be searched (too deep or too small) is not written.

    A node searches its features in chunks of at most ``_SPLIT_CHUNK_CELLS``
    cells, each at least one whole feature.  Every step of the search is
    elementwise or a running sum along one feature, so a chunk's gains are
    bit for bit those of one pass over the whole block.  A chunk's scratch
    takes 33 bytes a cell: the gathered complex moments (16), which then
    hold the gains and the right-hand terms as float64, their complex
    running sums (16) and the cuts refused (1).
    """

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.n, self.d = x.shape
        xt = np.ascontiguousarray(x.T)
        order = np.argsort(xt, axis=1, kind="stable")
        values = np.take_along_axis(xt, order, axis=1)
        # Each temporary is dropped as soon as it is used, to keep the peak low.
        del xt
        order = order.astype(np.int32 if self.n <= np.iinfo(np.int32).max else np.intp)
        ranks = np.zeros(values.shape, dtype=np.int32)
        np.cumsum(values[:, 1:] > values[:, :-1], axis=1, out=ranks[:, 1:])
        ranks[np.isnan(values)] = -1
        del values
        # (order, ranks) of the root, then of each work buffer, made when a
        # tree first grows deep enough to write it.
        self._buffers = [(order.ravel(), ranks.ravel())]
        # Scratch for one chunk of a node's search, laid out as the class
        # docstring says.
        cells = min(self.n * self.d, max(_SPLIT_CHUNK_CELLS, self.n))
        self._moments = np.empty(cells, dtype=np.complex128)
        self._sums = np.empty(cells, dtype=np.complex128)
        self._refused = np.empty(cells, dtype=bool)
        # Rows left of each cut, as the divisor of its left mean.
        self._counts = np.arange(1.0, self.n + 1.0)
        self._best_cut = np.empty(self.d, dtype=np.intp)
        self._best_gain = np.empty(self.d)
        self._goes_left = np.empty(self.n, dtype=bool)

    def _block(self, buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return buf[self.d * lo : self.d * hi].reshape(self.d, hi - lo)

    def _read(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """The (order, ranks) buffers the nodes at ``depth`` read."""
        return self._buffers[0 if depth == 0 else 1 + (depth - 1) % 2]

    def fit_tree(
        self, residuals: np.ndarray, hessians: np.ndarray, max_depth: int
    ) -> tuple[TreeNode, np.ndarray]:
        """Grow one tree; also return the leaf value of every training row."""
        # Depths 1 .. max_depth - 1 can be searched, each reading a work buffer.
        while len(self._buffers) < min(3, max_depth):
            self._buffers.append(tuple(np.empty_like(buf) for buf in self._buffers[0]))
        # Each row's residual and squared residual, summed in one pass.
        moments = np.empty(self.n, dtype=np.complex128)
        moments.real = residuals
        np.multiply(residuals, residuals, out=moments.imag)
        leaf_values = np.empty(self.n, dtype=np.float64)
        tree = self._grow(
            0, self.n, np.arange(self.n), moments, hessians, 0, max_depth, leaf_values
        )
        return tree, leaf_values

    def _grow(
        self,
        lo: int,
        hi: int,
        rows: np.ndarray,
        moments: np.ndarray,
        hessians: np.ndarray,
        depth: int,
        max_depth: int,
        leaf_values: np.ndarray,
    ) -> TreeNode:
        # ``rows`` lists the node's row ids ascending, the order in which
        # the node's sums are taken.
        node_res = moments.real[rows]
        if _searched(hi - lo, depth, max_depth):
            split = self._best_split(lo, hi, depth, moments, node_res)
            if split is not None:
                feature, threshold = split
                mask = self.x[rows, feature] <= threshold
                mid = lo + int(np.count_nonzero(mask))
                left = _searched(mid - lo, depth + 1, max_depth)
                right = _searched(hi - mid, depth + 1, max_depth)
                if left or right:
                    self._partition(lo, mid, hi, depth, rows, mask, left, right)
                args = (moments, hessians, depth + 1, max_depth, leaf_values)
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
        self, lo: int, hi: int, depth: int, moments: np.ndarray, node_res: np.ndarray
    ) -> tuple[int, float] | None:
        """Exact greedy search over every feature: (feature, threshold) or None.

        Maximizes the reduction in residual sum of squares; both children
        must keep at least MIN_SAMPLES_PER_LEAF samples.  First feature and
        lowest threshold win ties.  The threshold is the midpoint of the two
        sorted values it separates, or the lower one when the midpoint
        rounds up onto the upper one.

        ``moments`` holds each row's residual as the real part and its
        square as the imaginary part.  One complex running sum of the
        gathered moments gives each cut's left sum and left sum of squares,
        bit for bit the two real running sums; the gains then reuse the
        gathered moments' buffer.
        """
        n = hi - lo
        if self.d == 0:
            return None
        total_sum = float(np.sum(node_res))
        total_sq = float(np.sum(node_res**2))
        parent_sse = total_sq - total_sum**2 / n
        # Cut i keeps sorted slots 0..i on the left.  Every cut is scored, so
        # each pass runs over whole contiguous rows; the cuts leaving fewer
        # than MIN_SAMPLES_PER_LEAF on a side are then refused.  The last
        # cut's right count is taken as 1, not 0, so no division warns.
        left_n = self._counts[:n]
        right_n = np.subtract(n, left_n)
        right_n[-1] = 1.0
        order_buf, ranks_buf = self._read(depth)
        order = self._block(order_buf, lo, hi)
        step = _chunk_features(n)
        for start in range(0, self.d, step):
            chunk = slice(start, min(start + step, self.d))
            k = chunk.stop - start
            gathered = self._moments[: k * n].reshape(k, n)
            # Every index is in range, so "clip" changes no value; it lets
            # numpy write into ``out`` without a buffered copy.
            np.take(moments, order[chunk], out=gathered, mode="clip")
            sums = np.cumsum(gathered, axis=1, out=self._sums[: k * n].reshape(k, n))
            csum, csq = sums.real, sums.imag
            # The gathered moments are used up: their 2 k n doubles hold the
            # gains, then the right-hand terms.
            scratch = self._moments[: k * n].view(np.float64)
            gain = scratch[: k * n].reshape(k, n)
            right = scratch[k * n :].reshape(k, n)
            # sse = left_sq - left_sum**2 / left_n + right_sq - right_sum**2 / right_n,
            # evaluated in that order.
            np.square(csum, out=gain)
            np.divide(gain, left_n, out=gain)
            np.subtract(csq, gain, out=gain)
            np.subtract(total_sq, csq, out=right)
            np.add(gain, right, out=gain)
            np.subtract(total_sum, csum, out=right)
            np.square(right, out=right)
            np.divide(right, right_n, out=right)
            np.subtract(gain, right, out=gain)
            np.subtract(parent_sse, gain, out=gain)
            # A cut between equal values is no cut.  The flat comparison
            # also pairs each row's last slot with the next row's first;
            # that cut is refused for its size anyway.
            ranks = ranks_buf[self.d * lo + start * n : self.d * lo + chunk.stop * n]
            refused = self._refused[: k * n]
            np.greater_equal(ranks[:-1], ranks[1:], out=refused[:-1])
            refused = refused.reshape(k, n)
            refused[:, : MIN_SAMPLES_PER_LEAF - 1] = True
            refused[:, n - MIN_SAMPLES_PER_LEAF :] = True
            gain[refused] = -np.inf
            best_cut = np.argmax(gain, axis=1, out=self._best_cut[chunk])
            self._best_gain[chunk] = gain[np.arange(k), best_cut]
        best_gain = self._best_gain
        # As in a scan keeping strict improvements over the floor, a feature
        # whose best gain is NaN or at most the floor never wins.
        best_gain[~(best_gain > _SPLIT_GAIN_EPS)] = -np.inf
        feature = int(np.argmax(best_gain))
        if not best_gain[feature] > _SPLIT_GAIN_EPS:
            return None
        slot = int(self._best_cut[feature])
        below = self.x[order[feature, slot], feature]
        above = self.x[order[feature, slot + 1], feature]
        threshold = (below + above) / 2.0
        if not threshold < above:
            threshold = below
        return feature, float(threshold)

    def _partition(
        self,
        lo: int,
        mid: int,
        hi: int,
        depth: int,
        rows: np.ndarray,
        mask: np.ndarray,
        left: bool,
        right: bool,
    ) -> None:
        """Stably write the left child's slots ``lo:mid`` and the right
        child's ``mid:hi`` of every column into the next depth's buffers,
        skipping a child that is not searched.  Features move in the
        search's chunks, so a move's temporaries stay as small as a chunk."""
        self._goes_left[rows] = mask
        n = hi - lo
        # (takes the left rows, first slot, end slot) of each child written.
        children = []
        if left:
            children.append((True, lo, mid))
        if right:
            children.append((False, mid, hi))
        source, dest = self._read(depth), self._read(depth + 1)
        step = _chunk_features(n)
        for start in range(0, self.d, step):
            stop = min(start + step, self.d)
            span = slice(self.d * lo + start * n, self.d * lo + stop * n)
            # Row-major order keeps each feature's rows of one child
            # together, in sorted order, as the C layout of its block.
            goes_left = np.take(self._goes_left, source[0][span], mode="clip")
            for to_left, c_lo, c_hi in children:
                slots = np.flatnonzero(goes_left if to_left else ~goes_left)
                size = c_hi - c_lo
                into = slice(self.d * c_lo + start * size, self.d * c_lo + stop * size)
                for src, dst in zip(source, dest):
                    np.take(src[span], slots, out=dst[into], mode="clip")


class _NodeArrays(NamedTuple):
    """A model's trees as flat node arrays, tree after tree, each in preorder.

    A split node sends a row left when ``x[feature] <= threshold`` and right
    otherwise, NaN included.  A leaf has feature -1 and is its own left and
    right child, so a row routed for more levels than its tree is deep stays
    on its leaf; a split has value 0.0.  ``roots`` and ``depths`` hold each
    tree's first node and depth; ``max_feature`` is the highest split
    feature, or -1.
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
    def of(cls, trees: Sequence[TreeNode]) -> "_NodeArrays":
        """Flatten trees with an explicit stack: no tree depth makes Python recurse."""
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
                index = len(feature)
                if parent >= 0:
                    right[parent] = index
                if node.is_leaf:
                    feature.append(-1)
                    threshold.append(0.0)
                    value.append(node.value)
                    left.append(index)
                    right.append(index)
                    depth = max(depth, level)
                else:
                    feature.append(node.feature)
                    threshold.append(node.threshold)
                    value.append(0.0)
                    left.append(index + 1)  # preorder: the left child is next
                    right.append(-1)
                    stack.append((node.right, index, level + 1))
                    stack.append((node.left, -1, level + 1))
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
    # The trees as node arrays, always derived from ``trees``.
    nodes: _NodeArrays = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _NodeArrays.of(self.trees))

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
    if not learning_rate > 0:
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


def _tree_from_jsonable(data: dict) -> TreeNode:
    """Build a tree as ``_tree_to_jsonable`` stores it, children first.

    An explicit stack holds the nodes still to build, so no tree depth makes
    Python recurse.  A split's (feature, threshold) goes back on the stack
    once its children are queued, and is built from the last two built.
    """
    built: list[TreeNode] = []
    stack: list[tuple[object, tuple[int, float] | None]] = [(data, None)]
    while stack:
        node, split = stack.pop()
        if split is not None:
            right = built.pop()
            built.append(TreeNode(*split, left=built.pop(), right=right))
        elif not isinstance(node, dict):
            raise TypeError(f"a tree node must be an object, got {type(node).__name__}")
        elif "value" in node:
            built.append(TreeNode(value=stored_float(node["value"], "value")))
        else:
            feature = stored_int(node["feature"], "feature")
            if feature < 0:
                raise DataError(f"boosted tree splits on feature {feature}, below 0")
            stack.append((node, (feature, stored_float(node["threshold"], "threshold"))))
            stack.append((node["right"], None))
            stack.append((node["left"], None))
    return built.pop()


def gbt_from_jsonable(data: dict) -> GbtModel:
    try:
        model = GbtModel(
            trees=tuple(_tree_from_jsonable(tree) for tree in data["trees"]),
            learning_rate=stored_float(data["learning_rate"], "learning_rate"),
            base_score=stored_float(data["base_score"], "base_score"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed boosted-tree model: {exc}") from exc
    # As gbt_train refuses it: a rate at or below 0 would invert the scores.
    if not model.learning_rate > 0:
        raise DataError(
            f"malformed boosted-tree model: learning_rate must be positive, "
            f"got {model.learning_rate!r}"
        )
    return model


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
            k=stored_int(data["k"], "k"),
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
    for, so each (depth, rate) pair is fit once, at the largest tree count.
    The validation rows are routed through that fit once, and each tree
    count is scored from the running sum of the trees' outputs, added in
    tree order as ``predict_raw`` adds them for a model of that many trees.
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
            raw = np.full(x_val.shape[0], full.base_score, dtype=np.float64)
            scaled = full.learning_rate * full.nodes.leaf_values(x_val)
            for n_trees, leaves in enumerate(scaled, start=1):
                raw += leaves
                if n_trees not in estimators:
                    continue
                preds = (_sigmoid(raw) >= 0.5).astype(np.int64)
                rank = (-macro_f1(y_val, preds), n_trees, max_depth, learning_rate)
                if best is None or rank < best[0]:
                    params = GbtHyperparams(n_trees, max_depth, learning_rate)
                    best = (rank, full, params)
    assert best is not None
    _, full, params = best
    model = GbtModel(full.trees[: params.n_estimators], full.learning_rate, full.base_score)
    return model, params
