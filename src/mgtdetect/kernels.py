"""Spectrum string kernels and a support vector machine trained by SMO.

The kernel between two strings counts distinct shared n-grams for every n
in a configured range and sums the counts.  That is an inner product in
the binary n-gram indicator space (the spectrum feature map of Leslie,
Eskin & Noble, PSB 2002), so Gram matrices are positive semidefinite;
with cosine normalization the diagonal is exactly 1.

Gram rows and SVM decisions are not computed pair by pair.  An
``_NgramIndex`` interns the distinct n-grams of a fixed list of texts
(the training texts, or a model's support texts) to integer ids, one
vocabulary for every n, and keeps for each id the sorted postings of the
texts that contain it.  A query's n-grams are then looked up once, and
one ``np.bincount`` over their postings gives the exact integer count of
n-grams it shares with every indexed text; the cost grows with the
postings the query touches, not with the number of texts times the query
length.  ``spectrum_kernel`` stays as the pairwise reference.

The normalization ``raw / sqrt(self_x * self_y)`` and the decision's sum
are computed as in the pairwise form: element-wise float64 division and
square root round exactly like their scalar forms, and the decision adds
the support terms one by one, in support order, because ``np.dot`` or
``np.sum`` would add them in another order and change the last bits.
Gram matrices, SMO solutions and probabilities are therefore identical
to the pairwise evaluation.

The SVM solves the soft-margin dual with sequential minimal optimization
over index pairs.  Pair partners are chosen with a seeded generator, so
training is deterministic for a given seed.  It reads kernel values from
an index over the training texts on demand, as the kernel caches of
LIBSVM and SVMlight do, so memory grows with the rows SMO's updates use
times n, not with n squared; every value is bit-equal to the Gram entry.
The fitted ``SvmModel`` is the support set alone (the support vectors'
training rows, texts and dual coefficients, plus the bias), because the
decision reads nothing else; the other training texts and the zero
alphas are not kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .checkpoint import decode_array, encode_array
from .errors import ConfigError, DataError

KKT_TOLERANCE = 1e-3
MAX_PASSES = 10_000
_MIN_ALPHA_STEP = 1e-12
_SUPPORT_EPS = 1e-8


class NgramUnit(Enum):
    CHAR = "char"
    WORD = "word"


@dataclass(frozen=True)
class KernelConfig:
    ngram_min: int = 3
    ngram_max: int = 5
    unit: NgramUnit = NgramUnit.CHAR
    normalize: bool = True

    def __post_init__(self) -> None:
        if not (1 <= self.ngram_min <= self.ngram_max):
            raise ConfigError(
                f"bad n-gram range ({self.ngram_min}, {self.ngram_max})"
            )


def ngram_sets(text: str, cfg: KernelConfig) -> tuple[frozenset, ...]:
    """Distinct n-grams of the text for each n in the configured range.

    CHAR slides over the raw string (spaces included); WORD slides over the
    whitespace-token sequence, yielding token tuples.
    """
    if cfg.unit is NgramUnit.WORD:
        units: Sequence = text.split()
    else:
        units = text
    sets = []
    for n in range(cfg.ngram_min, cfg.ngram_max + 1):
        if cfg.unit is NgramUnit.WORD:
            grams = frozenset(
                tuple(units[i : i + n]) for i in range(len(units) - n + 1)
            )
        else:
            grams = frozenset(units[i : i + n] for i in range(len(units) - n + 1))
        sets.append(grams)
    return tuple(sets)


def _raw_kernel(sets_x: tuple[frozenset, ...], sets_y: tuple[frozenset, ...]) -> int:
    return sum(len(sx & sy) for sx, sy in zip(sets_x, sets_y))


def spectrum_kernel(x: str, y: str, cfg: KernelConfig = KernelConfig()) -> float:
    """Shared distinct n-gram count, optionally cosine-normalized.

    When either string has no n-grams at all, the normalized kernel is
    defined as 0.
    """
    sets_x = ngram_sets(x, cfg)
    sets_y = ngram_sets(y, cfg)
    raw = _raw_kernel(sets_x, sets_y)
    if not cfg.normalize:
        return float(raw)
    self_x = _raw_kernel(sets_x, sets_x)
    self_y = _raw_kernel(sets_y, sets_y)
    if self_x == 0 or self_y == 0:
        return 0.0
    return raw / math.sqrt(self_x * self_y)


class _NgramIndex:
    """Interned n-grams of a fixed list of texts, indexed both ways.

    Ids come from one vocabulary over every n in the range: CHAR grams of
    different lengths are different strings and WORD grams of different
    lengths are different tuples, so they never collide, and a text's
    self kernel is its number of distinct ids.  Both directions are flat
    arrays with offsets: the ids of text t are
    ``text_grams[text_offsets[t]:text_offsets[t + 1]]`` and the texts that
    hold id g are ``gram_texts[gram_offsets[g]:gram_offsets[g + 1]]``.
    """

    def __init__(self, texts: Sequence[str], cfg: KernelConfig):
        vocab: dict = {}
        ids: list[int] = []
        sizes = []
        for text in texts:
            sets = ngram_sets(text, cfg)
            ids.extend(vocab.setdefault(g, len(vocab)) for grams in sets for g in grams)
            sizes.append(sum(map(len, sets)))
        self.vocab = vocab
        self.selfs = np.array(sizes, dtype=np.float64)
        self.text_grams = np.array(ids, dtype=np.int32)
        self.text_offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(np.array(sizes, dtype=np.int64), out=self.text_offsets[1:])
        owners = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        self.gram_texts = owners[np.argsort(self.text_grams, kind="stable")]
        self.gram_offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
        counts = np.bincount(self.text_grams, minlength=len(vocab))
        np.cumsum(counts, out=self.gram_offsets[1:])

    def grams_of(self, t: int) -> np.ndarray:
        return self.text_grams[self.text_offsets[t] : self.text_offsets[t + 1]]

    def query_ids(self, sets: tuple[frozenset, ...]) -> np.ndarray:
        """Ids of the query's n-grams that occur in some indexed text."""
        get = self.vocab.get
        ids = [i for grams in sets for g in grams if (i := get(g)) is not None]
        return np.array(ids, dtype=np.int64)

    def shared_counts(self, ids: np.ndarray) -> np.ndarray:
        """Exact count of the given distinct ids that each indexed text holds."""
        starts = self.gram_offsets[ids]
        lengths = self.gram_offsets[ids + 1] - starts
        # Flat positions of every posting of every id, without a Python loop:
        # the k-th posting of an id sits at its start plus k.
        firsts = np.cumsum(lengths) - lengths
        positions = np.repeat(starts - firsts, lengths) + np.arange(lengths.sum())
        return np.bincount(self.gram_texts[positions], minlength=len(self.selfs))

    def kernels(self, shared: np.ndarray, self_q: float, normalize: bool) -> np.ndarray:
        """Kernel of a query with every indexed text, from its shared counts."""
        raw = shared.astype(np.float64)
        if not normalize:
            return raw
        values = np.zeros(len(self.selfs), dtype=np.float64)
        if self_q == 0:
            return values
        nonempty = self.selfs > 0
        values[nonempty] = raw[nonempty] / np.sqrt(self_q * self.selfs[nonempty])
        return values

    def entry(self, i: int, j: int, normalize: bool) -> float:
        """Kernel of indexed texts i and j, bit-equal to ``row(i)[j]``."""
        if i == j:  # normalized: 1.0, or 0.0 for a text without n-grams
            return float(self.selfs[i] > 0) if normalize else float(self.selfs[i])
        # A text's ids are distinct, so the intersection counts shared ids.
        shared = np.intersect1d(self.grams_of(i), self.grams_of(j), assume_unique=True).size
        if not normalize:
            return float(shared)
        if self.selfs[i] == 0 or self.selfs[j] == 0:
            return 0.0
        return shared / math.sqrt(self.selfs[i] * self.selfs[j])

    def row(self, i: int, normalize: bool) -> np.ndarray:
        """Kernel of indexed text i with every indexed text."""
        values = self.kernels(self.shared_counts(self.grams_of(i)), self.selfs[i], normalize)
        values[i] = self.entry(i, i, normalize)
        return values


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric Gram matrix over a list of texts, in text order."""

    matrix: np.ndarray


def kernel_matrix(texts: Sequence[str], cfg: KernelConfig = KernelConfig()) -> KernelMatrix:
    """Gram matrix over the texts; normalized diagonals are exactly 1."""
    n = len(texts)
    if n == 0:
        raise DataError("cannot build a kernel matrix over zero texts")
    index = _NgramIndex(texts, cfg)
    return KernelMatrix(matrix=np.array([index.row(i, cfg.normalize) for i in range(n)]))


@dataclass(frozen=True)
class SvmModel:
    """The support set of a dual solution: all that its decision reads."""

    support_indices: tuple[int, ...]  # training rows of the support vectors
    dual_coef: np.ndarray  # alpha_i * y_i for each support index
    bias: float
    C: float
    support_texts: tuple[str, ...]  # training texts in support_indices order
    # Index over the support texts per kernel config, built on first use.
    _indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = (len(self.support_indices), len(self.dual_coef), len(self.support_texts))
        if len(set(sizes)) != 1:
            raise DataError(
                f"{sizes[0]} support indices, {sizes[1]} dual coefficients "
                f"and {sizes[2]} support texts"
            )

    def _support_index(self, cfg: KernelConfig) -> _NgramIndex:
        index = self._indexes.get(cfg)
        if index is None:
            index = _NgramIndex(self.support_texts, cfg)
            self._indexes[cfg] = index
        return index

    def decision(self, text: str, cfg: KernelConfig) -> float:
        index = self._support_index(cfg)
        sets = ngram_sets(text, cfg)
        shared = index.shared_counts(index.query_ids(sets))
        terms = self.dual_coef * index.kernels(shared, sum(map(len, sets)), cfg.normalize)
        total = self.bias
        for term in terms.tolist():  # left fold in support order, as pairwise
            total += term
        return float(total)


def _as_pm1_labels(labels: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.float64)
    values = set(np.unique(arr).tolist())
    if not values <= {-1.0, 1.0}:
        raise DataError(f"svm labels must be in {{-1, +1}}, got {sorted(values)}")
    if values != {-1.0, 1.0}:
        raise DataError("svm training needs both classes present")
    return arr


def svm_train(
    texts: Sequence[str],
    labels: Sequence[int] | np.ndarray,
    C: float = 1.0,
    *,
    cfg: KernelConfig = KernelConfig(),
    seed: int = 0,
    tol: float = KKT_TOLERANCE,
    max_passes: int = MAX_PASSES,
) -> SvmModel:
    """Soft-margin dual SVM via sequential minimal optimization.

    Sweeps all examples, optimizing each KKT violator against a seeded
    random partner, until one full sweep changes nothing or ``max_passes``
    sweeps elapse.  Kernel rows come from an index over the texts, each
    computed once per fit and kept; a pair's value comes from a kept row
    or from ``_NgramIndex.entry``.  No n x n Gram is held.
    """
    if C <= 0:
        raise ConfigError(f"C must be positive, got {C}")
    y = _as_pm1_labels(labels)
    n = len(texts)
    if y.shape[0] != n:
        raise DataError(f"{y.shape[0]} labels for {n} texts")
    index = _NgramIndex(texts, cfg)
    rows: dict[int, np.ndarray] = {}

    def row(t: int) -> np.ndarray:
        if t not in rows:
            rows[t] = index.row(t, cfg.normalize)
        return rows[t]

    def k(a: int, b: int) -> float:
        # A cached row holds the element formula's bits; most pairs have one.
        return rows[a][b] if a in rows else index.entry(a, b, cfg.normalize)

    rng = np.random.default_rng(seed)
    alpha = np.zeros(n, dtype=np.float64)
    b = 0.0
    # f_i = sum_j alpha_j y_j K_ij + b, kept incrementally.
    f = np.full(n, b, dtype=np.float64)

    for _ in range(max_passes):
        num_changed = 0
        for i in range(n):
            e_i = f[i] - y[i]
            r_i = e_i * y[i]
            if not ((r_i < -tol and alpha[i] < C) or (r_i > tol and alpha[i] > 0)):
                continue
            j = int((i + 1 + rng.integers(n - 1)) % n)
            e_j = f[j] - y[j]
            if y[i] != y[j]:
                low = max(0.0, alpha[j] - alpha[i])
                high = min(C, C + alpha[j] - alpha[i])
            else:
                low = max(0.0, alpha[i] + alpha[j] - C)
                high = min(C, alpha[i] + alpha[j])
            if low >= high:
                continue
            k_ii, k_jj, k_ij = k(i, i), k(j, j), k(i, j)
            eta = k_ii + k_jj - 2.0 * k_ij
            if eta <= 0:
                continue
            alpha_j_new = alpha[j] + y[j] * (e_i - e_j) / eta
            alpha_j_new = min(high, max(low, alpha_j_new))
            d_j = alpha_j_new - alpha[j]
            if abs(d_j) < _MIN_ALPHA_STEP:
                continue
            d_i = -y[i] * y[j] * d_j
            alpha_i_new = alpha[i] + d_i
            b1 = b - e_i - y[i] * d_i * k_ii - y[j] * d_j * k_ij
            b2 = b - e_j - y[i] * d_i * k_ij - y[j] * d_j * k_jj
            if 0.0 < alpha_i_new < C:
                b_new = b1
            elif 0.0 < alpha_j_new < C:
                b_new = b2
            else:
                b_new = 0.5 * (b1 + b2)
            f += y[i] * d_i * row(i) + y[j] * d_j * row(j) + (b_new - b)
            alpha[i] = alpha_i_new
            alpha[j] = alpha_j_new
            b = b_new
            num_changed += 1
        if num_changed == 0:
            break
    else:
        # Not in the training log, which must stay deterministic.
        warnings.warn(
            f"SMO stopped at the sweep limit of {max_passes} sweeps before a sweep "
            "changed nothing; the solution may not meet the KKT tolerance",
            UserWarning,
            stacklevel=2,
        )

    support = tuple(int(i) for i in np.flatnonzero(alpha > _SUPPORT_EPS))
    dual_coef = np.array([alpha[i] * y[i] for i in support], dtype=np.float64)
    return SvmModel(
        support_indices=support,
        dual_coef=dual_coef,
        bias=float(b),
        C=float(C),
        support_texts=tuple(texts[i] for i in support),
    )


def svm_predict_proba(model: SvmModel, text: str, cfg: KernelConfig = KernelConfig()) -> float:
    """Margin squashed through the logistic function.

    A zero margin maps to probability 0.5; larger margins map monotonically
    toward 1.
    """
    return float(1.0 / (1.0 + math.exp(-model.decision(text, cfg))))


def kernel_config_to_jsonable(cfg: KernelConfig) -> dict:
    return {
        "ngram_min": cfg.ngram_min,
        "ngram_max": cfg.ngram_max,
        "unit": cfg.unit.value,
        "normalize": cfg.normalize,
    }


def kernel_config_from_jsonable(data: dict) -> KernelConfig:
    try:
        return KernelConfig(
            ngram_min=int(data["ngram_min"]),
            ngram_max=int(data["ngram_max"]),
            unit=NgramUnit(data["unit"]),
            normalize=bool(data["normalize"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed kernel settings: {exc}") from exc


def svm_to_jsonable(model: SvmModel) -> dict:
    return {
        "support_indices": list(model.support_indices),
        "dual_coef": encode_array(model.dual_coef),
        "bias": model.bias,
        "C": model.C,
        "support_texts": list(model.support_texts),
    }


def svm_from_jsonable(data: dict) -> SvmModel:
    try:
        return SvmModel(
            support_indices=tuple(int(i) for i in data["support_indices"]),
            dual_coef=decode_array(data["dual_coef"], np.float64),
            bias=float(data["bias"]),
            C=float(data["C"]),
            support_texts=tuple(str(t) for t in data["support_texts"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed svm model: {exc}") from exc
