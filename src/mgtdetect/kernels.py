"""Spectrum string kernels and a support vector machine trained by SMO.

The kernel between two strings counts distinct shared n-grams for every n
in a configured range and sums the counts.  That is an inner product in
the binary n-gram indicator space (the spectrum feature map of Leslie,
Eskin & Noble, PSB 2002), so Gram matrices are positive semidefinite;
with cosine normalization the diagonal is exactly 1.

Gram rows are not computed pair by pair.  An ``_NgramIndex`` numbers the
distinct n-grams of a fixed list of texts (the training texts, or a
model's support texts), one vocabulary for every n, and keeps each text's
ids.  It finds n-grams on arrays, not as Python strings: a text is an
array of units (its code points, or its whitespace tokens numbered in
order of first appearance), and every window of n units is hashed with
the embedder's splitmix64 chain (``embeddings.window_levels``), one step
on from the window one unit shorter at the same start.  Windows with
equal hashes are compared unit by unit, so a hash collision never merges
two n-grams.  The build hashes the texts in blocks of about
``_BLOCK_UNITS`` units and keeps each block's distinct n-grams and each
text's numbers of them; once every block is in, the blocks' n-grams are
sorted by hash and grouped once more.  An n-gram's id is its rank in
hash order, and the index keeps the place of its units in the indexed
texts.  The build's working memory grows with
the (text, n-gram) postings it makes, not with the windows it hashes.
For a kernel row of indexed text i, one ``np.bincount`` over the
postings of i's ids (the texts that hold each id, inverted once per
index) gives the exact integer count of n-grams i shares with every
indexed text.  No n-gram is longer than the text that holds it, or than
``ngram_max``, which ``KernelConfig`` bounds by ``MAX_NGRAM``.  A row's
normalization ``raw / sqrt(self_x * self_y)`` is element-wise float64
division and square root, which round exactly like their scalar forms, so
a row equals the scalar formula bit for bit, its diagonal included.
Every Gram value is read from a row: ``spectrum_kernel``'s too, from an
index over its two texts.

The SVM is served in primal form.  The normalized kernel is the dot
product of ``phi(x) / |phi(x)|``, with ``phi`` the 0/1 indicator of
distinct n-grams, so the dual decision ``b + sum_i c_i K(s_i, x)`` equals
``b + sum over x's n-grams g of w_g, divided by sqrt(|G(x)|)``, with
``w_g = sum over the supports s_i that hold g of c_i / sqrt(|G(s_i)|)``
(no roots when unnormalized; ``b`` for a text without n-grams).  The
weights are folded once per model and kernel config, by one
``np.bincount`` over the support texts' ids in support order, into a
dict keyed by the n-grams themselves: CHAR n-grams as strings, WORD
n-grams as tuples of tokens.  A decision then builds the set of the
text's distinct n-grams in Python and looks each one up in the dict,
whatever the size of the support set; the text is never indexed or
hashed as units.  The found weights are summed by ``math.fsum``, which
is correctly rounded, so the decision depends neither on the set's
iteration order (and so not on the string hash seed) nor on zero
weights: folded from the training index or from an index over the
support texts alone, the decision is the same to the bit.  It differs
from the dual form's left fold of support terms in the last bits only
(at most ~1e-14 on the benchmark and end-to-end corpora).

The SVM solves the soft-margin dual with sequential minimal optimization
over index pairs.  Pair partners are chosen with a seeded generator, so
training is deterministic for a given seed; they are drawn a block at a
time, which yields the same stream as one draw per violator.  SMO's
per-example bookkeeping (labels, alphas, errors, bias) is Python floats,
which round exactly as numpy float64 scalars but cost less to read.  It
reads every kernel value from a row of an index over the training texts
(the diagonal from its self counts), as LIBSVM reads each Q_ij from a
cached kernel column.  Rows are computed on demand and kept in one
least-recently-used cache under a fixed byte budget
(``_ROW_CACHE_BYTES``), so training memory is bounded by that budget
plus the index, not n squared; an evicted row is computed again, and
every value is bit-equal to the Gram entry.
The fitted ``SvmModel`` is the support set alone (the support vectors'
training rows, texts and dual coefficients, plus the bias), because the
decision reads nothing else; the other training texts and the zero
alphas are not kept.  A model ``svm_train`` returns already holds the
weights folded from the training index's support rows, so scoring it
builds no second index, and the table's keys are copies, so the training
index is freed when ``svm_train`` returns; a loaded model folds its
weights on its first decision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from enum import Enum
from itertools import repeat
from typing import Sequence

import numpy as np

from .checkpoint import Array, built, checked, encode_array
from .embeddings import _blocks, chain_start, code_points, text_index, window_levels
from .errors import ConfigError, DataError

KKT_TOLERANCE = 1e-3
MAX_PASSES = 10_000
_MIN_ALPHA_STEP = 1e-12
_SUPPORT_EPS = 1e-8
# Texts are indexed in blocks of about this many units (see _NgramIndex).
_BLOCK_UNITS = 1 << 12
# The longest n-gram a kernel counts: past the texts, ngram_max costs the
# cube of their length.  Every shipped configuration counts 3- to 5-grams.
MAX_NGRAM = 32
# svm_train keeps at most this many bytes of kernel rows (LIBSVM's kernel
# cache defaults to 100 MB).
_ROW_CACHE_BYTES = 1 << 27


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
        if self.ngram_max > MAX_NGRAM:
            raise ConfigError(
                f"ngram_max must be at most {MAX_NGRAM}, got {self.ngram_max}"
            )


def spectrum_kernel(x: str, y: str, cfg: KernelConfig = KernelConfig()) -> float:
    """Shared distinct n-gram count, optionally cosine-normalized: read from
    a row of an index over the two texts.  For many pairs, ``kernel_matrix``
    indexes every text once.

    When either string has no n-grams at all, the normalized kernel is
    defined as 0.
    """
    return _NgramIndex([x, y], cfg).row(0, cfg.normalize).item(1)


def _units(
    texts: Sequence[str], unit: NgramUnit, tokens: dict
) -> tuple[np.ndarray, list[int]]:
    """The texts' units joined into one array, and each text's length.

    CHAR units are code points.  WORD units are whitespace tokens, numbered
    in ``tokens`` in order of first appearance.
    """
    if unit is NgramUnit.CHAR:
        return code_points(texts), [len(t) for t in texts]
    words = [text.split() for text in texts]
    ids = [tokens.setdefault(w, len(tokens)) for ws in words for w in ws]
    return np.array(ids, dtype=np.uint32), [len(ws) for ws in words]


def _same(
    a: np.ndarray, a_start: np.ndarray, a_size: np.ndarray,
    b: np.ndarray, b_start: np.ndarray, b_size: np.ndarray,
) -> np.ndarray:
    """Whether ``a[a_start[k]:][:a_size[k]]`` equals ``b[b_start[k]:][:b_size[k]]``,
    for each k, compared one unit step at a time.  Past the end of the
    shorter gram its last unit is compared again."""
    same = a_size == b_size
    last = np.minimum(a_size, b_size) - 1
    for i in range(int(last.max(initial=-1)) + 1):
        step = np.minimum(i, last)
        same &= a[a_start + step] == b[b_start + step]
    return same


def _windows(
    units: np.ndarray,
    lengths: Sequence[int],
    lo: int,
    hi: int,
    h0: np.ndarray,
    doc: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hash, start and size of every window of n units, ``lo <= n <= hi``,
    inside one of the texts joined in ``units``, sorted by hash; ``doc`` is
    ``text_index(lengths)``."""
    positions = np.arange(len(units))
    hashes, starts = [np.zeros(0, dtype=np.uint64)], [positions[:0]]
    for level, inside in window_levels(units, lengths, lo, hi, h0, doc):
        at = positions[: len(level)] if inside is None else inside.nonzero()[0]
        hashes.append(level if inside is None else level[at])
        starts.append(at)
    sizes = np.arange(lo, lo + len(starts) - 1).repeat([len(at) for at in starts[1:]])
    hashes = np.concatenate(hashes)
    order = hashes.argsort()
    return hashes[order], np.concatenate(starts)[order], sizes[order]


def _group(
    units: np.ndarray, hashes: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For windows sorted by hash, the number of each window's gram and the
    first window of each gram, grams numbered in hash order from 0.

    Each window is compared unit by unit with the first window of its run
    of equal hashes; the ones that differ (hash collisions) are grouped
    again among themselves, until every window has a first window that
    holds the same units.
    """
    first = np.arange(len(hashes))
    pending = np.arange(len(hashes))  # the windows still to group, in hash order
    while len(pending):
        runs = np.ones(len(pending), dtype=bool)
        np.not_equal(hashes[1:], hashes[:-1], out=runs[1:])
        other = (~runs).nonzero()[0]
        if not len(other):  # no two windows share a hash
            break
        head = np.maximum.accumulate(np.where(runs, np.arange(len(pending)), 0))[other]
        same = _same(units, starts[head], sizes[head], units, starts[other], sizes[other])
        first[pending[other[same]]] = pending[head[same]]
        differ = other[~same]
        pending, hashes, starts, sizes = (
            pending[differ], hashes[differ], starts[differ], sizes[differ]
        )
    heads = (first == np.arange(len(first))).nonzero()[0]
    numbers = np.empty(len(first), dtype=np.int64)
    numbers[heads] = np.arange(len(heads))
    return numbers[first], heads


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, sorted.  Not ``np.unique``,
    which hashes on numpy 2.4: ~9x slower (331 vs 38 us, 4,096 int64)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _spans(offsets: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Flat positions of the entries ``offsets[k]:offsets[k + 1]`` of every
    key k, key after key, without a Python loop: the j-th entry of a key
    sits at its start plus j."""
    ends = offsets[keys + 1]
    lengths = ends - offsets[keys]
    positions = np.repeat(ends - np.cumsum(lengths), lengths)
    positions += np.arange(len(positions))
    return positions


class _NgramIndex:
    """The distinct n-grams of a fixed list of texts, with each text's ids.

    Ids come from one vocabulary over every n in the range: grams of
    different lengths never hold the same units, so they never share an
    id.  Gram g's units are ``units[gram_starts[g]:][:gram_sizes[g]]``,
    with ``units`` the texts' units joined (WORD units are token numbers
    from ``tokens``), and ids are numbered in hash order.  A text's self
    kernel is its number of distinct ids (``selfs``).  The ids of text t
    are ``text_grams[text_offsets[t]:text_offsets[t + 1]]``.  The inverse
    postings, the texts that hold id g, are built on the first ``row``:
    only kernel rows read them, and every Gram value is read from a row.

    The build reads the texts in blocks of about ``_BLOCK_UNITS`` units.
    A block's windows are hashed (``_windows``) and grouped into the
    block's grams (``_group``), and each text's distinct grams are kept
    as numbers of the block's grams.  Once every block is in, the blocks'
    grams are sorted by hash and grouped once more, which numbers the
    vocabulary.
    """

    def __init__(self, texts: Sequence[str], cfg: KernelConfig):
        lo, hi = cfg.ngram_min, cfg.ngram_max
        h0 = chain_start(0)  # the kernel's windows hash with seed 0
        tokens: dict = {}
        every_unit, lengths = _units(texts, cfg.unit, tokens)
        text_starts = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=text_starts[1:])
        # Each block's grams (hash, start, size), and each text's distinct
        # grams as numbers of the grams of all blocks so far.
        hashes, starts, sizes = [np.zeros(0, dtype=np.uint64)], [text_starts[:0]], [text_starts[:0]]
        postings = [np.zeros(0, dtype=np.int32)]
        counts = np.zeros(len(lengths), dtype=np.int64)
        numbered = 0
        for block in _blocks(lengths, lo, _BLOCK_UNITS):
            a, z = block[0], block[-1] + 1
            units = every_unit[text_starts[a] : text_starts[z]]
            doc = text_index(lengths[a:z])
            window_hashes, window_starts, window_sizes = _windows(
                units, lengths[a:z], lo, hi, h0, doc
            )
            grams, heads = _group(units, window_hashes, window_starts, window_sizes)
            hashes.append(window_hashes[heads])
            starts.append(window_starts[heads] + text_starts[a])
            sizes.append(window_sizes[heads])
            # Each (text, gram) pair once, in text order.
            shift = len(heads).bit_length()
            pairs = _distinct(doc[window_starts] << shift | grams)
            counts[a:z] = np.bincount(pairs >> shift, minlength=z - a)
            postings.append((pairs & ((1 << shift) - 1)).astype(np.int32) + numbered)
            numbered += len(heads)
        # The blocks' grams, grouped once more in hash order, are the vocabulary.
        hashes = np.concatenate(hashes)
        order = hashes.argsort()
        hashes = hashes[order]
        starts = np.concatenate(starts)[order]
        sizes = np.concatenate(sizes)[order]
        grams, heads = _group(every_unit, hashes, starts, sizes)
        self.unit, self.tokens, self.units = cfg.unit, tokens, every_unit
        self.gram_starts, self.gram_sizes = starts[heads], sizes[heads]
        ids = np.empty(len(order), dtype=np.int32)
        ids[order] = grams
        self.text_grams = ids[np.concatenate(postings)]
        del postings
        self.selfs = counts.astype(np.float64)
        self.text_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.text_offsets[1:])

    @cached_property
    def _postings(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gram_offsets, gram_texts)``: the texts that hold id g, in text
        order, are ``gram_texts[gram_offsets[g]:gram_offsets[g + 1]]``."""
        counts = np.diff(self.text_offsets)
        gram_offsets = np.zeros(len(self.gram_starts) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.text_grams, minlength=len(self.gram_starts)), out=gram_offsets[1:]
        )
        # Each id's texts in text order, from the (id, text) pairs sorted.
        shift = len(counts).bit_length()
        pairs = self.text_grams.astype(np.int64)
        pairs <<= shift
        pairs |= np.arange(len(counts), dtype=np.int32).repeat(counts)
        pairs.sort()
        pairs &= (1 << shift) - 1
        return gram_offsets, pairs.astype(np.int32)

    def primal(self, rows: Sequence[int], coefs: np.ndarray, normalize: bool) -> dict:
        """The n-grams of the given indexed texts, each with its primal weight
        ``w_g = sum of coefs[k] / sqrt(self kernel of rows[k])`` over the
        texts that hold g (no root unnormalized), added in the order of
        ``rows``.  CHAR n-grams are strings and WORD n-grams tuples of
        tokens, as ``SvmModel.decision`` makes them.
        """
        rows = np.asarray(rows, dtype=np.int64)
        grams = self.text_grams[_spans(self.text_offsets, rows)]
        counts = self.text_offsets[rows + 1] - self.text_offsets[rows]
        terms = np.asarray(coefs, dtype=np.float64)
        if normalize:  # a text without n-grams adds no term
            roots = np.sqrt(self.selfs[rows])
            terms = np.divide(terms, roots, out=np.zeros(len(rows)), where=counts > 0)
        # bincount adds each gram's terms one by one, in the order of grams.
        size = len(self.gram_starts)
        weights = np.bincount(grams, weights=terms.repeat(counts), minlength=size)
        held = np.bincount(grams, minlength=size) > 0
        # The joined texts, unit by unit: code points index a str as they
        # index the units, lone surrogates included.
        if self.unit is NgramUnit.CHAR:
            joined = self.units.tobytes().decode("utf-32-le", "surrogatepass")
        else:
            words = list(self.tokens)  # in the order of their numbers
            joined = tuple([words[u] for u in self.units.tolist()])
        return {
            joined[start : start + n]: weight
            for start, n, weight in zip(
                self.gram_starts[held].tolist(),
                self.gram_sizes[held].tolist(),
                weights[held].tolist(),
            )
        }

    def row(self, i: int, normalize: bool) -> np.ndarray:
        """Kernel of indexed text i with every indexed text, the one source
        of Gram values for SMO, ``kernel_matrix`` and ``spectrum_kernel``:
        the count of i's ids each text holds, from one ``np.bincount`` over
        their postings, then normalized."""
        gram_offsets, gram_texts = self._postings
        ids = self.text_grams[self.text_offsets[i] : self.text_offsets[i + 1]]
        shared = np.bincount(gram_texts[_spans(gram_offsets, ids)], minlength=len(self.selfs))
        values = shared.astype(np.float64)
        if normalize:
            held = shared > 0  # so both texts hold n-grams
            values[held] /= np.sqrt(self.selfs[i] * self.selfs[held])
        # The diagonal needs no special case: text i shares its s ids with
        # itself, and for s below 2**26, s * s is exact in binary64, so
        # sqrt(s * s) == s and s / s == 1.0 (0.0 when s == 0: not held).
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
    # Per kernel config, ``{support n-gram: primal weight}``
    # (``_NgramIndex.primal``), folded on the first decision.
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.ndim(self.dual_coef) != 1:
            raise DataError(f"dual coefficients of shape {np.shape(self.dual_coef)}, not 1-d")
        sizes = (len(self.support_indices), len(self.dual_coef), len(self.support_texts))
        if len(set(sizes)) != 1:
            raise DataError(
                f"{sizes[0]} support indices, {sizes[1]} dual coefficients "
                f"and {sizes[2]} support texts"
            )

    def decision(self, text: str, cfg: KernelConfig) -> float:
        """``b + sum of w_g over the text's distinct n-grams g``, the sum
        divided by the root of their number when normalized, and ``b`` for
        a text without n-grams.  ``math.fsum`` rounds the sum once, so it
        depends neither on the set's iteration order, which the string
        hash seed decides, nor on the zero weights of unseen n-grams."""
        table = self._tables.get(cfg)
        if table is None:
            index = _NgramIndex(self.support_texts, cfg)
            table = index.primal(range(len(self.support_texts)), self.dual_coef, cfg.normalize)
            self._tables[cfg] = table
        units = tuple(text.split()) if cfg.unit is NgramUnit.WORD else text
        size = len(units)
        grams = {
            units[i : i + n]
            for n in range(cfg.ngram_min, min(cfg.ngram_max, size) + 1)
            for i in range(size - n + 1)
        }
        if not grams:
            return float(self.bias)
        total = math.fsum(map(table.get, grams, repeat(0.0)))  # 0 for an unseen n-gram
        return float(self.bias + (total / math.sqrt(len(grams)) if cfg.normalize else total))


def _as_pm1_labels(labels: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.float64)
    values = set(np.unique(arr).tolist())
    if not values <= {-1.0, 1.0}:
        raise DataError(f"svm labels must be in {{-1, +1}}, got {sorted(values)}")
    if values != {-1.0, 1.0}:
        raise DataError("svm training needs both classes present")
    return arr


def _partner_offsets(rng: np.random.Generator, m: int, block: int):
    """Draws of ``rng.integers(m)`` one at a time, taken from the generator
    ``block`` at a time.  PCG64 keeps the unused half of a 64-bit output
    in its state, so the stream equals that of scalar draws."""
    while True:
        yield from rng.integers(m, size=block).tolist()


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
    sweeps elapse.  Partners are drawn n at a time and taken in order, one
    per violator, which gives the stream of one draw per violator.  The
    labels, alphas, bias and errors are Python floats, read from the
    decision values with ``f.item``: IEEE binary64 rounds them exactly as
    numpy float64 scalars, and every expression keeps its operand order.

    Kernel rows come from an index over the texts, through one
    ``lru_cache`` of at most ``_ROW_CACHE_BYTES`` of rows (read at each
    call); an evicted row is computed again, bit-equal.  A pair's ``K_ij``
    is read from row i, and the diagonal from the index's self counts.
    No n x n Gram is held.
    """
    if not 0 < C < math.inf:
        raise ConfigError(f"C must be positive and finite, got {C}")
    if not 0 <= tol < math.inf:
        raise ConfigError(f"tol must be finite and at least 0, got {tol}")
    if not max_passes >= 1:
        raise ConfigError(f"max_passes must be at least 1, got {max_passes}")
    if not seed >= 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    C, tol = float(C), float(tol)
    y = _as_pm1_labels(labels).tolist()
    n = len(texts)
    if len(y) != n:
        raise DataError(f"{len(y)} labels for {n} texts")
    index = _NgramIndex(texts, cfg)
    row = lru_cache(maxsize=_ROW_CACHE_BYTES // (8 * n))(  # whole float64 rows
        partial(index.row, normalize=cfg.normalize)
    )
    # The Gram diagonal: each value is the one row(t) holds at t.
    diag = [float(s > 0) if cfg.normalize else s for s in index.selfs.tolist()]
    partners = _partner_offsets(np.random.default_rng(seed), n - 1, n)
    alpha = [0.0] * n
    b = 0.0
    # f_i = sum_j alpha_j y_j K_ij + b, kept incrementally.
    f = np.full(n, b, dtype=np.float64)
    f_at = f.item  # f is only ever updated in place

    for _ in range(max_passes):
        num_changed = 0
        for i in range(n):
            y_i = y[i]
            e_i = f_at(i) - y_i
            r_i = e_i * y_i
            if not ((r_i < -tol and alpha[i] < C) or (r_i > tol and alpha[i] > 0)):
                continue
            j = (i + 1 + next(partners)) % n
            y_j, a_i, a_j = y[j], alpha[i], alpha[j]
            e_j = f_at(j) - y_j
            if y_i != y_j:
                low = max(0.0, a_j - a_i)
                high = min(C, C + a_j - a_i)
            else:
                low = max(0.0, a_i + a_j - C)
                high = min(C, a_i + a_j)
            if low >= high:
                continue
            k_ii, k_jj, k_ij = diag[i], diag[j], row(i).item(j)
            eta = k_ii + k_jj - 2.0 * k_ij
            if eta <= 0:
                continue
            alpha_j_new = a_j + y_j * (e_i - e_j) / eta
            alpha_j_new = min(high, max(low, alpha_j_new))
            d_j = alpha_j_new - a_j
            if abs(d_j) < _MIN_ALPHA_STEP:
                continue
            d_i = -y_i * y_j * d_j
            alpha_i_new = a_i + d_i
            b1 = b - e_i - y_i * d_i * k_ii - y_j * d_j * k_ij
            b2 = b - e_j - y_i * d_i * k_ij - y_j * d_j * k_jj
            if 0.0 < alpha_i_new < C:
                b_new = b1
            elif 0.0 < alpha_j_new < C:
                b_new = b2
            else:
                b_new = 0.5 * (b1 + b2)
            f += y_i * d_i * row(i) + y_j * d_j * row(j) + (b_new - b)
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

    support = tuple(i for i in range(n) if alpha[i] > _SUPPORT_EPS)
    dual_coef = np.array([alpha[i] * y[i] for i in support], dtype=np.float64)
    model = SvmModel(
        support_indices=support,
        dual_coef=dual_coef,
        bias=b,
        C=C,
        support_texts=tuple(texts[i] for i in support),
    )
    # The support rows of this index give the table an index over the
    # support texts would: the same n-grams, weights and decisions.
    model._tables[cfg] = index.primal(support, dual_coef, cfg.normalize)
    return model


def svm_predict_proba(model: SvmModel, text: str, cfg: KernelConfig = KernelConfig()) -> float:
    """Margin squashed through the logistic function.

    A zero margin maps to probability 0.5; larger margins map monotonically
    toward 1.  A margin below about -709.78, where ``exp`` overflows, maps
    to 0.
    """
    decision = model.decision(text, cfg)
    try:
        return float(1.0 / (1.0 + math.exp(-decision)))
    except OverflowError:
        return 0.0


def kernel_config_to_jsonable(cfg: KernelConfig) -> dict:
    return {
        "ngram_min": cfg.ngram_min,
        "ngram_max": cfg.ngram_max,
        "unit": cfg.unit.value,
        "normalize": cfg.normalize,
    }


_KERNEL_TABLE = {
    "ngram_min": int,
    "ngram_max": int,
    "unit": frozenset(unit.value for unit in NgramUnit),
    "normalize": bool,
}


def kernel_config_from_jsonable(data: dict, path: str = "kernel") -> KernelConfig:
    values = checked(data, _KERNEL_TABLE, path)
    return built(KernelConfig, path, **values | {"unit": NgramUnit(values["unit"])})


def svm_to_jsonable(model: SvmModel) -> dict:
    return {
        "support_indices": list(model.support_indices),
        "dual_coef": encode_array(model.dual_coef),
        "bias": model.bias,
        "C": model.C,
        "support_texts": list(model.support_texts),
    }


_SVM_TABLE = {
    "support_indices": [int],
    "dual_coef": Array(np.float64, 1),
    "bias": float,
    "C": float,
    "support_texts": [str],
}


def svm_from_jsonable(data: dict, path: str = "model") -> SvmModel:
    values = checked(data, _SVM_TABLE, path)
    texts = {key: tuple(values[key]) for key in ("support_indices", "support_texts")}
    return built(SvmModel, path, **values | texts)
