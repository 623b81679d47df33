"""Readability features and the standard scaler.

Every document maps to a fixed, ordered set of ten features: five raw
counts (words, sentences, syllables, complex words, polysyllables), two
ratios (characters per word, words per sentence), and three classic
readability scores (Flesch reading ease, Gunning fog index, SMOG index).
Complex words and polysyllables both count tokens of three or more
syllables; they are kept as separate columns because the fog and SMOG
formulas consume them independently.

The formulas are applied with the package's own token, sentence, and
syllable heuristics, so scores are internally consistent rather than
matching any particular external tool.

``readability_matrix`` scores a whole batch in one numpy pass over its code
points (``embeddings.code_points``).  It looks up each code point's class
bits (token character, joiner, whitespace, terminator, the vowel, ``e`` and
``l`` classes of its lowercase, and whether that lowercase breaks a vowel
run) and, from those bits and the document ends alone, finds the tokens,
sentence boundaries and syllable onsets that ``textprep.tokenize``,
``textprep.sentence_split`` and ``textprep.count_syllables`` define, as
boolean masks summed per token and per document.  Those counts are exact
integers, and the ten columns apply the same IEEE operations in the same
order to every element as they do to one document, so every row is the
same, bit for bit, as the scalar definitions give and whichever documents
share its call; ``readability_features`` is one row of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document, Language
from .embeddings import code_points
from .errors import DataError
from .textprep import _EN_VOWELS, _ES_STRONG, _ES_VOWELS, _JOINERS, _TERMINATORS

FEATURE_NAMES: tuple[str, ...] = (
    "words",
    "sentences",
    "syllables",
    "complex_words",
    "polysyllables",
    "chars_per_word",
    "words_per_sentence",
    "flesch",
    "gunning_fog",
    "smog",
)

STD_CLAMP = 1e-12


@dataclass(frozen=True)
class ReadabilityFeatures:
    words: float
    sentences: float
    syllables: float
    complex_words: float
    polysyllables: float
    chars_per_word: float
    words_per_sentence: float
    flesch: float
    gunning_fog: float
    smog: float

    def as_vector(self) -> np.ndarray:
        """The features as float64 values in ``FEATURE_NAMES`` order."""
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


# The formulas take scalars or aligned float64 columns.
def flesch_reading_ease(words, sentences, syllables):
    return 206.835 - 1.015 * (words / sentences) - 84.6 * (syllables / words)


def gunning_fog_index(words, sentences, complex_words):
    return 0.4 * ((words / sentences) + 100.0 * (complex_words / words))


def smog_index(sentences, polysyllables):
    return 1.0430 * np.sqrt(polysyllables * 30.0 / sentences) + 3.1291


# Class bits of a code point.  The first four are what textprep's regular
# expressions see: ``[^\W_]`` is ``str.isalnum`` and ``\s`` is
# ``str.isspace``.  The rest are what the syllable counters see, which is
# the lowercase.  A code point whose lowercase has several characters (only
# U+0130, to "i" + U+0307) has the bits of the first of them and
# ``_LOWER_BREAK``: the others are in no syllable class, so no vowel run or
# nucleus continues past it.  The first has no ``e``, ``l`` or strong vowel
# bit, which the counters would read as the last one's (a test pins both
# facts on every code point).
_ALNUM = 1
_JOINER = 2  # joins two alnum runs into one token
_SPACE = 4
_TERMINATOR = 8  # ends a sentence when whitespace follows
_LOWER_EN_VOWEL = 16
_LOWER_ES_VOWEL = 32
_LOWER_ES_STRONG = 64
_LOWER_E = 128
_LOWER_L = 256
_LOWER_BREAK = 512


def _lowercase_bit_map() -> dict[str, int]:
    """The syllable-counter bits of the lowercase characters that have any."""
    bits: dict[str, int] = {}
    for flag, members in (
        (_LOWER_EN_VOWEL, _EN_VOWELS),
        (_LOWER_ES_VOWEL, _ES_VOWELS),
        (_LOWER_ES_STRONG, _ES_STRONG),
        (_LOWER_E, "e"),
        (_LOWER_L, "l"),
    ):
        for char in members:
            bits[char] = bits.get(char, 0) | flag
    return bits


_LOWERCASE_BITS = _lowercase_bit_map()


def _char_bits(char: str) -> int:
    lowered = char.lower()
    bits = _LOWERCASE_BITS.get(lowered[0], 0)
    if len(lowered) > 1:
        bits |= _LOWER_BREAK
    if char.isalnum():
        bits |= _ALNUM
    if char in _JOINERS:
        bits |= _JOINER
    if char.isspace():
        bits |= _SPACE
    if char in _TERMINATORS:
        bits |= _TERMINATOR
    return bits


def _code_point_bits(points: np.ndarray) -> np.ndarray:
    """The class bits of each code point, as uint16.

    Each distinct code point of the batch is classified once.  They are
    found with a presence mask as long as the largest code point, which
    costs less than sorting the points for them unless the batch holds a
    code point above U+80000 (planes 14-16: tags, variation selectors and
    private use).
    """
    size = int(points.max()) + 1
    present = np.zeros(size, dtype=bool)
    present[points] = True
    values = np.flatnonzero(present)
    lookup = np.zeros(size, dtype=np.uint16)
    chars = map(chr, values.tolist())
    lookup[values] = np.fromiter(map(_char_bits, chars), np.uint16, values.size)
    return lookup[points]


def _syllables(bits: np.ndarray, continues: np.ndarray, spanish: np.ndarray) -> np.ndarray:
    """Syllables of each token, as ``count_syllables`` counts them.

    ``bits`` and ``continues`` are those of the token characters in order;
    ``spanish`` says which tokens follow the Spanish rules.
    """
    heads = np.flatnonzero(~continues)
    # carried[i]: a vowel at position i carries its run on to position i + 1.
    carried = continues[1:] & ((bits[:-1] & _LOWER_BREAK) == 0)
    # English counts a run at a vowel after a non-vowel.
    english_vowel = (bits & _LOWER_EN_VOWEL).astype(bool)
    run = english_vowel.copy()
    run[1:] &= ~(english_vowel[:-1] & carried)
    runs = np.add.reduceat(run, heads, dtype=np.intp)
    # A trailing silent 'e' drops a run unless an 'l' precedes it in the
    # token; the token's last character is just before the next head.
    tails = np.append(heads[1:], bits.size) - 1
    # (A one-character token does not continue, so whatever precedes it
    # is masked out, even the wrapped-around last entry.)
    before_tail = bits[tails - 1] * continues[tails]
    runs -= ((bits[tails] & _LOWER_E) > 0) & ((before_tail & _LOWER_L) == 0)

    # Spanish counts a nucleus at a vowel after a non-vowel and at a strong
    # vowel after another strong vowel (hiatus).
    spanish_vowel = (bits & _LOWER_ES_VOWEL).astype(bool)
    strong = (bits & _LOWER_ES_STRONG).astype(bool)
    nucleus = spanish_vowel.copy()
    nucleus[1:] &= ~(spanish_vowel[:-1] & carried) | (strong[:-1] & strong[1:])
    nuclei = np.add.reduceat(nucleus, heads, dtype=np.intp)
    return np.maximum(np.where(spanish, nuclei, runs), 1)


def readability_matrix(docs: Iterable[Document]) -> np.ndarray:
    """Counts and scores of every document, one float64 row each.

    Columns follow ``FEATURE_NAMES``.  Raises on the first document without
    any token: the ratio features would be degenerate, and such texts carry
    no readability signal anyway.

    The whole batch is counted at once over the code points of its joined
    texts, with no character standing between documents (a text may hold
    any character, NUL included): a document edge is a position, and no
    token, joiner or sentence boundary reaches across it.  A token is a
    maximal run of alnum characters and of joiners with an alnum character
    on both sides, which is what ``textprep.tokenize`` finds.  A document
    with a token has one sentence more than it has terminators followed by
    whitespace with a non-whitespace character later in it, which is
    ``len(textprep.sentence_split(text))``.  Syllables are counted over the
    lowercase of the token characters by ``count_syllables``'s rules.
    """
    docs = list(docs)
    if not docs:
        return np.empty((0, len(FEATURE_NAMES)), dtype=np.float64)
    texts = [doc.text for doc in docs]
    ends = np.cumsum(np.fromiter(map(len, texts), np.intp, len(texts)))
    bits = _code_point_bits(code_points(texts))
    # linked[i]: positions i and i + 1 are in the same document.
    linked = np.ones(bits.size - 1, dtype=bool)
    linked[ends[:-1] - 1] = False

    alnum = (bits & _ALNUM).astype(bool)
    in_token = alnum.copy()
    in_token[1:-1] |= (
        ((bits[1:-1] & _JOINER) > 0) & alnum[:-2] & alnum[2:] & linked[:-1] & linked[1:]
    )
    # continues[i]: position i is in the token of position i - 1.
    continues = np.zeros(bits.size, dtype=bool)
    continues[1:] = in_token[1:] & in_token[:-1] & linked
    token_points = np.flatnonzero(in_token)
    token_continues = continues[token_points]
    heads = np.flatnonzero(~token_continues)
    token_doc = np.searchsorted(ends, token_points[heads], side="right")
    words = np.bincount(token_doc, minlength=len(docs))
    if not words.all():
        bad = docs[int(np.argmin(words))]
        raise DataError(f"document {bad.id!r} has no words to score")
    first_token = np.cumsum(words) - words
    chars = np.add.reduceat(np.diff(np.append(heads, token_points.size)), first_token)

    spanish = np.fromiter((doc.language is Language.ES for doc in docs), bool, len(docs))
    per_token = _syllables(bits[token_points], token_continues, spanish[token_doc])
    syllable_total = np.add.reduceat(per_token, first_token)
    complex_words = np.add.reduceat(per_token >= 3, first_token, dtype=np.intp)

    # A terminator and the whitespace after it split a sentence when a
    # non-whitespace character follows in the same document: when the
    # terminator comes before the document's last non-whitespace character
    # (every document has one, in its first token).
    boundaries = np.flatnonzero(((bits[:-1] & _TERMINATOR) > 0) & ((bits[1:] & _SPACE) > 0))
    boundary_doc = np.searchsorted(ends, boundaries, side="right")
    solid = np.flatnonzero((bits & _SPACE) == 0)
    last_solid = solid[np.searchsorted(solid, ends) - 1]
    counted = boundary_doc[boundaries < last_solid[boundary_doc]]
    sentences = 1 + np.bincount(counted, minlength=len(docs))

    words, sentences, syllable_total, complex_words, chars = (
        count.astype(np.float64)
        for count in (words, sentences, syllable_total, complex_words, chars)
    )
    columns = (
        words,
        sentences,
        syllable_total,
        complex_words,
        complex_words,
        chars / words,
        words / sentences,
        flesch_reading_ease(words, sentences, syllable_total),
        gunning_fog_index(words, sentences, complex_words),
        smog_index(sentences, complex_words),
    )
    return np.stack(columns, axis=1)


def readability_features(doc: Document) -> ReadabilityFeatures:
    """Counts and scores for one document: its row of ``readability_matrix``."""
    return ReadabilityFeatures(*readability_matrix([doc])[0].tolist())


@dataclass(frozen=True)
class ScalerParams:
    """Per-column means and population standard deviations."""

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stddevs, dtype=np.float64)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stds)
        if means.shape != stds.shape or means.ndim != 1:
            raise DataError("scaler means and stddevs must be 1-d and aligned")
        if np.any(stds <= 0):
            raise DataError("scaler stddevs must be positive")


def _as_matrix(rows: np.ndarray) -> np.ndarray:
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError(f"expected a 2-d feature matrix, got shape {matrix.shape}")
    return matrix


def fit_scaler(rows: np.ndarray) -> ScalerParams:
    """Column means and population stddevs; near-zero spread clamps to 1.

    Requires at least two rows, otherwise spread is meaningless.  Columns
    with standard deviation below 1e-12 get stddev 1 so constant features
    pass through centered instead of dividing by zero.
    """
    matrix = _as_matrix(rows)
    if matrix.shape[0] < 2:
        raise DataError(f"scaler needs at least 2 rows, got {matrix.shape[0]}")
    means = matrix.mean(axis=0)
    stds = np.sqrt(np.mean((matrix - means) ** 2, axis=0))
    stds = np.where(stds < STD_CLAMP, 1.0, stds)
    return ScalerParams(means=means, stddevs=stds)


def transform(rows: np.ndarray, params: ScalerParams) -> np.ndarray:
    matrix = _as_matrix(rows)
    if matrix.shape[1] != params.means.shape[0]:
        raise DataError(
            f"feature width {matrix.shape[1]} does not match "
            f"scaler width {params.means.shape[0]}"
        )
    return (matrix - params.means) / params.stddevs


def format_feature_matrix(
    ids: Sequence[str],
    names: Sequence[str],
    matrix: np.ndarray,
) -> str:
    """Features as TSV text: header of names with an id column first.

    Values use 9 significant digits.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(ids), len(names)):
        raise DataError(
            f"matrix shape {matrix.shape} does not match "
            f"{len(ids)} ids x {len(names)} names"
        )
    lines = ["\t".join(["id", *names])]
    for doc_id, row in zip(ids, matrix):
        lines.append("\t".join([doc_id, *(format(v, ".9g") for v in row)]))
    return "\n".join(lines) + "\n"
