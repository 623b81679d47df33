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

``readability_matrix`` scores a whole corpus at once: it tokenizes each
document once, counts the syllables of each distinct (language, token)
once per call, and evaluates the ten columns as numpy arrays from the
integer counts.  The formulas apply the same IEEE operations in the same
order to every element as they do to one document, so every row is the
same, bit for bit, whichever documents share its call;
``readability_features`` is one row of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document, Language
from .errors import DataError
from .textprep import count_syllables, sentence_split, tokenize

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


def readability_matrix(docs: Iterable[Document]) -> np.ndarray:
    """Counts and scores of every document, one float64 row each.

    Columns follow ``FEATURE_NAMES``.  Raises on the first document without
    any token: the ratio features would be degenerate, and such texts carry
    no readability signal anyway.
    """
    syllables: dict[Language, dict[str, int]] = {}
    # words, sentences, syllables, complex words, characters
    counts: list[tuple[int, int, int, int, int]] = []
    for doc in docs:
        # Sentence boundaries consume only whitespace, which no token holds,
        # so the whole text tokenizes as its sentences do one by one.
        tokens = tokenize(doc.text)
        if not tokens:
            raise DataError(f"document {doc.id!r} has no words to score")
        known = syllables.setdefault(doc.language, {})
        for token in set(tokens).difference(known):
            known[token] = count_syllables(token, doc.language)
        per_token = list(map(known.__getitem__, tokens))
        counts.append(
            (
                len(tokens),
                len(sentence_split(doc.text)),
                sum(per_token),
                sum(1 for c in per_token if c >= 3),
                sum(map(len, tokens)),
            )
        )
    words, sentences, syllable_total, complex_words, chars = (
        np.array(counts, dtype=np.float64).reshape(-1, 5).T
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
