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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document
from .errors import DataError
from .textprep import count_syllables, tokenize_document

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
class FeatureVector:
    """Named, ordered real-valued features."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(self.names) != values.shape[0]:
            raise DataError(
                f"feature vector has {len(self.names)} names "
                f"but values of shape {values.shape}"
            )


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

    def as_vector(self) -> FeatureVector:
        values = np.array(
            [getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64
        )
        return FeatureVector(names=FEATURE_NAMES, values=values)


def flesch_reading_ease(words: float, sentences: float, syllables: float) -> float:
    return 206.835 - 1.015 * (words / sentences) - 84.6 * (syllables / words)


def gunning_fog_index(words: float, sentences: float, complex_words: float) -> float:
    return 0.4 * ((words / sentences) + 100.0 * (complex_words / words))


def smog_index(sentences: float, polysyllables: float) -> float:
    return 1.0430 * math.sqrt(polysyllables * 30.0 / sentences) + 3.1291


def readability_features(doc: Document) -> ReadabilityFeatures:
    """Counts and scores for one document.

    Raises on documents without any token: the ratio features would be
    degenerate, and such texts carry no readability signal anyway.
    """
    tokenized = tokenize_document(doc.text)
    tokens = tokenized.tokens
    n_sentences = len(tokenized.sentences)
    n_words = len(tokens)
    if n_words == 0 or n_sentences == 0:
        raise DataError(f"document {doc.id!r} has no words to score")
    syllable_counts = [count_syllables(tok, doc.language) for tok in tokens]
    n_syllables = sum(syllable_counts)
    n_complex = sum(1 for c in syllable_counts if c >= 3)
    return ReadabilityFeatures(
        words=float(n_words),
        sentences=float(n_sentences),
        syllables=float(n_syllables),
        complex_words=float(n_complex),
        polysyllables=float(n_complex),
        chars_per_word=sum(len(t) for t in tokens) / n_words,
        words_per_sentence=n_words / n_sentences,
        flesch=flesch_reading_ease(n_words, n_sentences, n_syllables),
        gunning_fog=gunning_fog_index(n_words, n_sentences, n_complex),
        smog=smog_index(n_sentences, n_complex),
    )


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


def _as_matrix(rows: Sequence[FeatureVector] | np.ndarray) -> np.ndarray:
    if isinstance(rows, np.ndarray):
        matrix = np.asarray(rows, dtype=np.float64)
    else:
        matrix = np.array(
            [row.values if isinstance(row, FeatureVector) else row for row in rows],
            dtype=np.float64,
        )
    if matrix.ndim != 2:
        raise DataError(f"expected a 2-d feature matrix, got shape {matrix.shape}")
    return matrix


def fit_scaler(rows: Sequence[FeatureVector] | np.ndarray) -> ScalerParams:
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


def transform(rows: Sequence[FeatureVector] | np.ndarray, params: ScalerParams) -> np.ndarray:
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
