"""Document corpora: loading, validation, splitting, merging, summarizing.

A corpus is an ordered collection of documents with unique ids.  Documents
carry a language tag (English or Spanish) and an optional binary label
telling whether the text was written by a human or generated by a machine.

The on-disk format is TSV with a header row.  Columns are ``id`` and
``text``, plus an optional trailing ``label`` column.  Text fields escape
newlines as ``\\n``, tabs as ``\\t`` and backslashes as ``\\\\`` so that one
record is always one line.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .checkpoint import atomic_write_text
from .errors import ConfigError, DataError, check_id_cell, check_settings, decode_lines

HISTOGRAM_BIN_WIDTH = 100
HISTOGRAM_UPPER = 2000


class Language(Enum):
    EN = "en"
    ES = "es"

    # Members are singletons, so identity is their equality.  Enum's own
    # __hash__ is a Python-level call, and the stemmer hashes a language
    # for every word it stems (its rule tables are cached per language).
    __hash__ = object.__hash__


class Label(Enum):
    HUMAN = "human"
    GENERATED = "generated"


@dataclass(frozen=True)
class Document:
    """One text with its language tag and optional gold label."""

    id: str
    text: str
    language: Language
    label: Label | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("document id must be nonempty")
        if not self.text:
            raise DataError(f"document {self.id!r}: text must be nonempty")
        if not isinstance(self.language, Language):
            raise DataError(f"document {self.id!r}: bad language {self.language!r}")
        if self.label is not None and not isinstance(self.label, Label):
            raise DataError(f"document {self.id!r}: bad label {self.label!r}")


class Corpus:
    """Ordered, duplicate-free collection of documents."""

    def __init__(self, documents: Iterable[Document], name: str = "corpus"):
        docs = tuple(documents)
        seen: set[str] = set()
        for doc in docs:
            if doc.id in seen:
                raise DataError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
        self.documents = docs
        self.name = name

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __getitem__(self, i: int) -> Document:
        return self.documents[i]

    @property
    def fully_labeled(self) -> bool:
        return all(doc.label is not None for doc in self.documents)

    def labels_as_ints(self) -> np.ndarray:
        """Gold labels as a 0/1 vector, 1 meaning machine generated."""
        if not self.fully_labeled:
            raise DataError(f"corpus {self.name!r} has unlabeled documents")
        return np.array(
            [1 if d.label is Label.GENERATED else 0 for d in self.documents],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class SplitSpec:
    """How to cut a corpus into train and validation parts."""

    train_fraction: float
    seed: int
    stratify_by_label: bool = False

    def __post_init__(self) -> None:
        check_settings(self)
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction!r}"
            )


_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)
_UNESCAPED = {"n": "\n", "r": "\r", "t": "\t", "\\": "\\"}


def _unescape(value: str, path: str, lineno: int) -> str:
    # Every escape starts with a backslash, so a cell without one is its
    # own text; the test is far cheaper than a regex pass that finds nothing.
    if "\\" not in value:
        return value

    def replace(match: re.Match) -> str:
        code = match.group(1)
        if not code:
            raise DataError(f"{path}:{lineno}: dangling escape in text field")
        if code not in _UNESCAPED:
            raise DataError(f"{path}:{lineno}: unknown escape \\{code}")
        return _UNESCAPED[code]

    return _ESCAPE.sub(replace, value)


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


_LABEL_VALUES = {label.value: label for label in Label}


def _parse_label(raw: str, path: str, lineno: int) -> Label | None:
    stripped = raw.strip()
    if not stripped:
        return None
    label = _LABEL_VALUES.get(stripped.lower())
    if label is None:
        raise DataError(
            f"{path}:{lineno}: unknown label {raw!r} "
            f"(expected one of {sorted(_LABEL_VALUES)})"
        )
    return label


def load_tsv(path: str | Path, language: Language) -> Corpus:
    """Read a corpus file; every document gets the given language tag.

    The header must be exactly ``id<TAB>text`` or ``id<TAB>text<TAB>label``.
    Labels parse case-insensitively; an empty label field means unlabeled.
    Lines end in LF or CR LF.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"corpus file not found: {path}")
    lines = decode_lines(path.read_bytes(), path)
    if not lines:
        raise DataError(f"{path}: empty corpus file")
    header = lines[0].split("\t")
    if header not in (["id", "text"], ["id", "text", "label"]):
        raise DataError(
            f"{path}:1: bad header {lines[0]!r} "
            "(expected 'id\\ttext' or 'id\\ttext\\tlabel')"
        )
    has_label = len(header) == 3
    docs: list[Document] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split("\t")
        if len(cols) != len(header):
            raise DataError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cols)}"
            )
        doc_id = cols[0].strip()
        if not doc_id:
            raise DataError(f"{path}:{lineno}: empty document id")
        body = _unescape(cols[1], str(path), lineno)
        if not body:
            raise DataError(f"{path}:{lineno}: empty text for document {doc_id!r}")
        label = _parse_label(cols[2], str(path), lineno) if has_label else None
        docs.append(Document(doc_id, body, language, label))
    try:
        return Corpus(docs, name=path.stem)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_tsv(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus, atomically, in the TSV format read by :func:`load_tsv`.

    Ids are not escaped: an id holding a TAB or LF, or starting or ending
    with whitespace, is a :class:`DataError`, raised before anything is
    written.
    """
    any_label = any(doc.label is not None for doc in corpus)
    rows = ["id\ttext\tlabel" if any_label else "id\ttext"]
    for doc in corpus:
        check_id_cell(doc.id, path)
        cells = [doc.id, _escape(doc.text)]
        if any_label:
            cells.append(doc.label.value if doc.label is not None else "")
        rows.append("\t".join(cells))
    atomic_write_text(path, "\n".join(rows) + "\n")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Deterministic seeded split into (train, validation).

    The two parts are disjoint and their union is the input.  With
    ``stratify_by_label`` the per-class train fractions are preserved within
    one document per class; stratification requires a fully labeled corpus.
    Selected documents keep their original corpus order.
    """
    n = len(corpus)
    if n == 0:
        raise DataError("cannot split an empty corpus")
    rng = np.random.default_rng(spec.seed)
    if spec.stratify_by_label:
        if not corpus.fully_labeled:
            raise DataError("stratified split requires a fully labeled corpus")
        train_idx: list[int] = []
        for label in Label:
            class_idx = [i for i, d in enumerate(corpus) if d.label is label]
            perm = rng.permutation(len(class_idx))
            take = _round_half_up(spec.train_fraction * len(class_idx))
            train_idx.extend(class_idx[j] for j in perm[:take])
    else:
        perm = rng.permutation(n)
        take = _round_half_up(spec.train_fraction * n)
        train_idx = list(perm[:take])
    chosen = set(train_idx)
    train_docs = [corpus[i] for i in sorted(chosen)]
    val_docs = [corpus[i] for i in range(n) if i not in chosen]
    return (
        Corpus(train_docs, name=f"{corpus.name}/train"),
        Corpus(val_docs, name=f"{corpus.name}/val"),
    )


def merge_bilingual(en: Corpus, es: Corpus) -> Corpus:
    """Concatenate two corpora, namespacing ids by each document's language.

    A document with id ``x`` becomes ``en:x`` or ``es:x``, so id collisions
    across the two inputs are harmless.  Language tags are preserved.
    """
    docs = [
        Document(f"{doc.language.value}:{doc.id}", doc.text, doc.language, doc.label)
        for source in (en, es)
        for doc in source
    ]
    return Corpus(docs, name=f"{en.name}+{es.name}")


@dataclass(frozen=True)
class CorpusSummary:
    """Counts and a text-length histogram for one corpus."""

    name: str
    n_documents: int
    per_language: dict[str, dict[str, int]]
    class_ratio: float | None
    histogram_counts: tuple[int, ...] = field(default=())
    histogram_overflow: int = 0

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "n_documents": self.n_documents,
            "per_language": self.per_language,
            "class_ratio": self.class_ratio,
            "length_histogram": {
                "bin_width": HISTOGRAM_BIN_WIDTH,
                "upper": HISTOGRAM_UPPER,
                "counts": list(self.histogram_counts),
                "overflow": self.histogram_overflow,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2)


def summarize(corpus: Corpus) -> CorpusSummary:
    """Per-language label counts, class balance, and char-length histogram.

    Histogram bins are ``[0, 100), [100, 200), ...`` up to 2000 characters,
    with a final overflow bin for longer documents.  The class ratio is the
    generated fraction among labeled documents, or None when none carry a
    label.
    """
    per_language = {
        lang.value: {"human": 0, "generated": 0, "unlabeled": 0}
        for lang in Language
    }
    n_bins = HISTOGRAM_UPPER // HISTOGRAM_BIN_WIDTH
    counts = [0] * n_bins
    overflow = 0
    for doc in corpus:
        bucket = per_language[doc.language.value]
        if doc.label is None:
            bucket["unlabeled"] += 1
        else:
            bucket[doc.label.value] += 1
        length = len(doc.text)
        if length >= HISTOGRAM_UPPER:
            overflow += 1
        else:
            counts[length // HISTOGRAM_BIN_WIDTH] += 1
    n_human = sum(per_language[k]["human"] for k in per_language)
    n_generated = sum(per_language[k]["generated"] for k in per_language)
    labeled = n_human + n_generated
    ratio = (n_generated / labeled) if labeled else None
    return CorpusSummary(
        name=corpus.name,
        n_documents=len(corpus),
        per_language=per_language,
        class_ratio=ratio,
        histogram_counts=tuple(counts),
        histogram_overflow=overflow,
    )
