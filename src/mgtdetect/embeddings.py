"""Document embeddings: file-backed tables and a hashed fallback embedder.

Real document embeddings (for example from a pretrained transformer) are
expensive to produce and are expected to arrive via file.  The fallback
embedder is a fully offline, deterministic substitute: it feature-hashes
character n-grams into a fixed number of signed buckets and L2-normalizes
the result.  It keeps the whole pipeline runnable anywhere, at the cost of
weaker features than a learned embedding.  Features travel as matrices:
``embed_corpus`` returns one float64 row per document, in corpus order;
an ``EmbeddingTable`` is only an embedding file read into memory.

Embedding files are TSV-like: ``id<TAB>v1 v2 ... vd`` with vector
components separated by single spaces and serialized with 9 significant
digits.  A component that is not a finite number is refused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import Corpus, Document
from .errors import ConfigError, DataError, check_settings

_SIGN_BIT = 1 << 63
_BUCKET_MASK = _SIGN_BIT - 1


@dataclass
class EmbeddingTable:
    """Vectors of one fixed dimension, keyed by document id.

    ``sha256`` is the hex digest of the file the table was read from; it is
    empty for a table built in memory.
    """

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    sha256: str = ""

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise DataError(f"embedding dim must be positive, got {self.dim}")
        for doc_id, vec in self.vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.dim,):
                raise DataError(
                    f"embedding for {doc_id!r} has shape {vec.shape}, "
                    f"expected ({self.dim},)"
                )
            self.vectors[doc_id] = vec

    def get(self, doc_id: str) -> np.ndarray:
        if doc_id not in self.vectors:
            raise DataError(f"no embedding for document id {doc_id!r}")
        return self.vectors[doc_id]


def load_embeddings(path: str | Path) -> EmbeddingTable:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"embedding file not found: {path}")
    raw = path.read_bytes()
    lines = raw.decode("utf-8").splitlines()
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise DataError(f"{path}:{lineno}: expected 'id<TAB>components'")
        doc_id, payload = cells
        try:
            vec = np.array([float(v) for v in payload.split()], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric component") from exc
        if not np.isfinite(vec).all():
            raise DataError(f"{path}:{lineno}: non-finite component")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DataError(
                f"{path}:{lineno}: vector for {doc_id!r} has {vec.shape[0]} "
                f"components, expected {dim}"
            )
        if doc_id in vectors:
            raise DataError(f"{path}:{lineno}: duplicate embedding id {doc_id!r}")
        vectors[doc_id] = vec
    if dim is None:
        raise DataError(f"{path}: no vectors in embedding file")
    return EmbeddingTable(dim=dim, vectors=vectors, sha256=hashlib.sha256(raw).hexdigest())


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table with 9-significant-digit components.

    Loading what was saved reproduces values up to that serialization
    precision; a table that already went through one save/load cycle (or
    came from a file) round-trips exactly.
    """
    lines = []
    for doc_id, vec in table.vectors.items():
        lines.append(doc_id + "\t" + " ".join(format(v, ".9g") for v in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class FallbackEmbedderConfig:
    """Hashed character n-gram embedder settings."""

    dim: int = 300
    ngram_min: int = 3
    ngram_max: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self)
        if self.dim <= 0:
            raise ConfigError(f"embedder dim must be positive, got {self.dim}")
        if not (1 <= self.ngram_min <= self.ngram_max):
            raise ConfigError(
                f"bad n-gram range ({self.ngram_min}, {self.ngram_max})"
            )


def embed_corpus(corpus: Corpus | Iterable[Document], cfg: FallbackEmbedderConfig) -> np.ndarray:
    """The (n, dim) embedding rows of ``corpus``, in corpus order.

    Each row is a signed hashed n-gram embedding, L2-normalized; one seeded
    64-bit keyed n-gram hash cache serves the whole call.  Texts shorter than
    ``ngram_min`` characters after whitespace normalization have no n-grams
    and map to the zero row; every other row has unit norm.
    """
    key = cfg.seed.to_bytes(8, "little", signed=False)
    cache: dict[str, tuple[int, float]] = {}
    docs = list(corpus)
    rows = np.zeros((len(docs), cfg.dim), dtype=np.float64)
    for vec, doc in zip(rows, docs):
        # Whitespace normalization keeps the embedding independent of
        # leading, trailing, or repeated whitespace.
        normalized = " ".join(doc.text.split())
        for n in range(cfg.ngram_min, cfg.ngram_max + 1):
            for i in range(len(normalized) - n + 1):
                gram = normalized[i : i + n]
                hit = cache.get(gram)
                if hit is None:
                    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key)
                    h = int.from_bytes(digest.digest(), "big")
                    sign = -1.0 if h & _SIGN_BIT else 1.0
                    hit = cache[gram] = ((h & _BUCKET_MASK) % cfg.dim, sign)
                bucket, sign = hit
                vec[bucket] += sign
        norm = float(np.sqrt(np.dot(vec, vec)))
        if norm > 0.0:
            vec /= norm
    return rows
