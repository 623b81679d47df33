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
from typing import Iterable, Iterator

import numpy as np

from .corpus import Corpus, Document
from .errors import ConfigError, DataError, check_settings, decode_utf8

_BUCKET_MASK = (1 << 63) - 1
# Documents are counted in blocks of about this many characters.
_BLOCK_CHARS = 1 << 15


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
    lines = decode_utf8(raw, path).splitlines()
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

    Each row is a signed hashed n-gram embedding, L2-normalized.  Texts
    shorter than ``ngram_min`` characters after whitespace normalization
    have no n-grams and map to the zero row; every other row has unit norm.

    Documents are counted in blocks of about ``_BLOCK_CHARS`` characters,
    which bounds the call's working memory; within a block each distinct
    n-gram is hashed once, and nothing is cached across calls.  Every bucket
    count and every row's sum of squares is a small integer, exact in any
    summation order, so each row equals the one built gram by gram.
    """
    key = cfg.seed.to_bytes(8, "little", signed=False)
    # Whitespace normalization keeps the embedding independent of
    # leading, trailing, or repeated whitespace.
    texts = [" ".join(doc.text.split()) for doc in corpus]
    rows = np.zeros((len(texts), cfg.dim), dtype=np.float64)
    for block in _blocks(texts, cfg.ngram_min):
        rows[block] = _gram_counts([texts[i] for i in block], cfg, key)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    np.divide(rows, norms, out=rows, where=norms > 0.0)
    return rows


def _blocks(texts: list[str], min_chars: int) -> Iterator[list[int]]:
    """Indices of the texts with at least ``min_chars`` characters, grouped
    into consecutive blocks of at most ``_BLOCK_CHARS`` characters; a
    longer text is a block of its own."""
    block: list[int] = []
    size = 0
    for i, text in enumerate(texts):
        if len(text) < min_chars:
            continue
        if block and size + len(text) > _BLOCK_CHARS:
            yield block
            block, size = [], 0
        block.append(i)
        size += len(text)
    if block:
        yield block


def _gram_counts(texts: list[str], cfg: FallbackEmbedderConfig, key: bytes) -> np.ndarray:
    """The (len(texts), dim) signed bucket counts of the texts' n-grams."""
    joined = "".join(texts)
    codes = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    doc = np.repeat(np.arange(len(texts)), [len(t) for t in texts])
    # ids[i] numbers the n-gram starting at position i of ``joined`` among
    # the distinct n-grams of the block.  Ranking (id of the (n-1)-gram,
    # rank of the next character) pairs gives the n-gram ids without a
    # limit on n or on code points; ids and ranks stay below the block's
    # length, so the int64 pair keys cannot wrap.
    alphabet, chars = np.unique(codes, return_inverse=True)
    ids = chars
    keyed = hashlib.blake2b(digest_size=8, key=key)
    counts = np.zeros(len(texts) * cfg.dim, dtype=np.float64)
    for n in range(1, cfg.ngram_max + 1):
        if n > 1:
            ids = np.unique(ids[:-1] * len(alphabet) + chars[n - 1 :], return_inverse=True)[1]
        if n < cfg.ngram_min:
            continue
        # Only windows that start and end in the same document are n-grams.
        windows = np.flatnonzero(doc[: len(ids)] == doc[n - 1 :])
        grams = ids[windows]
        # Any window of a gram spells it, whichever one the scatter keeps.
        spelled_at = np.full(len(ids), -1)
        spelled_at[grams] = windows
        distinct = np.flatnonzero(spelled_at >= 0)
        digests = bytearray()
        for i in spelled_at[distinct].tolist():
            h = keyed.copy()  # the same digest as hashing with the key anew
            h.update(joined[i : i + n].encode("utf-8"))
            digests += h.digest()
        hashes = np.frombuffer(digests, dtype=">u8")
        bucket = np.zeros(len(ids), dtype=np.int64)
        bucket[distinct] = (hashes & np.uint64(_BUCKET_MASK)) % np.uint64(cfg.dim)
        sign = np.zeros(len(ids), dtype=np.float64)
        sign[distinct] = np.where(hashes >> np.uint64(63), -1.0, 1.0)
        counts += np.bincount(
            doc[windows] * cfg.dim + bucket[grams], weights=sign[grams], minlength=len(counts)
        )
    return counts.reshape(len(texts), cfg.dim)
