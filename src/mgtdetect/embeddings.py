"""Document embeddings: file-backed tables and a hashed fallback embedder.

Real document embeddings (for example from a pretrained transformer) are
expensive to produce and are expected to arrive via file.  The fallback
embedder is a fully offline, deterministic substitute: it feature-hashes
character n-grams into a fixed number of signed buckets and L2-normalizes
the result.  A gram's hash is a splitmix64 chain over its code points,
keyed by the seed (``GRAM_HASH`` names it; see ``gram_counts``): feature
hashing needs a well-mixed 64-bit hash, not a cryptographic one, and this
one gives the hashes of every window of one length from those of the
windows one shorter in a single array expression (``window_levels``, which
the string kernel hashes with too).  The embedder keeps the whole pipeline
runnable anywhere, at the cost of weaker features than a learned embedding.
Features travel as matrices: ``gram_counts`` returns one row of integer
bucket counts per document, in corpus order, ``normalize_counts`` turns
counts into float64 rows, and ``embed_corpus`` is the two in turn.
Documents are counted in blocks, each in one count pass: the windows of
every length in the block are hashed a length at a time, and a single
``np.bincount`` of their (document, bucket) slots, weighted by their
signs, gives the block's counts.  The counts are what a fitted kNN
checkpoint stores (see ``pipeline``): one or two bytes a bucket where the
normalized row takes eight.  An ``EmbeddingTable`` is only an embedding
file read into memory.

Embedding files are TSV-like: ``id<TAB>v1 v2 ... vd`` with vector
components separated by single spaces and serialized with 9 significant
digits.  Lines end in LF or CR LF; other line separators belong to the id.
A component that is not a finite number is refused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, Document
from .checkpoint import atomic_write_text
from .errors import ConfigError, DataError, check_id_cell, check_settings, decode_lines

# The name a checkpoint stores for the n-gram hash below; a model trained
# on features of another hash is refused.
GRAM_HASH = "splitmix64-chain"
# The splitmix64 finalizer's constants (Steele, Lea & Flood, OOPSLA 2014).
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(k) for k in (27, 30, 31))
_BUCKET_MASK = np.uint64((1 << 63) - 1)
_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.float64(1.0).view(np.uint64)  # the bits of the float64 1.0
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
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(decode_lines(raw, path), start=1):
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
    came from a file) round-trips exactly.  The file is written atomically.
    Ids are not escaped: an id holding a TAB or LF, or starting or ending
    with whitespace, is a :class:`DataError`, raised before anything is
    written, as :func:`corpus.save_tsv` refuses it.
    """
    lines = []
    for doc_id, vec in table.vectors.items():
        check_id_cell(doc_id, path)
        lines.append(doc_id + "\t" + " ".join(format(v, ".9g") for v in vec))
    atomic_write_text(path, "\n".join(lines) + "\n")


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
    """The (n, dim) embedding rows of ``corpus``, in corpus order:
    ``normalize_counts(gram_counts(corpus, cfg))``.

    Each row is a signed hashed n-gram embedding, L2-normalized.  Texts
    shorter than ``ngram_min`` characters after whitespace normalization
    have no n-grams and map to the zero row; every other row has unit norm.
    """
    return normalize_counts(gram_counts(corpus, cfg))


def gram_counts(corpus: Corpus | Iterable[Document], cfg: FallbackEmbedderConfig) -> np.ndarray:
    """The (n, dim) int64 signed bucket counts of ``corpus``'s n-grams, in
    corpus order.

    A gram of code points c1..cn hashes as a keyed splitmix64 chain:
    ``h0 = mix(seed)``, ``hk = mix(h(k-1) ^ ck)``, all mod 2**64, where
    ``mix`` is the splitmix64 finalizer.  The top bit of ``hn`` is the sign,
    and its low 63 bits modulo ``dim`` pick the bucket.

    Documents are counted in blocks of about ``_BLOCK_CHARS`` characters, so
    the call's working memory is bounded by the larger of the block and the
    longest document.  Within a block ``window_levels`` hashes every window,
    and no length past the longest document is tried; then one weighted
    ``np.bincount`` counts the windows of every length at once, into one
    slot per (document, bucket), with a window across two documents
    weighted 0.  Every count is a sum of integers, exact in any order, so
    the counts do not depend on the blocks.  Nothing is cached across calls.
    """
    # Whitespace normalization keeps the embedding independent of
    # leading, trailing, or repeated whitespace.
    texts = [" ".join(doc.text.split()) for doc in corpus]
    counts = np.zeros((len(texts), cfg.dim), dtype=np.int64)
    h0 = chain_start(cfg.seed)
    for block in _blocks([len(text) for text in texts], cfg.ngram_min, _BLOCK_CHARS):
        counts[block] = _gram_counts([texts[i] for i in block], cfg, h0)
    return counts


def normalize_counts(counts: np.ndarray) -> np.ndarray:
    """Integer bucket counts as float64 rows of unit L2 norm; a zero row stays
    zero.  Every count and every row's sum of squares is a small integer,
    exact in any summation order, so each row equals the one built gram by
    gram, whatever integer width holds the counts."""
    rows = counts.astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    np.divide(rows, norms, out=rows, where=norms > 0.0)
    return rows


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each element of a uint64 array.

    The steps run in place on one fresh array, never on the caller's.
    Array arithmetic wraps mod 2**64 without a warning; numpy scalars would
    warn on overflow, so callers pass arrays.
    """
    z = z + _GOLDEN_GAMMA
    shifted = z >> _SHIFT_30
    z ^= shifted
    z *= _MIX_1
    np.right_shift(z, _SHIFT_27, out=shifted)
    z ^= shifted
    z *= _MIX_2
    np.right_shift(z, _SHIFT_31, out=shifted)
    z ^= shifted
    return z


def code_points(texts: Sequence[str]) -> np.ndarray:
    """The texts' code points joined, as uint32, lone surrogates included."""
    return np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")


def chain_start(seed: int) -> np.ndarray:
    """``h0 = mix(seed)``, the chain hash of the empty gram, as an array."""
    return _mix(np.array([seed], dtype=np.uint64))


def text_index(lengths: Sequence[int]) -> np.ndarray:
    """The index of the text each unit belongs to, for texts of ``lengths``
    units joined in one array."""
    return np.repeat(np.arange(len(lengths)), lengths)


def window_levels(
    units: np.ndarray,
    lengths: Sequence[int],
    lo: int,
    hi: int,
    h0: np.ndarray,
    doc: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """``(hashes, inside)`` for each n from ``lo`` to ``hi``, or to the longest
    text, of the texts of ``lengths`` units joined in ``units``: ``hashes[i]``
    chains the n units at i from ``h0``, one step on from the n - 1 units',
    and ``inside`` marks the windows inside one text (None for one text).
    ``doc`` is ``text_index(lengths)``, built once by the caller, which
    needs it too."""
    units = units.astype(np.uint64)  # uint64 ^ uint32 casts on every level
    # A window lies inside one text when its first and last units do.
    if len(lengths) < 2:
        doc = None
    hashes = _mix(h0 ^ units)
    for n in range(1, min(hi, max(lengths, default=0)) + 1):
        if n > 1:
            hashes = _mix(hashes[:-1] ^ units[n - 1 :])
        if n >= lo:
            yield hashes, None if doc is None else doc[: len(hashes)] == doc[n - 1 :]


def _blocks(sizes: Sequence[int], min_size: int, budget: int) -> Iterator[list[int]]:
    """Indices of the texts with at least ``min_size`` units (characters, or
    another unit the caller counts), grouped into consecutive blocks of at
    most ``budget`` units; a longer text is a block of its own."""
    block: list[int] = []
    total = 0
    for i, size in enumerate(sizes):
        if size < min_size:
            continue
        if block and total + size > budget:
            yield block
            block, total = [], 0
        block.append(i)
        total += size
    if block:
        yield block


def _gram_counts(texts: list[str], cfg: FallbackEmbedderConfig, h0: np.ndarray) -> np.ndarray:
    """The (len(texts), dim) signed bucket counts of the texts' n-grams,
    counted in one pass over the windows of every length."""
    lengths = [len(t) for t in texts]
    doc = text_index(lengths)
    levels = list(
        window_levels(code_points(texts), lengths, cfg.ngram_min, cfg.ngram_max, h0, doc)
    )
    grams = np.concatenate([hashes for hashes, _ in levels])
    # Each window's weight is the float64 +1.0 or -1.0 whose sign bit is the
    # hash's top bit, or 0.0 for a window across two texts.
    sign = grams & _SIGN_BIT
    sign |= _ONE_BITS
    if len(texts) > 1:
        sign *= np.concatenate([inside for _, inside in levels])
    # Its slot is its text's row start plus its bucket, the low 63 bits
    # modulo dim (by floor division: % is slower on uint64).
    row = doc * cfg.dim
    keys = np.concatenate([row[: len(hashes)] for hashes, _ in levels])
    grams &= _BUCKET_MASK
    dim = np.uint64(cfg.dim)
    grams -= grams // dim * dim
    keys += grams.view(np.int64)
    counts = np.bincount(keys, weights=sign.view(np.float64), minlength=len(texts) * cfg.dim)
    return counts.reshape(len(texts), cfg.dim)
