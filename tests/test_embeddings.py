import hashlib
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtdetect import embeddings
from mgtdetect.corpus import Corpus, Document, Language
from mgtdetect.embeddings import (
    EmbeddingTable,
    FallbackEmbedderConfig,
    chain_start,
    code_points,
    embed_corpus,
    load_embeddings,
    save_embeddings,
    window_levels,
)
from mgtdetect.errors import ConfigError, DataError

from synthdata import synthetic_corpus


def en_doc(text, doc_id="d"):
    return Document(id=doc_id, text=text, language=Language.EN)


def embed(doc, cfg):
    """One document's vector, embedded on its own."""
    return embed_corpus([doc], cfg)[0]


_SIGN_BIT = 1 << 63
_BUCKET_MASK = _SIGN_BIT - 1
_MASK_64 = (1 << 64) - 1


def splitmix64(z):
    """The splitmix64 finalizer on a Python int, mod 2**64."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK_64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK_64
    return z ^ (z >> 31)


def chain_hash(units, seed):
    """A gram's keyed chain hash: h0 = mix(seed), hk = mix(h(k-1) ^ uk)."""
    h = splitmix64(seed)
    for unit in units:
        h = splitmix64(h ^ unit)
    return h


def gram_hash(gram, seed):
    return chain_hash(map(ord, gram), seed)


def bucket_and_sign(gram, seed, dim):
    h = gram_hash(gram, seed)
    return (h & _BUCKET_MASK) % dim, -1.0 if h & _SIGN_BIT else 1.0


def reference_embed_corpus(corpus, cfg):
    """The embedder built gram by gram, one hash per occurrence through a
    cache: the oracle that ``embed_corpus`` must match bit for bit."""
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
                    hit = cache[gram] = bucket_and_sign(gram, cfg.seed, cfg.dim)
                bucket, sign = hit
                vec[bucket] += sign
        norm = float(np.sqrt(np.dot(vec, vec)))
        if norm > 0.0:
            vec /= norm
    return rows


# ASCII, Spanish accents, CJK, astral-plane emoji and letters, combining
# marks, and whitespace that str.split() folds (tab, newline, NBSP, ideographic),
# then any character a UTF-8 corpus file can hold (no lone surrogates).
_CHARS = list("abcab Zz09.,") + list("áéíóúñü¿¡") + list("漢字日本語") + [
    "\U0001F600", "\U0001F680", "\U0001D538", "\u0301", "\u0308",
    "\t", "\n", "\xa0", "\u3000", "  ", "\t\n\xa0 ",
]
_texts = st.lists(
    st.one_of(st.sampled_from(_CHARS), st.characters(codec="utf-8")), min_size=1, max_size=40
).map("".join)
_configs = st.integers(1, 6).flatmap(
    lambda lo: st.builds(
        FallbackEmbedderConfig,
        dim=st.integers(1, 64),
        ngram_min=st.just(lo),
        ngram_max=st.integers(lo, 6),
        seed=st.sampled_from([0, 2**64 - 1]),
    )
)


def en_docs(texts):
    return [en_doc(text, f"d{i}") for i, text in enumerate(texts)]


class TestMatchesGramByGramReference:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(_texts, max_size=8),
        cfg=_configs,
        block_chars=st.sampled_from([1, 2, 5, 17, 64, embeddings._BLOCK_CHARS]),
    )
    def test_bit_identical(self, texts, cfg, block_chars):
        # Small block caps make corpora cross block boundaries: documents
        # straddle a boundary and single documents exceed a whole block.
        docs = en_docs(texts)
        with mock.patch.object(embeddings, "_BLOCK_CHARS", block_chars):
            rows = embed_corpus(docs, cfg)
        assert rows.shape == (len(docs), cfg.dim)
        assert rows.tobytes() == reference_embed_corpus(docs, cfg).tobytes()

    def test_bit_identical_across_real_blocks(self):
        # One document longer than a block, and a run of documents whose
        # total crosses the cap so that one of them straddles it.
        cap = embeddings._BLOCK_CHARS
        rng = np.random.default_rng(3)
        words = ["garden", "jardín", "río", "漢字", "\U0001F600", "e\u0301", "mañana"]
        texts = [" ".join(rng.choice(words, size=cap // 4)), "short"]
        texts += [" ".join(rng.choice(words, size=400)) for _ in range(30)]
        assert len(texts[0]) > cap and sum(map(len, texts)) > 2 * cap
        cfg = FallbackEmbedderConfig(dim=64)
        docs = en_docs(texts)
        assert embed_corpus(docs, cfg).tobytes() == reference_embed_corpus(docs, cfg).tobytes()


# Code-point texts: NUL, a lone surrogate and an astral code point among
# them, and the empty text.
_unit_texts = st.lists(
    st.sampled_from(["a", "b", "ab", "\x00", "\ud800", "\U0001F600", " "]), max_size=12
).map("".join)
# Word-id texts: any uint32 ids, few of them distinct.
_id_texts = st.lists(
    st.sampled_from([0, 1, 7, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1), max_size=12
)


class TestWindowLevels:
    """Each level's chain hashes equal a scalar reference's, window by window."""

    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.one_of(
            st.lists(_unit_texts.map(lambda t: [ord(c) for c in t]), max_size=5),
            st.lists(_id_texts, max_size=5),
        ),
        lo=st.integers(1, 4),
        extra=st.integers(0, 14) | st.just(10**9),
        seed=st.sampled_from([0, 1, 2**64 - 1]),
    )
    def test_equals_scalar_reference(self, texts, lo, extra, seed):
        hi = lo + extra
        joined = [unit for text in texts for unit in text]
        text_of = [t for t, text in enumerate(texts) for _ in text]
        units = np.array(joined, dtype=np.uint32)
        lengths = [len(text) for text in texts]
        levels = list(window_levels(units, lengths, lo, hi, chain_start(seed)))
        # One level per n up to the longest text, whatever hi is.
        longest = max(lengths, default=0)
        assert len(levels) == len(range(lo, min(hi, longest) + 1))
        for n, (hashes, inside) in enumerate(levels, start=lo):
            windows = range(len(joined) - n + 1)
            assert hashes.dtype == np.uint64
            assert hashes.tolist() == [chain_hash(joined[i : i + n], seed) for i in windows]
            expected_inside = [text_of[i] == text_of[i + n - 1] for i in windows]
            if inside is None:
                assert len(texts) == 1
                assert all(expected_inside)
            else:
                assert inside.tolist() == expected_inside

    def test_code_points_of_lone_surrogate_nul_and_astral(self):
        texts = ["a\x00", "", "\ud800\U0001F600"]
        assert code_points(texts).tolist() == [0x61, 0, 0xD800, 0x1F600]
        assert code_points([]).tolist() == []


class TestGoldenEmbedding:
    def test_synthetic_corpus_rows(self):
        # Pinned bytes of a fixed bilingual corpus's rows: any change to the
        # hash, the bucket, the sign, the counting or the normalization shows
        # here, even one that an oracle written alongside it would share.
        rows = embed_corpus(synthetic_corpus(200, 200, seed=1), FallbackEmbedderConfig())
        assert rows.shape == (400, 300) and rows.dtype == np.float64
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "9dea8160cd9748cf40b939841f69990bf4db4a2be733fe4fbde525c1e59c6258"
        )


class TestGramHash:
    def test_splitmix64_reference_outputs(self):
        # The first two outputs of splitmix64 from state 0, as published
        # with the generator: its finalizer's constants and shifts.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4

    # (seed, gram, bucket at dim 300, sign): ASCII, precomposed and
    # combining accents, and astral-plane code points.
    GOLDEN = [
        (0, "the", 181, 1.0),
        (0, "ni\xf1o", 111, -1.0),
        (0, "\xe9", 53, 1.0),
        (0, "e\u0301", 89, 1.0),
        (0, "\U0001F600", 100, -1.0),
        (0, "a\U0001D538b", 120, -1.0),
        (2**64 - 1, "the", 102, -1.0),
        (2**64 - 1, "ni\xf1o", 172, -1.0),
        (2**64 - 1, "\xe9", 85, 1.0),
        (2**64 - 1, "e\u0301", 83, 1.0),
        (2**64 - 1, "\U0001F600", 112, 1.0),
        (2**64 - 1, "a\U0001D538b", 118, 1.0),
    ]

    @pytest.mark.parametrize("seed, gram, bucket, sign", GOLDEN)
    def test_golden_bucket_and_sign(self, seed, gram, bucket, sign):
        assert bucket_and_sign(gram, seed, 300) == (bucket, sign)
        cfg = FallbackEmbedderConfig(dim=300, ngram_min=len(gram), ngram_max=len(gram), seed=seed)
        expected = np.zeros(300)
        expected[bucket] = sign
        assert embed(en_doc(gram), cfg).tobytes() == expected.tobytes()


class TestFallbackEmbedder:
    def test_unit_norm(self):
        cfg = FallbackEmbedderConfig(dim=64)
        vec = embed(en_doc("The cat sat on the mat."), cfg)
        assert vec.shape == (64,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_across_calls(self):
        cfg = FallbackEmbedderConfig(dim=128, seed=9)
        doc = en_doc("Some moderately long sentence for hashing.")
        np.testing.assert_array_equal(embed(doc, cfg), embed(doc, cfg))

    def test_seed_changes_embedding(self):
        doc = en_doc("Identical text, different hash keys.")
        a = embed(doc, FallbackEmbedderConfig(dim=64, seed=0))
        b = embed(doc, FallbackEmbedderConfig(dim=64, seed=1))
        assert not np.array_equal(a, b)

    def test_matches_manual_hash_construction(self):
        # Independent reconstruction: the chain over each gram's code points
        # keyed by the seed; the top bit is the sign, the low 63 bits pick
        # the bucket.
        cfg = FallbackEmbedderConfig(dim=16, ngram_min=2, ngram_max=2, seed=5)
        text = "abcd"
        expected = np.zeros(16)
        for gram in ("ab", "bc", "cd"):
            h = splitmix64(splitmix64(splitmix64(5) ^ ord(gram[0])) ^ ord(gram[1]))
            sign = -1.0 if h & (1 << 63) else 1.0
            expected[(h & ((1 << 63) - 1)) % 16] += sign
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(embed(en_doc(text), cfg), expected, atol=1e-15)

    def test_short_text_is_zero_vector(self):
        cfg = FallbackEmbedderConfig(dim=32, ngram_min=3, ngram_max=5)
        vec = embed(en_doc("hi"), cfg)
        np.testing.assert_array_equal(vec, np.zeros(32))

    def test_whitespace_insensitive(self):
        cfg = FallbackEmbedderConfig(dim=64)
        a = embed(en_doc("hello   world"), cfg)
        b = embed(en_doc("  hello world  "), cfg)
        np.testing.assert_array_equal(a, b)

    def test_different_texts_differ(self):
        cfg = FallbackEmbedderConfig(dim=300)
        a = embed(en_doc("The cat sat on the mat today."), cfg)
        b = embed(en_doc("Quantum flux harmonics oscillate."), cfg)
        assert not np.array_equal(a, b)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            FallbackEmbedderConfig(dim=0)
        with pytest.raises(ConfigError):
            FallbackEmbedderConfig(ngram_min=4, ngram_max=3)
        with pytest.raises(ConfigError):
            FallbackEmbedderConfig(ngram_min=0)

    def test_ngram_max_past_the_longest_text_costs_nothing(self):
        # No n-gram is longer than the longest text, so a huge ngram_max is
        # the same embedder as ngram_max = that length.  Hashing stops there:
        # a level loop up to ngram_max would never return.
        docs = en_docs(["abcdefghijklmnopqrstuvwxyz", "hola mundo", "ab"])
        real_mix, calls = embeddings._mix, []

        def mix(z):
            calls.append(len(z))
            assert len(calls) < 100, "hashed levels past the longest text"
            return real_mix(z)

        start = time.perf_counter()
        with mock.patch.object(embeddings, "_mix", mix):
            rows = embed_corpus(docs, FallbackEmbedderConfig(dim=64, ngram_max=10**9))
        assert time.perf_counter() - start < 0.5
        exact = embed_corpus(docs, FallbackEmbedderConfig(dim=64, ngram_max=26))
        assert rows.tobytes() == exact.tobytes()

    def test_empty_corpus_has_no_rows(self):
        rows = embed_corpus([], FallbackEmbedderConfig(dim=12))
        assert rows.shape == (0, 12)
        assert rows.dtype == np.float64

    def test_whitespace_only_documents_are_zero_rows(self):
        # Documents hold nonempty text, but whitespace-only text normalizes
        # to "", which must not read as one zero code point.
        cfg = FallbackEmbedderConfig(dim=8, ngram_min=1, ngram_max=2)
        rows = embed_corpus(en_docs([" ", "\t\n", "\xa0\u3000"]), cfg)
        np.testing.assert_array_equal(rows, np.zeros((3, 8)))

    def test_embed_corpus_matches_single_docs(self):
        cfg = FallbackEmbedderConfig(dim=50)
        docs = [en_doc("first document text", "a"), en_doc("second document text", "b")]
        rows = embed_corpus(Corpus(docs), cfg)
        assert rows.shape == (2, 50)
        assert rows.dtype == np.float64
        for row, doc in zip(rows, docs):
            np.testing.assert_array_equal(row, embed(doc, cfg))


class TestEmbeddingTable:
    def test_missing_id_raises(self):
        table = EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 0.0])})
        with pytest.raises(DataError, match="no embedding"):
            table.get("b")

    def test_ragged_vectors_rejected(self):
        with pytest.raises(DataError):
            EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 2.0, 3.0])})

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(DataError):
            EmbeddingTable(dim=0)


class TestEmbeddingFiles:
    def test_save_then_load_identity_after_one_cycle(self, tmp_path, rng):
        # First save may shave digits; a second cycle reproduces exactly.
        table = EmbeddingTable(
            dim=4, vectors={f"d{i}": rng.normal(size=4) for i in range(5)}
        )
        p1 = tmp_path / "one.tsv"
        save_embeddings(table, p1)
        loaded = load_embeddings(p1)
        np.testing.assert_allclose(
            loaded.get("d0"), table.get("d0"), rtol=1e-8
        )
        p2 = tmp_path / "two.tsv"
        save_embeddings(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        reloaded = load_embeddings(p2)
        for key in loaded.vectors:
            np.testing.assert_array_equal(reloaded.get(key), loaded.get(key))

    def test_file_origin_round_trips_exactly(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("a\t0.5 -0.25 0.125\nb\t1 2 3\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dim == 3
        np.testing.assert_array_equal(table.get("a"), [0.5, -0.25, 0.125])
        out = tmp_path / "o.tsv"
        save_embeddings(table, out)
        np.testing.assert_array_equal(load_embeddings(out).get("a"), table.get("a"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "e.tsv"
        raw = "\ufeffd1\t1 2\nd2\t3 4\n".encode("utf-8")
        path.write_bytes(raw)
        table = load_embeddings(path)
        assert list(table.vectors) == ["d1", "d2"]
        np.testing.assert_array_equal(table.get("d1"), [1.0, 2.0])
        # The digest pins the file as it is, mark included.
        assert table.sha256 == hashlib.sha256(raw).hexdigest()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_embeddings(tmp_path / "nope.tsv")

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("a\t1 2 3\nb\t1 2\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_embeddings(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("a\t1 2\na\t3 4\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_embeddings(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("a\t1 x\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-numeric"):
            load_embeddings(path)

    @pytest.mark.parametrize("component", ["nan", "inf", "-Infinity"])
    def test_non_finite_rejected(self, tmp_path, component):
        path = tmp_path / "e.tsv"
        path.write_text(f"a\t1 2\nb\t1 {component}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"e\.tsv:2: non-finite"):
            load_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_embeddings(path)

    def test_ids_with_line_separators_round_trip(self, tmp_path):
        # Only LF (or CR LF) ends a line, as in a corpus file: U+2028, U+0085
        # and U+001C belong to the id that holds them.
        ids = ["a\u2028b", "c\x85d", "e\x1cf"]
        table = EmbeddingTable(dim=2, vectors={i: np.array([1.0, -0.5]) for i in ids})
        path = tmp_path / "e.tsv"
        save_embeddings(table, path)
        assert list(load_embeddings(path).vectors) == ids
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        loaded = load_embeddings(crlf)
        assert list(loaded.vectors) == ids
        np.testing.assert_array_equal(loaded.get(ids[1]), [1.0, -0.5])

    @pytest.mark.parametrize("bad_id", ["a\tb", "c\nd"])
    def test_id_the_reader_would_split_is_refused_before_writing(self, tmp_path, bad_id):
        table = EmbeddingTable(dim=1, vectors={"ok": np.array([1.0]), bad_id: np.array([2.0])})
        path = tmp_path / "sub" / "e.tsv"
        with pytest.raises(DataError, match=re.escape(repr(bad_id))):
            save_embeddings(table, path)
        assert not path.parent.exists()

    @pytest.mark.parametrize("bad_id", [" a", "a ", "\u00a0a"])
    def test_id_a_corpus_reader_would_strip_is_refused_before_writing(self, tmp_path, bad_id):
        # The corpus reader strips ids, so such an id could never match a document.
        table = EmbeddingTable(dim=1, vectors={"a": np.array([1.0]), bad_id: np.array([2.0])})
        path = tmp_path / "sub" / "e.tsv"
        with pytest.raises(DataError, match=re.escape(f"{bad_id!r}: it starts or ends")):
            save_embeddings(table, path)
        assert not path.parent.exists()

    def test_saving_onto_a_directory_is_a_data_error(self, tmp_path):
        table = EmbeddingTable(dim=1, vectors={"a": np.array([1.0])})
        with pytest.raises(DataError, match=re.escape(f"cannot write {tmp_path}")):
            save_embeddings(table, tmp_path)
        assert list(tmp_path.rglob("*.tmp")) == []
