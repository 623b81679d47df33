import hashlib

import numpy as np
import pytest

from mgtdetect.corpus import Corpus, Document, Language
from mgtdetect.embeddings import (
    EmbeddingTable,
    FallbackEmbedderConfig,
    embed_corpus,
    load_embeddings,
    save_embeddings,
)
from mgtdetect.errors import ConfigError, DataError


def en_doc(text, doc_id="d"):
    return Document(id=doc_id, text=text, language=Language.EN)


def embed(doc, cfg):
    """One document's vector, embedded on its own."""
    return embed_corpus([doc], cfg)[0]


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
        # Independent reconstruction: blake2b keyed by the little-endian
        # seed, top bit is the sign, low 63 bits pick the bucket.
        cfg = FallbackEmbedderConfig(dim=16, ngram_min=2, ngram_max=2, seed=5)
        text = "abcd"
        expected = np.zeros(16)
        for gram in ("ab", "bc", "cd"):
            digest = hashlib.blake2b(
                gram.encode("utf-8"), digest_size=8,
                key=(5).to_bytes(8, "little"),
            ).digest()
            h = int.from_bytes(digest, "big")
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
