import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgtdetect.corpus import Document, Language
from mgtdetect.errors import DataError
from mgtdetect.readability import (
    _LOWER_BREAK,
    _LOWER_E,
    _LOWER_ES_STRONG,
    _LOWER_L,
    _LOWERCASE_BITS,
    FEATURE_NAMES,
    _char_bits,
    fit_scaler,
    flesch_reading_ease,
    format_feature_matrix,
    gunning_fog_index,
    readability_features,
    readability_matrix,
    smog_index,
    transform,
)
from mgtdetect.textprep import count_syllables, sentence_split, tokenize
from synthdata import synthetic_corpus

TOL = 1e-9


def en_doc(text, doc_id="d"):
    return Document(id=doc_id, text=text, language=Language.EN)


def es_doc(text, doc_id="d"):
    return Document(id=doc_id, text=text, language=Language.ES)


class TestFormulas:
    """Hand-computed fixtures; syllables follow the package's own counter,
    verified by hand, and the scores were worked out independently."""

    def test_simple_english_sentence(self):
        # 6 words, 1 sentence, 6 syllables, 0 complex, 17 letters
        f = readability_features(en_doc("The cat sat on the mat."))
        assert f.words == 6
        assert f.sentences == 1
        assert f.syllables == 6
        assert f.complex_words == 0
        assert f.polysyllables == 0
        assert f.flesch == pytest.approx(116.14500000000001, abs=TOL)
        assert f.gunning_fog == pytest.approx(2.4000000000000004, abs=TOL)
        assert f.smog == pytest.approx(3.1291, abs=TOL)
        assert f.chars_per_word == pytest.approx(17 / 6, abs=TOL)
        assert f.words_per_sentence == pytest.approx(6.0, abs=TOL)

    def test_two_sentences_with_complex_words(self):
        # 6 words, 2 sentences, 11 syllables, 2 complex (beautiful x2)
        f = readability_features(en_doc("A beautiful table. It is beautiful!"))
        assert (f.words, f.sentences, f.syllables) == (6, 2, 11)
        assert f.complex_words == 2
        assert f.flesch == pytest.approx(48.690000000000026, abs=TOL)
        assert f.gunning_fog == pytest.approx(14.533333333333331, abs=TOL)
        assert f.smog == pytest.approx(8.841846274778883, abs=TOL)
        assert f.chars_per_word == pytest.approx(28 / 6, abs=TOL)

    def test_spanish_sentence(self):
        # 6 words, 1 sentence, 9 syllables, 0 complex, 22 letters
        f = readability_features(es_doc("Los gatos corren en la casa."))
        assert (f.words, f.sentences, f.syllables) == (6, 1, 9)
        assert f.complex_words == 0
        assert f.flesch == pytest.approx(73.84500000000001, abs=TOL)
        assert f.gunning_fog == pytest.approx(2.4000000000000004, abs=TOL)
        assert f.smog == pytest.approx(3.1291, abs=TOL)
        assert f.chars_per_word == pytest.approx(22 / 6, abs=TOL)

    def test_dense_academic_english(self):
        # 12 words, 3 sentences, 42 syllables, 9 complex, 107 letters
        text = (
            "The university celebrated a wonderful anniversary. "
            "Communication requires understanding. "
            "Information travels immediately."
        )
        f = readability_features(en_doc(text))
        assert (f.words, f.sentences, f.syllables) == (12, 3, 42)
        assert f.complex_words == 9
        assert f.flesch == pytest.approx(-93.32499999999996, abs=TOL)
        assert f.gunning_fog == pytest.approx(31.6, abs=TOL)
        assert f.smog == pytest.approx(13.023866798666859, abs=TOL)
        assert f.chars_per_word == pytest.approx(107 / 12, abs=TOL)

    def test_repeated_sentence_smog_closed_form(self):
        # 30 identical sentences: smog = 1.0430*sqrt(30 poly * 30/30) + 3.1291
        text = " ".join(["Dogs run beautifully."] * 30)
        f = readability_features(en_doc(text))
        assert (f.words, f.sentences, f.syllables) == (90, 30, 180)
        assert f.polysyllables == 30
        assert f.smog == pytest.approx(1.0430 * math.sqrt(30) + 3.1291, abs=TOL)
        assert f.smog == pytest.approx(8.841846274778883, abs=TOL)
        assert f.flesch == pytest.approx(34.59000000000003, abs=TOL)
        assert f.gunning_fog == pytest.approx(14.533333333333331, abs=TOL)
        assert f.chars_per_word == pytest.approx(6.0, abs=TOL)

    def test_spanish_with_accents(self):
        # 4 words, 1 sentence, 6 syllables, 12 letters
        f = readability_features(es_doc("El día es bueno."))
        assert (f.words, f.sentences, f.syllables) == (4, 1, 6)
        assert f.flesch == pytest.approx(75.87500000000001, abs=TOL)
        assert f.gunning_fog == pytest.approx(1.6, abs=TOL)
        assert f.smog == pytest.approx(3.1291, abs=TOL)
        assert f.chars_per_word == pytest.approx(3.0, abs=TOL)

    def test_formula_helpers_match_direct_arithmetic(self):
        assert flesch_reading_ease(6, 1, 6) == pytest.approx(
            206.835 - 1.015 * 6.0 - 84.6 * 1.0, abs=TOL
        )
        assert gunning_fog_index(10, 2, 3) == pytest.approx(
            0.4 * (5.0 + 100.0 * 0.3), abs=TOL
        )
        assert smog_index(30, 30) == pytest.approx(
            1.0430 * math.sqrt(30 * 30 / 30) + 3.1291, abs=TOL
        )

    def test_complex_equals_polysyllables(self):
        f = readability_features(en_doc("A beautiful table. It is beautiful!"))
        assert f.complex_words == f.polysyllables

    def test_flesch_strictly_decreases_with_syllables_per_word(self):
        scores = [
            flesch_reading_ease(100, 8, syllables)
            for syllables in range(100, 260, 10)
        ]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_duplicating_a_document_leaves_rate_scores_unchanged(self):
        # Flesch and fog are built from per-word and per-sentence rates, so
        # concatenating a text with itself cannot move them.
        text = "The cat sat on the mat. A beautiful table stands here."
        once = readability_features(en_doc(text))
        twice = readability_features(en_doc(text + " " + text))
        assert twice.words == 2 * once.words
        assert twice.sentences == 2 * once.sentences
        assert twice.flesch == pytest.approx(once.flesch, abs=1e-9)
        assert twice.gunning_fog == pytest.approx(once.gunning_fog, abs=1e-9)

    def test_wordless_document_rejected(self):
        with pytest.raises(DataError):
            readability_features(en_doc("?!"))


def per_document_row(doc):
    """Reference: one document at a time, sentence by sentence, in Python floats."""
    sentences = [tokenize(s) for s in sentence_split(doc.text)]
    tokens = [tok for sent in sentences for tok in sent]
    n_sentences = len(sentences)
    n_words = len(tokens)
    if n_words == 0 or n_sentences == 0:
        raise DataError(f"document {doc.id!r} has no words to score")
    syllable_counts = [count_syllables(tok, doc.language) for tok in tokens]
    n_syllables = sum(syllable_counts)
    n_complex = sum(1 for c in syllable_counts if c >= 3)
    row = [
        float(n_words),
        float(n_sentences),
        float(n_syllables),
        float(n_complex),
        float(n_complex),
        sum(len(t) for t in tokens) / n_words,
        n_words / n_sentences,
        206.835 - 1.015 * (n_words / n_sentences) - 84.6 * (n_syllables / n_words),
        0.4 * ((n_words / n_sentences) + 100.0 * (n_complex / n_words)),
        1.0430 * math.sqrt(n_complex * 30.0 / n_sentences) + 3.1291,
    ]
    return np.array(row, dtype=np.float64)


_WORDS = [
    "The", "cat", "beautiful", "university", "table", "rhythm", "don't",
    "stop-me", "gatos", "día", "corren", "comunicación", "país", "bueno",
    "Información", "9", "queue", "x_y", "e.g.",
]
_GAPS = [" ", " ", " ", ". ", "! ", "? ", ", ", "\n", "...", "  \t"]


@st.composite
def mixed_docs(draw):
    """Short en/es documents drawing words from one small shared pool."""
    n = draw(st.integers(0, 8))
    docs = []
    for i in range(n):
        parts = draw(
            st.lists(
                st.tuples(st.sampled_from(_WORDS), st.sampled_from(_GAPS)),
                min_size=1,
                max_size=25,
            )
        )
        text = "".join(word + gap for word, gap in parts)
        language = draw(st.sampled_from([Language.EN, Language.ES]))
        docs.append(Document(id=f"d{i}", text=text, language=language))
    return docs


class TestMatrixMatchesPerDocument:
    """Each row equals the per-document computation, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(docs=mixed_docs())
    # 4 polysyllables in 9 sentences and 3 in 14: counts where computing the
    # SMOG ratio in another order changes the score.
    @example(
        docs=[
            en_doc("Beautiful " * 4 + "end." + " A." * 8, "a"),
            en_doc("Beautiful " * 3 + "end." + " A." * 13, "b"),
        ]
    )
    def test_rows_equal_the_per_document_reference(self, docs):
        docs = [d for d in docs if tokenize(d.text)]
        matrix = readability_matrix(docs)
        assert matrix.shape == (len(docs), len(FEATURE_NAMES))
        assert matrix.dtype == np.float64
        want = np.array([per_document_row(d) for d in docs]).reshape(-1, len(FEATURE_NAMES))
        assert matrix.tobytes() == want.tobytes()
        for doc, row in zip(docs, matrix):
            assert readability_features(doc).as_vector().tobytes() == row.tobytes()

    def test_same_token_in_both_languages_counts_per_language(self):
        # The syllable counts of one token are kept apart per language:
        # "poeta" has 2 syllables by the English counter and 3 by the Spanish.
        docs = [en_doc("poeta fue", "e"), es_doc("poeta fue", "s")]
        matrix = readability_matrix(docs)
        assert matrix[:, 2].tolist() == [3.0, 4.0]

    def test_first_wordless_document_is_named(self):
        docs = [en_doc("A cat.", "ok"), en_doc("?!", "bad"), en_doc("...", "worse")]
        with pytest.raises(DataError, match="^document 'bad' has no words to score$"):
            readability_matrix(docs)


# Pieces of text for the character classes the counts tell apart: letters and
# digits in and out of the BMP (U+10400), U+0130 whose lowercase is two
# characters, the underscore that is not a token character, single, doubled
# and edge joiners, terminators before kinds of whitespace (U+001C and U+0085
# are whitespace to str.isspace but not to C's isspace), NUL and a lone
# surrogate.
_UNICODE_PIECES = [
    *"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    *"áéíóúüÁÉÍÓÚÜ", "İ", "\U00010400", "²",
    "'", "’", "-", "''", "’’", "--", "-'",
    "le", "ue", "aí", "oa", "İe", "eİ",
    ".", "!", "?",
    "\x00", "\x1c", "\x85", " ", "\u3000",
    ".\x1c", "!\x85", "? ", ".\u3000",
    "\ud800",
]


@st.composite
def unicode_docs(draw):
    """Short en/es documents over the pieces above, each with a token."""
    texts = draw(
        st.lists(
            st.lists(st.sampled_from(_UNICODE_PIECES), min_size=1, max_size=40).map("".join),
            min_size=1,
            max_size=6,
        )
    )
    languages = draw(
        st.lists(
            st.sampled_from([Language.EN, Language.ES]),
            min_size=len(texts),
            max_size=len(texts),
        )
    )
    return [
        Document(id=f"d{i}", text=text, language=language)
        for i, (text, language) in enumerate(zip(texts, languages))
        if tokenize(text)
    ]


class TestMatrixOnArbitraryUnicode:
    """Rows over any characters equal the per-document reference, bit for
    bit, in a batch and alone."""

    @settings(max_examples=300, deadline=None)
    @given(docs=unicode_docs())
    @example(docs=[en_doc("İe. aİe x-", "a"), es_doc("-İoa’’b\x00c.\x85\ud800", "b")])
    # U+0130 as the batch's last character, as a one-character token, twice
    # in a row, and between an "l" and a trailing "e" in both languages.
    @example(docs=[en_doc("a", "a"), es_doc("Hola İ", "b")])
    @example(docs=[en_doc("x İ y", "a"), es_doc("İ", "b")])
    @example(docs=[en_doc("İİ", "a"), es_doc("İİ", "b")])
    @example(docs=[en_doc("lİe", "a"), es_doc("lİe", "b")])
    def test_rows_equal_the_reference_in_a_batch_and_alone(self, docs):
        matrix = readability_matrix(docs)
        assert matrix.shape == (len(docs), len(FEATURE_NAMES))
        for doc, row in zip(docs, matrix):
            assert row.tobytes() == per_document_row(doc).tobytes()
            assert readability_matrix([doc])[0].tobytes() == row.tobytes()


class TestLowercaseOfSeveralCharacters:
    def test_only_the_first_lowercase_character_has_syllable_classes(self):
        # A code point whose lowercase has several characters has the bits of
        # the first one and breaks the vowel run after it.  That counts
        # exactly when the first character has no "e", "l" or strong vowel
        # class, which the counters would read as the last one's, and the
        # others have no syllable class at all.  Python's case data has one
        # such code point today, U+0130 -> "i" + U+0307; a newer Unicode that
        # breaks either fact fails here.
        read_as_last = _LOWER_E | _LOWER_L | _LOWER_ES_STRONG
        several = []
        for point in range(0x110000):
            lowered = chr(point).lower()
            if len(lowered) > 1:
                several.append(point)
                assert not _LOWERCASE_BITS.get(lowered[0], 0) & read_as_last, hex(point)
                assert not any(char in _LOWERCASE_BITS for char in lowered[1:]), hex(point)
                assert _char_bits(chr(point)) & _LOWER_BREAK
        assert 0x130 in several


class TestMatrixEdges:
    def test_empty_batch_is_an_empty_matrix(self):
        matrix = readability_matrix([])
        assert matrix.shape == (0, len(FEATURE_NAMES))
        assert matrix.dtype == np.float64

    def test_generator_of_documents_is_accepted(self):
        docs = [en_doc("The cat sat.", "a"), es_doc("El día es bueno.", "b")]
        rows = readability_matrix(doc for doc in docs)
        assert rows.tobytes() == readability_matrix(docs).tobytes()

    def test_lone_surrogate_and_nul_score_as_separators(self):
        # Neither is a token character nor whitespace: they split tokens but
        # not sentences, and encoding the text for counting must not fail.
        docs = [en_doc("cat\ud800dog. a\x00b", "s"), es_doc("\x00Hola mundo.\x00 Sí", "n")]
        matrix = readability_matrix(docs)
        assert matrix[:, :5].tolist() == [[4.0, 2.0, 4.0, 0.0, 0.0], [3.0, 1.0, 5.0, 0.0, 0.0]]
        for doc, row in zip(docs, matrix):
            assert row.tobytes() == per_document_row(doc).tobytes()


class TestGoldenMatrix:
    def test_synthetic_corpus_rows(self):
        # Pinned bytes of a fixed bilingual corpus's rows: any change to the
        # tokens, the sentence or syllable counts, or the formulas shows
        # here, even one that an oracle written alongside it would share.
        rows = readability_matrix(synthetic_corpus(200, 200, seed=1))
        assert rows.shape == (400, len(FEATURE_NAMES)) and rows.dtype == np.float64
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "4c87444cc48ed073ce7dce30a0b671b3a76cb50b5adfadafbfb4033d07414a70"
        )


class TestAsVector:
    def test_vector_order_matches_names(self):
        f = readability_features(en_doc("The cat sat on the mat."))
        vec = f.as_vector()
        assert FEATURE_NAMES[:5] == (
            "words",
            "sentences",
            "syllables",
            "complex_words",
            "polysyllables",
        )
        assert vec.dtype == np.float64
        assert vec.tolist() == [getattr(f, name) for name in FEATURE_NAMES]
        assert vec[0] == 6.0
        assert vec[1] == 1.0


class TestScaler:
    def test_single_column_hand_values(self):
        params = fit_scaler(np.array([[1.0], [2.0], [3.0]]))
        assert params.means[0] == pytest.approx(2.0, abs=1e-15)
        # population standard deviation, not the sample one
        assert params.stddevs[0] == pytest.approx(0.816496580927726, abs=1e-12)
        out = transform(np.array([[1.0], [2.0], [3.0]]), params)
        assert out[0, 0] == pytest.approx(-1.224744871391589, abs=1e-12)
        assert out[1, 0] == pytest.approx(0.0, abs=1e-15)
        assert out[2, 0] == pytest.approx(1.224744871391589, abs=1e-12)

    def test_matches_numpy_population_moments(self, rng):
        x = rng.normal(size=(50, 4)) * 3.0 + 1.0
        params = fit_scaler(x)
        np.testing.assert_allclose(params.means, np.mean(x, axis=0), rtol=1e-14)
        np.testing.assert_allclose(params.stddevs, np.std(x, axis=0), rtol=1e-14)

    def test_transform_standardizes(self, rng):
        x = rng.normal(size=(200, 6)) * np.array([1, 10, 100, 0.1, 5, 2.0])
        out = transform(x, fit_scaler(x))
        assert np.all(np.abs(np.mean(out, axis=0)) < 1e-10)
        assert np.all(np.abs(np.var(out, axis=0) - 1.0) < 1e-10)

    def test_constant_column_clamped_not_divided_to_nan(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out = transform(x, fit_scaler(x))
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[:, 1], np.zeros(3))

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            fit_scaler(np.array([[1.0, 2.0]]))

    def test_width_mismatch_rejected(self):
        params = fit_scaler(np.array([[1.0], [2.0]]))
        with pytest.raises(DataError):
            transform(np.array([[1.0, 2.0]]), params)


class TestMatrixFile:
    def test_format_has_id_header_first(self):
        text = format_feature_matrix(["d1"], ["f"], np.array([[1.5]]))
        assert text.splitlines()[0] == "id\tf"
        assert text.splitlines()[1] == "d1\t1.5"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            format_feature_matrix(["a"], ["f1", "f2"], np.array([[1.0]]))
