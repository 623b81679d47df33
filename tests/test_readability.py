import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgtdetect.corpus import Document, Language
from mgtdetect.errors import DataError
from mgtdetect.readability import (
    FEATURE_NAMES,
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
        with pytest.raises(DataError, match="'bad' has no words"):
            readability_matrix(docs)


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
