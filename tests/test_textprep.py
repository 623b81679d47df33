import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtdetect import textprep
from mgtdetect.corpus import Language
from mgtdetect.errors import DataError
from mgtdetect.textprep import (
    count_syllables,
    preprocess,
    sentence_split,
    stem_word,
    stopwords,
    tokenize,
)


def _stem_by_table_scan(word: str, language: Language) -> str:
    """Try every rule in table order; the reference for ``stem_word``."""
    current = word
    while True:
        candidate = current
        for suffix, replacement, min_stem in textprep._stem_rules(language):
            if candidate.endswith(suffix) and len(candidate) - len(suffix) >= min_stem:
                candidate = candidate[: len(candidate) - len(suffix)] + replacement
                break
        if candidate == current:
            return current
        current = candidate


def _preprocess_by_formula(text: str, language: Language) -> str:
    """The per-document cleanup formula ``preprocess`` had before its memo."""
    sw = stopwords(language)
    tokens = [t.lower() for t in tokenize(text) if t.lower() not in sw]
    stems = (textprep._settled_stem(t, language) for t in tokens)
    return " ".join(t for t in stems if t and t not in sw)


# Words whose cleanup has edge cases: U+0130, whose lowercase is two code
# points; sharp s (U+00DF, and capital U+1E9E lowercasing to it); sigma,
# capital and final (U+03A3, U+03C2); U+2019 and hyphen joiners; digits;
# and stems that land on a stopword ("thes" -> "the").
_TRICKY_WORDS = [
    "\u0130stanbul", "\u0130", "stra\u00dfe", "STRA\u1e9eE", "\u03a3\u039f\u03a6\u039f\u03a3",
    "\u03c3\u03bf\u03c6\u03bf\u03c2", "don\u2019t", "DON\u2019T", "stop-me", "e-s", "x-s-s",
    "2023", "4x4s", "thes", "THES", "Thes", "cats", "gatos", "las", "The",
]
_CLEANUP_TEXT = st.lists(
    st.one_of(st.text(max_size=12), st.sampled_from(_TRICKY_WORDS)), max_size=12
).map(" ".join)


class TestTokenize:
    def test_keeps_internal_apostrophes_and_hyphens(self):
        assert tokenize("don't stop-me now") == ["don't", "stop-me", "now"]

    def test_drops_punctuation_and_symbols(self):
        assert tokenize("¡Hola, mundo! (test)") == ["Hola", "mundo", "test"]

    def test_underscore_is_not_a_word_character(self):
        assert tokenize("a_b c") == ["a", "b", "c"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! ... ???") == []

    def test_digits_count_as_word_characters(self):
        assert tokenize("room 101") == ["room", "101"]

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_join_then_retokenize_is_stable(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestSentenceSplit:
    def test_basic_terminators(self):
        assert sentence_split("One. Two! Three?") == ["One.", "Two!", "Three?"]

    def test_no_terminator_is_one_sentence(self):
        assert sentence_split("no ending here") == ["no ending here"]

    def test_whitespace_only_yields_nothing(self):
        assert sentence_split("   \n\t ") == []

    def test_abbreviations_split_naively(self):
        # The splitter is deliberately simple: abbreviation periods followed
        # by whitespace open a new sentence.
        assert sentence_split("e.g. Mr. Smith went.") == ["e.g.", "Mr.", "Smith went."]

    def test_terminator_without_space_does_not_split(self):
        assert sentence_split("a.b c") == ["a.b c"]


class TestTokenizeAcrossSentences:
    """Tokenizing a whole text gives its sentences' tokens, in order."""

    def test_hand_example(self):
        text = "The cat sat. It purred!"
        assert [tokenize(s) for s in sentence_split(text)] == [
            ["The", "cat", "sat"],
            ["It", "purred"],
        ]
        assert tokenize(text) == ["The", "cat", "sat", "It", "purred"]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["don't", "stop-me", "día", "a.b", "x_y", "-", "'", ".", "!", "?",
                 " ", "  ", "\n", "\t", "\u2003", "’", "e.g.", "9"]
            ),
            max_size=30,
        ).map("".join)
    )
    def test_whole_text_equals_sentence_by_sentence(self, text):
        by_sentence = [tok for s in sentence_split(text) for tok in tokenize(s)]
        assert tokenize(text) == by_sentence


class TestSyllablesEnglish:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cat", 1),
            ("the", 1),
            ("make", 1),
            ("table", 2),
            ("apple", 2),
            ("beautiful", 3),
            ("beautifully", 4),
            ("rhythm", 1),
            ("queue", 1),
            ("university", 5),
            ("strength", 1),
        ],
    )
    def test_hand_counted_words(self, word, expected):
        assert count_syllables(word, Language.EN) == expected

    def test_case_insensitive(self):
        assert count_syllables("TABLE", Language.EN) == 2

    def test_empty_word_rejected(self):
        with pytest.raises(DataError):
            count_syllables("", Language.EN)

    def test_no_vowels_still_one(self):
        assert count_syllables("zzq", Language.EN) == 1

    @settings(max_examples=200)
    @given(
        st.text(alphabet=st.characters(categories=("Ll", "Lu")), min_size=1, max_size=24),
        st.sampled_from(list(Language)),
    )
    def test_every_word_has_at_least_one_syllable(self, word, language):
        assert count_syllables(word, language) >= 1


class TestSyllablesSpanish:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("día", 2),
            ("ciudad", 2),
            ("tierra", 2),
            ("bueno", 2),
            ("león", 2),
            ("aéreo", 4),
            ("casa", 2),
            ("el", 1),
        ],
    )
    def test_hand_counted_words(self, word, expected):
        assert count_syllables(word, Language.ES) == expected

    def test_weak_vowel_glues_diphthong(self):
        # iu: two weak vowels form one nucleus
        assert count_syllables("ciu", Language.ES) == 1

    def test_two_strong_vowels_split(self):
        assert count_syllables("leo", Language.ES) == 2


class TestStopwords:
    def test_common_words_present(self):
        assert "the" in stopwords(Language.EN)
        assert "are" in stopwords(Language.EN)
        assert "los" in stopwords(Language.ES)

    def test_content_words_absent(self):
        assert "cat" not in stopwords(Language.EN)
        assert "gatos" not in stopwords(Language.ES)


class TestStemmer:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cats", "cat"),
            ("running", "run"),
            ("classes", "class"),
            ("meetings", "meet"),
            ("supposedly", "suppo"),
            ("flies", "fly"),
            ("table", "table"),
            ("class", "class"),
        ],
    )
    def test_english_stems(self, word, expected):
        assert stem_word(word, Language.EN) == expected

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("gatos", "gat"),
            ("corren", "corr"),
            ("clases", "clas"),
            ("rápidamente", "rápid"),
            ("sol", "sol"),
        ],
    )
    def test_spanish_stems(self, word, expected):
        assert stem_word(word, Language.ES) == expected

    def test_earlier_rule_wins_over_a_longer_suffix(self, monkeypatch):
        # The shipped tables list longer suffixes first, so only a table of
        # another order shows that table order, not suffix length, decides.
        rules = (("s", "", 1), ("ies", "y", 1), ("es", "", 4), ("e", "", 9))
        monkeypatch.setattr(textprep, "_stem_rules", lambda language: rules)
        textprep._stem_index.cache_clear()
        try:
            for word in ["cities", "ties", "tie", "ies", "s", "ses", "sieves"]:
                expected = _stem_by_table_scan(word, Language.EN)
                assert stem_word(word, Language.EN) == expected, word
            assert stem_word("cities", Language.EN) == "citie"
        finally:
            textprep._stem_index.cache_clear()

    def test_short_words_protected(self):
        # min-stem guards keep short words from vanishing
        assert stem_word("es", Language.ES) == "es"
        assert stem_word("as", Language.EN) == "as"

    @settings(max_examples=500, deadline=None)
    @given(
        stem=st.text(alphabet="abdeilnorsty'-áéó", max_size=8),
        suffix=st.sampled_from(
            sorted({rule[0] for lang in Language for rule in textprep._stem_rules(lang)})
        ),
        tail=st.text(alphabet="adeinosy", max_size=2),
        language=st.sampled_from([Language.EN, Language.ES]),
    )
    def test_suffix_index_matches_the_table_scan(self, stem, suffix, tail, language):
        word = stem + suffix + tail
        assert stem_word(word, language) == _stem_by_table_scan(word, language)

    @settings(max_examples=300, deadline=None)
    @given(
        word=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=14),
        language=st.sampled_from([Language.EN, Language.ES]),
    )
    def test_stemming_is_a_fixed_point(self, word, language):
        once = stem_word(word, language)
        assert stem_word(once, language) == once

    @settings(max_examples=300, deadline=None)
    @given(
        word=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=14),
        language=st.sampled_from([Language.EN, Language.ES]),
    )
    def test_stem_never_longer_than_word(self, word, language):
        assert len(stem_word(word, language)) <= len(word)


class TestPreprocess:
    def test_english_worked_example(self):
        assert preprocess("The CATS are running!", Language.EN) == "cat run"

    def test_spanish_worked_example(self):
        assert preprocess("Los gatos corren.", Language.ES) == "gat corr"

    def test_stopword_match_is_case_insensitive(self):
        assert preprocess("THE Cat", Language.EN) == "cat"

    def test_stem_collision_with_stopword_is_refiltered(self):
        # "thes" stems to "the", which the final sweep removes
        assert preprocess("thes cats", Language.EN) == "cat"

    @pytest.mark.parametrize(
        "text",
        [
            "The CATS are running!",
            "thes cats meetings",
            "Los gatos corren en la casa.",
            "¡Hola! Don't stop-me now...",
            "  odd   spacing\teverywhere  ",
        ],
    )
    @pytest.mark.parametrize("language", [Language.EN, Language.ES])
    def test_default_pipeline_is_idempotent(self, text, language):
        once = preprocess(text, language)
        assert preprocess(once, language) == once

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.text(
            alphabet="abcdefghijklmnoprstu THE.!,'-",
            min_size=0,
            max_size=60,
        )
    )
    def test_idempotence_property(self, text):
        once = preprocess(text, Language.EN)
        assert preprocess(once, Language.EN) == once

    @pytest.mark.parametrize("bound", [None, 1])
    @settings(max_examples=300, deadline=None)
    @given(text=_CLEANUP_TEXT, language=st.sampled_from([Language.EN, Language.ES]))
    def test_memo_equals_the_per_document_formula(self, bound, text, language):
        # Cold (memo cleared), then warm; with a bound of 1 the memo is
        # cleared before each new token, in the middle of the document.
        with pytest.MonkeyPatch.context() as patch:
            if bound is not None:
                patch.setattr(textprep, "_CLEANED_MAX", bound)
            expected = _preprocess_by_formula(text, language)
            for memo in textprep._cleaned.values():
                memo.clear()
            assert preprocess(text, language) == expected
            if bound is None:
                assert set(textprep._cleaned[language]) == set(tokenize(text))
            assert preprocess(text, language) == expected
            assert all(len(m) <= textprep._CLEANED_MAX for m in textprep._cleaned.values())

    def test_memo_is_per_language(self):
        # "las" is a Spanish stopword and an English word; each language's
        # memo holds what that language made of it.
        for memo in textprep._cleaned.values():
            memo.clear()
        assert preprocess("Las thes", Language.ES) == "thes"
        assert preprocess("Las thes", Language.EN) == "la"
        assert textprep._cleaned[Language.ES] == {"Las": "", "thes": "thes"}
        assert textprep._cleaned[Language.EN] == {"Las": "la", "thes": ""}

    def test_stem_cannot_strand_an_edge_separator(self):
        # "e-s" stems to "e-", which the tokenizer would re-split; output
        # tokens must already be in settled, re-tokenizable form.
        assert preprocess("E-s", Language.EN) == "e"
        assert preprocess("x-s-s", Language.EN) == "x"
