"""Tokenization, sentence splitting, syllables, and kernel text cleanup.

The cleanup pipeline used before string-kernel models applies four steps in
a fixed order: punctuation removal, stopword removal, lowercasing, and
suffix-stripping stemming.  ``preprocess(text, language)`` always runs all
four; no step can be switched off.  Stopword lists and stemmer rule tables
are bundled plain-text files (UTF-8, one entry per line, ``#`` comments),
so the behavior is data-driven and versioned with the package.

Both the sentence splitter and the syllable counters are deliberately
simple, documented heuristics; they are consistent and deterministic, not
linguistically complete.  Known limitation: the sentence splitter treats
every ``.``, ``!`` or ``?`` followed by whitespace as a boundary, so
abbreviations like "e.g." or "Mr." start new sentences.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

from .corpus import Language
from .errors import DataError

# Tokens are runs of alphanumerics (any script, underscore excluded) that
# may contain internal apostrophes or hyphens: "don't", "stop-me".
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*", re.UNICODE)
_SENTENCE_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+")

_EN_VOWELS = frozenset("aeiouy")
# Spanish nuclei: strong vowels and accented weak vowels break vowel
# sequences apart, unaccented weak vowels glue into diphthongs.
_ES_VOWELS = frozenset("aeiouáéíóúü")
_ES_STRONG = frozenset("aeoáéíóú")


def sentence_split(text: str) -> list[str]:
    """Split on sentence terminators followed by whitespace.

    Text with no terminator is a single sentence.  Whitespace-only input
    yields no sentences.
    """
    stripped = text.strip()
    if not stripped:
        return []
    parts = _SENTENCE_BOUNDARY_RE.split(stripped)
    return [part for part in (p.strip() for p in parts) if part]


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def _count_syllables_en(word: str) -> int:
    runs = 0
    prev_vowel = False
    for ch in word:
        is_vowel = ch in _EN_VOWELS
        if is_vowel and not prev_vowel:
            runs += 1
        prev_vowel = is_vowel
    # Trailing silent 'e' unless the word ends in "le" ("table", "little").
    if word.endswith("e") and not word.endswith("le"):
        runs -= 1
    return max(runs, 1)


def _count_syllables_es(word: str) -> int:
    nuclei = 0
    prev: str | None = None
    for ch in word:
        if ch in _ES_VOWELS:
            if prev is None:
                nuclei += 1
            elif ch in _ES_STRONG and prev in _ES_STRONG:
                nuclei += 1  # hiatus: two strong vowels split
            prev = ch
        else:
            prev = None
    return max(nuclei, 1)


def count_syllables(word: str, language: Language) -> int:
    """Heuristic syllable count, always at least 1.

    English counts contiguous vowel runs (with 'y' as a vowel) and drops a
    trailing silent 'e' except after 'l'.  Spanish counts vowel nuclei,
    merging diphthongs of at least one unaccented weak vowel.
    """
    if not word:
        raise DataError("cannot count syllables of an empty word")
    lowered = word.lower()
    if language is Language.ES:
        return _count_syllables_es(lowered)
    return _count_syllables_en(lowered)


@lru_cache(maxsize=None)
def _data_lines(filename: str) -> tuple[str, ...]:
    raw = (resources.files(__package__) / "data" / filename).read_text("utf-8")
    lines = []
    for line in raw.split("\n"):
        entry = line.strip()
        if entry and not entry.startswith("#"):
            lines.append(entry)
    return tuple(lines)


@lru_cache(maxsize=None)
def stopwords(language: Language) -> frozenset[str]:
    return frozenset(_data_lines(f"stopwords_{language.value}.txt"))


@lru_cache(maxsize=None)
def _stem_rules(language: Language) -> tuple[tuple[str, str, int], ...]:
    rules = []
    for entry in _data_lines(f"stem_rules_{language.value}.txt"):
        fields = entry.split("|")
        if len(fields) != 3:
            raise DataError(f"bad stemmer rule {entry!r}")
        suffix, replacement, min_stem = fields
        rules.append((suffix, replacement, int(min_stem)))
    return tuple(rules)


@lru_cache(maxsize=None)
def _stem_index(
    language: Language,
) -> tuple[tuple[int, ...], dict[str, tuple[tuple[int, str, int], ...]]]:
    """The rule table keyed by suffix, and the suffix lengths it holds.

    Each suffix maps to its rules as ``(table position, replacement,
    min_stem)`` in table order; the lengths are ascending.
    """
    by_suffix: dict[str, list[tuple[int, str, int]]] = {}
    for position, (suffix, replacement, min_stem) in enumerate(_stem_rules(language)):
        by_suffix.setdefault(suffix, []).append((position, replacement, min_stem))
    lengths = tuple(sorted({len(suffix) for suffix in by_suffix}))
    return lengths, {suffix: tuple(rules) for suffix, rules in by_suffix.items()}


def stem_word(word: str, language: Language) -> str:
    """Suffix-stripping stem; repeated application is a fixed point.

    Rules are applied first-match in table order, then the word is rescanned
    until no rule changes it.  Rules are written for lowercase words; tokens
    that match no rule pass through unchanged.  The first match is found by
    looking up the word's ending of each suffix length in the table, not by
    trying every rule.
    """
    lengths, by_suffix = _stem_index(language)
    current = word
    while True:
        n = len(current)
        first = None  # (table position, suffix length, replacement)
        for length in lengths:
            if length > n:
                break
            for position, replacement, min_stem in by_suffix.get(current[n - length :], ()):
                if n - length >= min_stem:
                    if first is None or position < first[0]:
                        first = (position, length, replacement)
                    break
        if first is None:
            return current
        candidate = current[: n - first[1]] + first[2]
        if candidate == current:
            return current
        current = candidate


def _settled_stem(token: str, language: Language) -> str:
    # Stripping a suffix can strand a separator at the token edge ("e-s"
    # stems to "e-"), which the tokenizer would not emit; trim and re-stem
    # until stable so a second pipeline pass sees identical tokens.
    current = token
    while True:
        candidate = stem_word(current, language).strip("'’-")
        if candidate == current:
            return current
        current = candidate


def preprocess(text: str, language: Language) -> str:
    """Cleanup pipeline; output tokens are rejoined with single spaces.

    Steps run in order: punctuation removal (via the tokenizer), stopword
    removal (case-insensitive match), lowercasing, stemming.  Because a stem
    can collide with a stopword ("thes" stems to "the"), stemmed output is
    filtered against the stopword list once more; that final sweep is what
    makes the whole pipeline idempotent.
    """
    sw = stopwords(language)
    tokens = [t.lower() for t in tokenize(text) if t.lower() not in sw]
    stems = (_settled_stem(t, language) for t in tokens)
    return " ".join(t for t in stems if t and t not in sw)
