import re
from collections import Counter

import numpy as np
import pytest

from mgtdetect.corpus import (
    Corpus,
    Document,
    Label,
    Language,
    SplitSpec,
    _round_half_up,
    load_tsv,
    merge_bilingual,
    save_tsv,
    split,
    summarize,
)
from mgtdetect.errors import ConfigError, DataError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestDocument:
    def test_rejects_empty_id(self):
        with pytest.raises(DataError):
            Document(id="", text="hi", language=Language.EN)

    def test_rejects_empty_text(self):
        with pytest.raises(DataError):
            Document(id="a", text="", language=Language.EN)

    def test_rejects_non_language(self):
        with pytest.raises(DataError):
            Document(id="a", text="hi", language="en")

    @pytest.mark.parametrize("label", [1, "human", True])
    def test_rejects_non_label(self, label):
        with pytest.raises(DataError, match="bad label"):
            Document(id="d1", text="text", language=Language.EN, label=label)


class TestCorpus:
    def test_rejects_duplicate_ids(self, make_doc):
        with pytest.raises(DataError, match="duplicate"):
            Corpus([make_doc("a", "one"), make_doc("a", "two")])

    def test_labels_as_ints(self, make_doc):
        corpus = Corpus(
            [
                make_doc("a", "x", label=Label.HUMAN),
                make_doc("b", "y", label=Label.GENERATED),
                make_doc("c", "z", label=Label.HUMAN),
            ]
        )
        np.testing.assert_array_equal(corpus.labels_as_ints(), [0, 1, 0])

    def test_labels_require_fully_labeled(self, make_doc):
        corpus = Corpus([make_doc("a", "x", label=Label.HUMAN), make_doc("b", "y")])
        assert not corpus.fully_labeled
        with pytest.raises(DataError):
            corpus.labels_as_ints()


class TestLoadTsv:
    def test_basic_labeled_file(self, tmp_path):
        path = write(
            tmp_path / "c.tsv",
            "id\ttext\tlabel\nd1\thello world\thuman\nd2\tbeep boop\tgenerated\n",
        )
        corpus = load_tsv(path, Language.EN)
        assert len(corpus) == 2
        assert corpus[0].id == "d1"
        assert corpus[0].label is Label.HUMAN
        assert corpus[1].label is Label.GENERATED
        assert corpus[0].language is Language.EN
        assert corpus.name == "c"

    def test_unlabeled_header(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\nd1\thello\n")
        corpus = load_tsv(path, Language.ES)
        assert corpus[0].label is None
        assert corpus[0].language is Language.ES

    def test_escapes_round_trip(self, tmp_path):
        tricky = "line one\nline two\twith tab\\backslash"
        original = Corpus(
            [Document("d1", tricky, Language.EN, Label.HUMAN)], name="c"
        )
        path = tmp_path / "c.tsv"
        save_tsv(original, path)
        loaded = load_tsv(path, Language.EN)
        assert loaded[0].text == tricky
        assert loaded[0].label is Label.HUMAN

    def test_crlf_file_loads_like_its_lf_copy(self, tmp_path):
        lf = "id\ttext\tlabel\nd1\tfirst text\thuman\nd2\tsecond\\nline\tgenerated\n"
        crlf = write(tmp_path / "crlf.tsv", lf.replace("\n", "\r\n"))
        expected = load_tsv(write(tmp_path / "lf.tsv", lf), Language.EN)
        loaded = load_tsv(crlf, Language.EN)
        assert [(d.id, d.text, d.label) for d in loaded] == [
            (d.id, d.text, d.label) for d in expected
        ]
        assert loaded[1].text == "second\nline"

    def test_unlabeled_crlf_file_keeps_no_carriage_return(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\r\nd1\tlast column\r\n")
        assert load_tsv(path, Language.EN)[0].text == "last column"

    def test_line_separator_inside_a_text_stays(self, tmp_path):
        # Only LF (or CR LF) ends a line; U+2028, U+0085 and a lone CR are text.
        text = "one\u2028two\x85three\rfour"
        path = write(tmp_path / "c.tsv", f"id\ttext\tlabel\nd1\t{text}\thuman\n")
        loaded = load_tsv(path, Language.EN)
        assert len(loaded) == 1
        assert loaded[0].text == text

    def test_raw_carriage_return_ending_the_last_column_is_a_line_end(self, tmp_path):
        # Files from before CR was escaped may hold one raw; before a LF it
        # reads as a CR LF line end, so that text loses its last CR.
        path = write(tmp_path / "c.tsv", "id\ttext\nd1\tends in CR\r\nd2\tmid\rdle\n")
        assert [d.text for d in load_tsv(path, Language.EN)] == ["ends in CR", "mid\rdle"]

    def test_carriage_return_round_trips(self, tmp_path):
        # Escaped, so that a text ending in CR is not read as a CR LF line end.
        original = Corpus([Document("d1", "ends in CR\r", Language.EN)], name="c")
        path = tmp_path / "c.tsv"
        save_tsv(original, path)
        assert b"\r" not in path.read_bytes()
        assert load_tsv(path, Language.EN)[0].text == "ends in CR\r"

    @pytest.mark.parametrize("bad_id", ["x\ty", "x\ny", "x\r\ny"])
    def test_id_the_reader_would_split_is_refused_before_writing(self, tmp_path, bad_id):
        corpus = Corpus(
            [Document("ok", "text", Language.EN), Document(bad_id, "text", Language.EN)]
        )
        path = tmp_path / "sub" / "c.tsv"
        with pytest.raises(DataError, match=re.escape(repr(bad_id))):
            save_tsv(corpus, path)
        assert not path.parent.exists()

    @pytest.mark.parametrize("bad_id", [" x", "x ", "x\r", "\u2028x", "\u3000"])
    def test_id_the_reader_would_strip_is_refused_before_writing(self, tmp_path, bad_id):
        # load_tsv strips ids, so " x" would load as "x" (or as a duplicate).
        corpus = Corpus([Document("x", "text", Language.EN), Document(bad_id, "t", Language.EN)])
        path = tmp_path / "sub" / "c.tsv"
        with pytest.raises(DataError, match=re.escape(f"{bad_id!r}: it starts or ends")):
            save_tsv(corpus, path)
        assert not path.parent.exists()

    def test_saving_onto_a_directory_is_a_data_error(self, tmp_path):
        corpus = Corpus([Document("d1", "text", Language.EN)], name="c")
        with pytest.raises(DataError, match=re.escape(f"cannot write {tmp_path}")):
            save_tsv(corpus, tmp_path)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_save_load_save_identical_bytes(self, tmp_path, make_doc):
        corpus = Corpus(
            [
                make_doc("a", "plain text", label=Label.HUMAN),
                make_doc("b", "multi\nline\ttabbed", label=Label.GENERATED),
                make_doc("c", "no label here"),
            ]
        )
        p1, p2 = tmp_path / "one.tsv", tmp_path / "two.tsv"
        save_tsv(corpus, p1)
        save_tsv(load_tsv(p1, Language.EN), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_label_field_means_unlabeled(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\tlabel\nd1\thello\t\n")
        assert load_tsv(path, Language.EN)[0].label is None

    def test_label_case_insensitive(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\tlabel\nd1\thello\tHuMaN\n")
        assert load_tsv(path, Language.EN)[0].label is Label.HUMAN

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_tsv(tmp_path / "nope.tsv", Language.EN)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes("\ufeffid\ttext\tlabel\nd1\thello\thuman\n".encode("utf-8"))
        corpus = load_tsv(path, Language.EN)
        assert [doc.id for doc in corpus] == ["d1"]
        assert corpus[0].label is Label.HUMAN

    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "c.tsv", "text\tid\nd1\thello\n")
        with pytest.raises(DataError, match=":1"):
            load_tsv(path, Language.EN)

    def test_error_cites_line_number(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\nd1\thello\nd2\n")
        with pytest.raises(DataError, match=":3"):
            load_tsv(path, Language.EN)

    def test_unknown_label_rejected(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\tlabel\nd1\thello\tmaybe\n")
        with pytest.raises(DataError, match="maybe"):
            load_tsv(path, Language.EN)

    def test_unknown_escape_rejected(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\nd1\tbad \\x escape\n")
        with pytest.raises(DataError, match="escape"):
            load_tsv(path, Language.EN)

    def test_field_ending_in_lone_backslash_rejected(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\tlabel\nd1\tends in \\\thuman\n")
        with pytest.raises(DataError, match=r"c\.tsv:2: dangling escape"):
            load_tsv(path, Language.EN)

    def test_every_escape_and_none(self, tmp_path):
        # Texts without a backslash skip the unescaping pass; each escape,
        # alone, together, and next to a cell holding none, still decodes.
        cells = {
            "plain": ("no escapes at all", "no escapes at all"),
            "n": ("a\\nb", "a\nb"),
            "r": ("a\\rb", "a\rb"),
            "t": ("a\\tb", "a\tb"),
            "backslash": ("a\\\\b", "a\\b"),
            "all": ("\\n\\r\\t\\\\n", "\n\r\t\\n"),
            "unicode": ("caf\u00e9 \U0001f600 \u2028", "caf\u00e9 \U0001f600 \u2028"),
        }
        body = "".join(f"{name}\t{cell}\n" for name, (cell, _) in cells.items())
        loaded = load_tsv(write(tmp_path / "c.tsv", "id\ttext\n" + body), Language.EN)
        assert {d.id: d.text for d in loaded} == {
            name: text for name, (_, text) in cells.items()
        }

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("bad \\x escape", ":3: unknown escape \\x"),
            ("ok \\n then \\q", ":3: unknown escape \\q"),
            ("ends in \\", ":3: dangling escape in text field"),
            ("\\", ":3: dangling escape in text field"),
        ],
    )
    def test_escape_errors_name_the_line(self, tmp_path, cell, message):
        path = write(tmp_path / "c.tsv", f"id\ttext\nd1\tplain text\nd2\t{cell}\n")
        with pytest.raises(DataError) as caught:
            load_tsv(path, Language.EN)
        assert str(caught.value) == f"{path}{message}"

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write(tmp_path / "c.tsv", "id\ttext\nd1\tone\nd1\ttwo\n")
        with pytest.raises(DataError, match="duplicate"):
            load_tsv(path, Language.EN)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path / "c.tsv", "")
        with pytest.raises(DataError):
            load_tsv(path, Language.EN)


class TestRounding:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.5, 1), (1.5, 2), (2.5, 3), (2.4, 2), (2.6, 3), (0.0, 0), (3.0, 3)],
    )
    def test_half_rounds_up(self, x, expected):
        assert _round_half_up(x) == expected


class TestSplit:
    def make_corpus(self, n, labeled=True):
        docs = [
            Document(
                f"d{i}",
                f"text number {i}",
                Language.EN,
                (Label.HUMAN if i % 2 == 0 else Label.GENERATED) if labeled else None,
            )
            for i in range(n)
        ]
        return Corpus(docs)

    def test_partition_is_disjoint_and_complete(self):
        corpus = self.make_corpus(20)
        train, val = split(corpus, SplitSpec(0.8, seed=7))
        train_ids = {d.id for d in train}
        val_ids = {d.id for d in val}
        assert train_ids & val_ids == set()
        assert train_ids | val_ids == {d.id for d in corpus}
        assert len(train) == 16

    def test_partition_property_holds_over_random_trials(self):
        rng = np.random.default_rng(202)
        for _ in range(120):
            n = int(rng.integers(2, 60))
            fraction = float(rng.uniform(0.05, 0.95))
            stratify = bool(rng.integers(0, 2)) and n >= 4
            corpus = self.make_corpus(n)
            spec = SplitSpec(fraction, seed=int(rng.integers(0, 1000)),
                             stratify_by_label=stratify)
            train, val = split(corpus, spec)
            train_ids = [d.id for d in train]
            val_ids = [d.id for d in val]
            assert len(set(train_ids)) == len(train_ids)
            assert set(train_ids) & set(val_ids) == set()
            assert sorted(train_ids + val_ids) == sorted(d.id for d in corpus)

    def test_same_seed_same_split(self):
        corpus = self.make_corpus(30)
        a = split(corpus, SplitSpec(0.7, seed=3))
        b = split(corpus, SplitSpec(0.7, seed=3))
        assert [d.id for d in a[0]] == [d.id for d in b[0]]
        assert [d.id for d in a[1]] == [d.id for d in b[1]]

    def test_different_seed_different_split(self):
        corpus = self.make_corpus(40)
        a = split(corpus, SplitSpec(0.5, seed=0))
        b = split(corpus, SplitSpec(0.5, seed=1))
        assert [d.id for d in a[0]] != [d.id for d in b[0]]

    def test_train_size_uses_half_up_rounding(self):
        corpus = self.make_corpus(5)
        train, val = split(corpus, SplitSpec(0.5, seed=0, stratify_by_label=False))
        # 5 * 0.5 = 2.5 rounds to 3
        assert len(train) == 3
        assert len(val) == 2

    def test_stratified_preserves_class_fractions(self):
        corpus = self.make_corpus(40)
        train, _ = split(corpus, SplitSpec(0.75, seed=2, stratify_by_label=True))
        labels = train.labels_as_ints()
        assert int(np.sum(labels == 0)) == 15
        assert int(np.sum(labels == 1)) == 15

    def test_stratified_requires_labels(self):
        corpus = self.make_corpus(10, labeled=False)
        with pytest.raises(DataError):
            split(corpus, SplitSpec(0.5, seed=0, stratify_by_label=True))

    def test_original_order_kept_within_parts(self):
        corpus = self.make_corpus(25)
        train, val = split(corpus, SplitSpec(0.6, seed=11))
        order = {d.id: i for i, d in enumerate(corpus)}
        train_pos = [order[d.id] for d in train]
        val_pos = [order[d.id] for d in val]
        assert train_pos == sorted(train_pos)
        assert val_pos == sorted(val_pos)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(1.0, seed=0)
        with pytest.raises(ConfigError):
            SplitSpec(0.0, seed=0)

    def test_empty_corpus_rejected(self, make_doc):
        corpus = Corpus([make_doc("a", "x")])
        only = Corpus([d for d in corpus if d.id != "a"])
        with pytest.raises(DataError):
            split(only, SplitSpec(0.5, seed=0))


class TestMergeBilingual:
    def test_ids_namespaced_by_language(self, make_doc):
        en = Corpus([make_doc("a", "hello")], name="E")
        es = Corpus([make_doc("a", "hola", language=Language.ES)], name="S")
        merged = merge_bilingual(en, es)
        assert [d.id for d in merged] == ["en:a", "es:a"]
        assert merged[0].language is Language.EN
        assert merged[1].language is Language.ES

    def test_labels_preserved(self, make_doc):
        en = Corpus([make_doc("a", "hello", label=Label.GENERATED)])
        es = Corpus([make_doc("b", "hola", language=Language.ES, label=Label.HUMAN)])
        merged = merge_bilingual(en, es)
        assert merged[0].label is Label.GENERATED
        assert merged[1].label is Label.HUMAN

    def test_merge_preserves_text_multiset_and_label_counts(self, make_doc):
        en = Corpus(
            [
                make_doc("a", "repeated text", label=Label.HUMAN),
                make_doc("b", "repeated text", label=Label.GENERATED),
                make_doc("c", "other", label=Label.HUMAN),
            ]
        )
        es = Corpus(
            [
                make_doc("a", "repeated text", language=Language.ES, label=Label.HUMAN),
                make_doc("d", "hola", language=Language.ES),
            ]
        )
        merged = merge_bilingual(en, es)
        assert sorted(d.text for d in merged) == sorted(
            d.text for c in (en, es) for d in c
        )
        assert Counter(d.label for d in merged) == Counter(
            d.label for c in (en, es) for d in c
        )


class TestSummarize:
    def test_counts_and_ratio(self, make_doc):
        corpus = Corpus(
            [
                make_doc("a", "x" * 50, label=Label.HUMAN),
                make_doc("b", "y" * 150, label=Label.GENERATED),
                make_doc("c", "z" * 250, language=Language.ES, label=Label.GENERATED),
                make_doc("d", "w" * 2500),
            ]
        )
        s = summarize(corpus)
        assert s.n_documents == 4
        assert s.per_language["en"] == {"human": 1, "generated": 1, "unlabeled": 1}
        assert s.per_language["es"] == {"human": 0, "generated": 1, "unlabeled": 0}
        assert s.class_ratio == pytest.approx(2 / 3)
        assert s.histogram_counts[0] == 1
        assert s.histogram_counts[1] == 1
        assert s.histogram_counts[2] == 1
        assert s.histogram_overflow == 1

    def test_no_labels_means_no_ratio(self, make_doc):
        s = summarize(Corpus([make_doc("a", "hi")]))
        assert s.class_ratio is None

    def test_json_shape(self, make_doc):
        s = summarize(Corpus([make_doc("a", "hi", label=Label.HUMAN)]))
        blob = s.to_json_dict()
        assert blob["length_histogram"]["bin_width"] == 100
        assert sum(blob["length_histogram"]["counts"]) == 1
