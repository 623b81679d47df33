"""Command-line workflow: subcommands, exit codes, reproducible outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgtdetect import cli
from mgtdetect.checkpoint import (
    checkpoint_text,
    decode_array,
    encode_array,
    load_checkpoint,
    save_checkpoint,
)
from mgtdetect.cli import main
from mgtdetect.corpus import Corpus, Document, Label, Language, load_tsv, merge_bilingual, save_tsv
from mgtdetect.evaluation import macro_f1
from mgtdetect.embeddings import EmbeddingTable, FallbackEmbedderConfig, save_embeddings
from mgtdetect.pipeline import build_raw_features, feature_names, load_model
from mgtdetect.readability import format_feature_matrix
from mgtdetect.textprep import preprocess

from synthdata import synthetic_corpus

FAST_CONFIG = """\
[features]
embedding_dim = 16
ngram_min = 3
ngram_max = 4

[neural]
hidden = 8
epochs = 2
batch_size = 24

[knn]
k = 5

[gbt]
estimators = 5
depths = 2
learning_rates = 0.3

[ensemble]
bases = gbt, knn
"""


def _language_slice(corpus: Corpus, language: Language, name: str) -> Corpus:
    docs = tuple(d for d in corpus if d.language is language)
    return Corpus(documents=docs, name=name)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    full = synthetic_corpus(40, 40, seed=5, name="full")
    save_tsv(_language_slice(full, Language.EN, "en"), root / "en.tsv")
    save_tsv(_language_slice(full, Language.ES, "es"), root / "es.tsv")
    small = synthetic_corpus(8, 8, seed=7, name="small")
    save_tsv(small, root / "small.tsv")
    unlabeled = synthetic_corpus(4, 4, seed=8, name="un", labeled=False)
    save_tsv(unlabeled, root / "unlabeled.tsv")
    (root / "fast.ini").write_text(FAST_CONFIG, encoding="utf-8")
    return root


def _run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def knn_checkpoint(workdir):
    path = workdir / "knn-model.json"
    code = _run(
        "train",
        "--corpus", f"en={workdir / 'en.tsv'}",
        "--config", str(workdir / "fast.ini"),
        "--model", "knn",
        "--output", str(path),
        "--log", str(workdir / "knn-train.jsonl"),
    )
    assert code == 0
    return path


class TestFeaturize:
    def test_writes_expected_matrix(self, workdir, tmp_path):
        out = tmp_path / "features.tsv"
        code = _run(
            "featurize",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--output", str(out),
        )
        assert code == 0
        corpus = load_tsv(workdir / "small.tsv", Language.EN)
        embedder = FallbackEmbedderConfig(dim=16, ngram_min=3, ngram_max=4)
        matrix = build_raw_features(corpus, embedder)
        ids = [doc.id for doc in corpus]
        assert out.read_text() == format_feature_matrix(ids, feature_names(16), matrix)
        header = out.read_text().splitlines()[0]
        assert header.split("\t") == ["id", *feature_names(16)]

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            code = _run(
                "featurize",
                "--corpus", f"en={workdir / 'small.tsv'}",
                "--config", str(workdir / "fast.ini"),
                "--output", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bilingual_merge_prefixes_ids(self, workdir, tmp_path):
        out = tmp_path / "both.tsv"
        code = _run(
            "featurize",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--corpus", f"es={workdir / 'es.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--output", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        ids = [row.split("\t")[0] for row in rows]
        assert all(doc_id.startswith(("en:", "es:")) for doc_id in ids)
        assert any(doc_id.startswith("en:") for doc_id in ids)
        assert any(doc_id.startswith("es:") for doc_id in ids)


class TestTrain:
    def test_checkpoint_loads_and_log_is_json_lines(self, workdir, knn_checkpoint):
        model = load_model(knn_checkpoint)
        assert model.kind == "knn"
        log_lines = (workdir / "knn-train.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in log_lines]
        assert any(e["event"] == "validation" for e in events)

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        artifacts = []
        for tag in ("one", "two"):
            ckpt = tmp_path / f"{tag}.json"
            log = tmp_path / f"{tag}.jsonl"
            code = _run(
                "train",
                "--corpus", f"en={workdir / 'en.tsv'}",
                "--config", str(workdir / "fast.ini"),
                "--model", "gbt",
                "--output", str(ckpt),
                "--log", str(log),
            )
            assert code == 0
            artifacts.append((ckpt.read_bytes(), log.read_bytes()))
        assert artifacts[0] == artifacts[1]

    def test_log_goes_to_stdout_without_log_flag(self, workdir, tmp_path, capsys):
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "knn",
            "--output", str(tmp_path / "m.json"),
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_seed_env_changes_the_artifact(self, workdir, tmp_path, monkeypatch):
        blobs = {}
        for seed in ("1", "1", "2"):
            monkeypatch.setenv("MGTDETECT_SEED", seed)
            ckpt = tmp_path / f"seed{seed}-{len(blobs)}.json"
            code = _run(
                "train",
                "--corpus", f"en={workdir / 'en.tsv'}",
                "--config", str(workdir / "fast.ini"),
                "--model", "knn",
                "--output", str(ckpt),
                "--log", str(tmp_path / "log.jsonl"),
            )
            assert code == 0
            blobs[ckpt.name] = ckpt.read_bytes()
        assert blobs["seed1-0.json"] == blobs["seed1-1.json"]
        assert blobs["seed1-0.json"] != blobs["seed2-2.json"]

    def test_mtl_and_vat_flags_train_a_neural_model(self, workdir, tmp_path):
        ckpt = tmp_path / "neural.json"
        log = tmp_path / "neural.jsonl"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--corpus", f"es={workdir / 'es.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "neural",
            "--mtl",
            "--vat",
            "--output", str(ckpt),
            "--log", str(log),
        )
        assert code == 0
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert any(e["event"] == "epoch" for e in events)
        assert load_model(ckpt).kind == "neural"

    def test_ensemble_end_to_end(self, workdir, tmp_path):
        ckpt = tmp_path / "ensemble.json"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--corpus", f"es={workdir / 'es.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "ensemble",
            "--output", str(ckpt),
            "--log", str(tmp_path / "log.jsonl"),
        )
        assert code == 0
        assert load_model(ckpt).kind == "ensemble"

    def test_below_chance_base_warns_on_stderr_only(self, workdir, tmp_path, capsys, monkeypatch):
        # Every document has the same text, so every model predicts one
        # class for the whole validation split: macro-F1 at most 1/3.
        docs = [
            Document(f"d{i}", "The quiet garden was full of flowers.", Language.EN,
                     Label.GENERATED if i % 2 else Label.HUMAN)
            for i in range(80)
        ]
        save_tsv(Corpus(docs), tmp_path / "same.tsv")

        def train(tag):
            log = tmp_path / f"{tag}.jsonl"
            code = _run(
                "train",
                "--corpus", f"en={tmp_path / 'same.tsv'}",
                "--config", str(workdir / "fast.ini"),
                "--model", "ensemble",
                "--output", str(tmp_path / tag),
                "--log", str(log),
            )
            assert code == 0
            return log.read_bytes(), capsys.readouterr().err.splitlines()

        log, err = train("warned")
        warnings = [line for line in err if line.startswith("warning:")]
        assert warnings == [
            f"warning: {e['model']} scores validation macro-F1 {e['macro_f1']:.4f}, "
            "at or below chance"
            for e in map(json.loads, log.decode().splitlines())
            if e["event"] == "validation"
        ]
        assert [w.split()[1] for w in warnings] == ["gbt", "knn"]
        monkeypatch.setattr(cli, "_CHANCE_MACRO_F1", -1.0)
        quiet_log, quiet_err = train("quiet")
        assert not any(line.startswith("warning:") for line in quiet_err)
        assert quiet_log == log

    def test_a_base_above_chance_does_not_warn(self, workdir, tmp_path, capsys):
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "knn",
            "--output", str(tmp_path / "m.json"),
            "--log", str(tmp_path / "log.jsonl"),
        )
        assert code == 0
        events = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert [e["macro_f1"] > 0.5 for e in events if e["event"] == "validation"] == [True]
        assert "warning:" not in capsys.readouterr().err

    def test_retrained_bundle_drops_the_files_it_no_longer_writes(
        self, workdir, tmp_path
    ):
        three = tmp_path / "three.ini"
        three.write_text(
            FAST_CONFIG.replace("bases = gbt, knn", "bases = neural, gbt, knn"),
            encoding="utf-8",
        )
        bundle = tmp_path / "bundle"

        def train(config):
            return _run(
                "train",
                "--corpus", f"en={workdir / 'en.tsv'}",
                "--corpus", f"es={workdir / 'es.tsv'}",
                "--config", str(config),
                "--model", "ensemble",
                "--output", str(bundle),
                "--log", str(tmp_path / "train.jsonl"),
            )

        assert train(three) == 0
        assert (bundle / "neural.json").is_file()
        # An earlier layout's meta-model file, and a file the layout does
        # not own.
        (bundle / "meta.json").write_text("{}", encoding="utf-8")
        (bundle / "notes.txt").write_text("kept", encoding="utf-8")
        assert train(workdir / "fast.ini") == 0
        assert sorted(p.name for p in bundle.iterdir()) == [
            "gbt.json",
            "knn.json",
            "manifest.json",
            "notes.txt",
        ]
        assert load_model(bundle).stack.base_names == ("gbt", "knn")


class TestPredict:
    def test_predictions_table_shape(self, workdir, knn_checkpoint, tmp_path):
        out = tmp_path / "preds.tsv"
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model-path", str(knn_checkpoint),
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id\tprobability\tlabel"
        corpus = load_tsv(workdir / "small.tsv", Language.EN)
        assert len(lines) == len(corpus) + 1
        for row, doc in zip(lines[1:], corpus):
            doc_id, prob, label = row.split("\t")
            assert doc_id == doc.id
            value = float(prob)
            assert 0.0 <= value <= 1.0
            assert prob == format(value, ".9g")
            assert label in ("human", "generated")

    def test_rerun_is_byte_identical(self, workdir, knn_checkpoint, tmp_path):
        blobs = []
        for name in ("p1.tsv", "p2.tsv"):
            out = tmp_path / name
            code = _run(
                "predict",
                "--corpus", f"en={workdir / 'small.tsv'}",
                "--config", str(workdir / "fast.ini"),
                "--model-path", str(knn_checkpoint),
                "--output", str(out),
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unlabeled_corpus_is_fine(self, workdir, knn_checkpoint, tmp_path):
        out = tmp_path / "preds.tsv"
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'unlabeled.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model-path", str(knn_checkpoint),
            "--output", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 9

    def test_svm_decision_past_the_exp_range_is_human(self, workdir, tmp_path):
        # exp(-decision) overflows a double below a decision of about -709.78.
        corpus = tmp_path / "twenty.tsv"
        save_tsv(synthetic_corpus(10, 10, seed=9, name="twenty"), corpus)
        ckpt = tmp_path / "svm.json"
        code = _run(
            "train", "--corpus", f"en={corpus}", "--model", "svm", "--output", str(ckpt)
        )
        assert code == 0
        kind, payload = load_checkpoint(ckpt)
        payload["model"]["bias"] = -1000.0
        save_checkpoint(ckpt, kind, payload)
        out = tmp_path / "preds.tsv"
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(ckpt),
            "--output", str(out),
        )
        assert code == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 16
        assert all(prob == "0" and label == "human" for _, prob, label in rows)


    def test_gbt_score_past_the_exp_range_is_human_without_a_warning(
        self, workdir, gbt_checkpoint, tmp_path
    ):
        # exp(-z) overflows a double below a raw score of about -709.78.  The
        # command runs in a process of its own, where a numpy warning would
        # print to stderr instead of failing the suite: stderr holds only
        # the command's own report.
        kind, payload = load_checkpoint(gbt_checkpoint)
        payload["model"].update(trees=[{"value": -1000.0}], learning_rate=1.0, base_score=0.0)
        ckpt = tmp_path / "gbt.json"
        save_checkpoint(ckpt, kind, payload)
        out = tmp_path / "preds.tsv"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = [
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(ckpt),
            "--output", str(out),
        ]
        done = subprocess.run([sys.executable, "-c", _CLI, *argv], env=env, capture_output=True)
        assert done.returncode == 0
        assert done.stderr.decode() == f"wrote 16 predictions to {out}\n"
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 16
        assert all(prob == "0" and label == "human" for _, prob, label in rows)

    def test_svm_checkpoint_with_a_huge_ngram_max_predicts(self, workdir, tmp_path):
        # No n-gram is longer than its text, so ngram_max 10**9 scores as the
        # longest text's length does, instead of trying every n up to it.
        corpus = tmp_path / "twenty.tsv"
        save_tsv(synthetic_corpus(10, 10, seed=9, name="twenty"), corpus)
        ckpt = tmp_path / "svm.json"
        code = _run(
            "train", "--corpus", f"en={corpus}", "--model", "svm", "--output", str(ckpt)
        )
        assert code == 0
        kind, payload = load_checkpoint(ckpt)
        queries = load_tsv(workdir / "small.tsv", Language.EN)
        texts = payload["model"]["support_texts"] + [
            preprocess(doc.text, doc.language) for doc in queries
        ]
        predictions = []
        for ngram_max in (10**9, max(map(len, texts))):
            payload["kernel"]["ngram_max"] = ngram_max
            save_checkpoint(ckpt, kind, payload)
            out = tmp_path / f"preds-{ngram_max}.tsv"
            code = _run(
                "predict",
                "--corpus", f"en={workdir / 'small.tsv'}",
                "--model-path", str(ckpt),
                "--output", str(out),
            )
            assert code == 0
            predictions.append(out.read_text())
        assert predictions[0] == predictions[1]


class TestEvaluate:
    def test_json_report(self, workdir, knn_checkpoint, capsys):
        code = _run(
            "evaluate",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model-path", str(knn_checkpoint),
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model"] == "knn"
        assert 0.0 <= report["macro_f1"] <= 1.0
        assert report["macro_f1_per_language"] == {"en": report["macro_f1"]}

    def test_text_report_to_file_and_stdout(self, workdir, knn_checkpoint, tmp_path, capsys):
        out = tmp_path / "report.txt"
        args = (
            "evaluate",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model-path", str(knn_checkpoint),
            "--format", "text",
        )
        assert _run(*args, "--output", str(out)) == 0
        text = out.read_text()
        assert "confusion:" in text
        # Like every other file the program writes, it ends in one newline.
        assert text.endswith("\n") and not text.endswith("\n\n")
        capsys.readouterr()
        assert _run(*args) == 0
        assert capsys.readouterr().out == text

    def test_bilingual_corpus_scores_each_language(self, workdir, tmp_path, capsys):
        model_path = tmp_path / "bilingual.json"
        corpora = ("--corpus", f"en={workdir / 'en.tsv'}", "--corpus", f"es={workdir / 'es.tsv'}")
        common = ("--config", str(workdir / "fast.ini"))
        assert _run("train", *corpora, *common, "--model", "knn", "--output", str(model_path),
                    "--log", str(tmp_path / "log.jsonl")) == 0
        assert _run("evaluate", *corpora, *common, "--model-path", str(model_path)) == 0
        report = json.loads(capsys.readouterr().out)

        corpus = merge_bilingual(load_tsv(workdir / "en.tsv", Language.EN),
                                 load_tsv(workdir / "es.tsv", Language.ES))
        model = load_model(model_path)
        y_pred = (model.predict_proba(corpus) >= model.threshold).astype(int)
        y_true = corpus.labels_as_ints()
        expected = {}
        for lang in (Language.EN, Language.ES):
            rows = [doc.language is lang for doc in corpus]
            expected[lang.value] = macro_f1(y_true[rows], y_pred[rows])
        assert report["macro_f1_per_language"] == expected
        assert report["macro_f1"] == macro_f1(y_true, y_pred)

        out = tmp_path / "report.txt"
        assert _run("evaluate", *corpora, *common, "--model-path", str(model_path),
                    "--format", "text", "--output", str(out)) == 0
        assert (
            f"macro_f1[en]={expected['en']:.4f}  macro_f1[es]={expected['es']:.4f}"
            in out.read_text().splitlines()
        )

    def test_unlabeled_corpus_is_a_data_error(self, workdir, knn_checkpoint):
        code = _run(
            "evaluate",
            "--corpus", f"en={workdir / 'unlabeled.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model-path", str(knn_checkpoint),
        )
        assert code == 2


class TestSummarize:
    def test_stdout_json(self, workdir, capsys):
        code = _run("summarize", "--corpus", f"en={workdir / 'small.tsv'}")
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_documents"] == 16

    def test_merged_counts(self, workdir, tmp_path):
        out = tmp_path / "summary.json"
        code = _run(
            "summarize",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--corpus", f"es={workdir / 'es.tsv'}",
            "--output", str(out),
        )
        assert code == 0
        summary = json.loads(out.read_text())
        en_n = len(load_tsv(workdir / "en.tsv", Language.EN))
        es_n = len(load_tsv(workdir / "es.tsv", Language.ES))
        assert summary["n_documents"] == en_n + es_n


@pytest.fixture(scope="module")
def gbt_checkpoint(workdir):
    path = workdir / "gbt-model.json"
    code = _run(
        "train",
        "--corpus", f"en={workdir / 'en.tsv'}",
        "--config", str(workdir / "fast.ini"),
        "--model", "gbt",
        "--output", str(path),
        "--log", str(workdir / "gbt-train.jsonl"),
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def svm_checkpoint(workdir):
    path = workdir / "svm-model.json"
    code = _run(
        "train",
        "--corpus", f"en={workdir / 'en.tsv'}",
        "--config", str(workdir / "fast.ini"),
        "--model", "svm",
        "--output", str(path),
        "--log", str(workdir / "svm-train.jsonl"),
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def table_knn_checkpoint(workdir):
    """A knn trained on embeddings read from a file, and its config file."""
    rng = np.random.default_rng(0)
    ids = [doc.id for doc in load_tsv(workdir / "en.tsv", Language.EN)]
    ids += [doc.id for doc in load_tsv(workdir / "small.tsv", Language.EN)]
    table = EmbeddingTable(dim=4, vectors={i: rng.normal(size=4) for i in dict.fromkeys(ids)})
    save_embeddings(table, workdir / "vectors.tsv")
    ini = workdir / "vectors.ini"
    ini.write_text(
        f"[features]\nembeddings_path = {workdir / 'vectors.tsv'}\n\n[knn]\nk = 5\n",
        encoding="utf-8",
    )
    path = workdir / "knn-vectors-model.json"
    code = _run(
        "train",
        "--corpus", f"en={workdir / 'en.tsv'}",
        "--config", str(ini),
        "--model", "knn",
        "--output", str(path),
        "--log", str(workdir / "knn-vectors-train.jsonl"),
    )
    assert code == 0
    return path, ini


def _leaves(tree: dict) -> list[dict]:
    stack, leaves = [tree], []
    while stack:
        node = stack.pop()
        if "value" in node:
            leaves.append(node)
        else:
            stack += [node["right"], node["left"]]
    return leaves


class TestExitCodes:
    def test_missing_corpus_file_is_2(self, workdir, tmp_path):
        code = _run(
            "summarize", "--corpus", f"en={tmp_path / 'missing.tsv'}"
        )
        assert code == 2

    def test_undecodable_corpus_is_2(self, tmp_path, capsys):
        raw = b"id\ttext\tlabel\nd1\tA caf\xe9 text.\thuman\n"
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(raw)
        assert _run("summarize", "--corpus", f"en={bad}") == 2
        offset = raw.index(b"\xe9")
        assert f"{bad}: not valid UTF-8 at byte {offset} " in capsys.readouterr().err

    def test_undecodable_embeddings_file_is_2(self, workdir, tmp_path, capsys):
        small = load_tsv(workdir / "small.tsv", Language.EN)
        lines = "".join(f"{doc.id}\t0.5 0.25\n" for doc in small)
        raw = lines.encode("utf-8") + b"\xff\t1 2\n"
        vectors = tmp_path / "vectors.tsv"
        vectors.write_bytes(raw)
        cfg = tmp_path / "vectors.ini"
        cfg.write_text(f"[features]\nembeddings_path = {vectors}\n", encoding="utf-8")
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(cfg),
            "--model", "knn",
            "--output", str(tmp_path / "m.json"),
        )
        assert code == 2
        offset = raw.index(b"\xff")
        assert f"{vectors}: not valid UTF-8 at byte {offset} " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_undecodable_checkpoint_is_2(self, workdir, tmp_path, capsys):
        raw = b'{"format_version": 2, "kind": "knn\xff"}\n'
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(bad),
            "--output", str(tmp_path / "p.tsv"),
        )
        assert code == 2
        offset = raw.index(b"\xff")
        assert f"{bad}: not valid UTF-8 at byte {offset} " in capsys.readouterr().err

    def test_undecodable_config_is_1(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"[knn]\nk = 5 # \xff\n")
        code = _run(
            "summarize", "--corpus", f"en={workdir / 'small.tsv'}", "--config", str(cfg)
        )
        assert code == 1
        assert f"cannot read config {cfg}" in capsys.readouterr().err

    def test_malformed_corpus_spec_is_1(self, workdir):
        assert _run("summarize", "--corpus", "en") == 1

    def test_unknown_language_is_1(self, workdir):
        assert _run("summarize", "--corpus", f"fr={workdir / 'small.tsv'}") == 1

    def test_duplicate_language_is_1(self, workdir):
        code = _run(
            "summarize",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--corpus", f"en={workdir / 'en.tsv'}",
        )
        assert code == 1

    def test_argparse_usage_error_is_1(self):
        assert _run("train") == 1

    def test_unknown_model_choice_is_1(self, workdir, tmp_path):
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model", "forest",
            "--output", str(tmp_path / "m.json"),
        )
        assert code == 1

    def test_bad_config_key_is_1(self, workdir, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[knn]\nneighbors = 3\n", encoding="utf-8")
        code = _run(
            "summarize",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(bad),
        )
        assert code == 1

    def test_negative_seed_in_file_is_1(self, workdir, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[split]\nseed = -1\n", encoding="utf-8")
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(bad),
            "--model", "knn",
            "--output", str(tmp_path / "m.json"),
        )
        assert code == 1

    def test_negative_seed_env_is_1(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("MGTDETECT_SEED", "-5")
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model", "knn",
            "--output", str(tmp_path / "m.json"),
        )
        assert code == 1

    def test_nan_learning_rate_is_1_and_writes_no_model(self, workdir, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[neural]\nlearning_rate = nan\n", encoding="utf-8")
        ckpt = tmp_path / "m.json"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(bad),
            "--model", "neural",
            "--output", str(ckpt),
        )
        assert code == 1
        assert not ckpt.exists()

    def test_diverging_neural_run_is_1_and_writes_no_model(
        self, workdir, tmp_path, capsys
    ):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            FAST_CONFIG.replace("[neural]\n", "[neural]\nlearning_rate = 1e300\n"),
            encoding="utf-8",
        )
        ckpt = tmp_path / "m.json"
        log = tmp_path / "train.jsonl"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--config", str(bad),
            "--model", "neural",
            "--output", str(ckpt),
            "--log", str(log),
        )
        assert code == 1
        assert not ckpt.exists()
        assert not log.exists()
        err = capsys.readouterr().err
        assert "diverged" in err and "[neural] learning_rate" in err
        assert "NaN" not in err

    def test_negative_gbt_rate_is_1_before_the_corpus_is_read(self, tmp_path, capsys):
        # The corpus does not exist: reading it would exit 2, not 1.
        bad = tmp_path / "bad.ini"
        bad.write_text("[gbt]\nlearning_rates = -0.5\n", encoding="utf-8")
        code = _run(
            "train",
            "--corpus", f"en={tmp_path / 'absent.tsv'}",
            "--config", str(bad),
            "--model", "gbt",
            "--output", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert "gbt learning_rates must be positive" in capsys.readouterr().err

    def test_missing_checkpoint_is_2(self, workdir, tmp_path):
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(tmp_path / "nope.json"),
            "--output", str(tmp_path / "p.tsv"),
        )
        assert code == 2

    def test_corrupt_checkpoint_is_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all", encoding="utf-8")
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(bad),
            "--output", str(tmp_path / "p.tsv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "damage", ["before_support_set", "short_support_texts", "column_dual_coef"]
    )
    def test_malformed_svm_checkpoint_is_2(self, workdir, tmp_path, damage):
        ckpt = tmp_path / "svm.json"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "svm",
            "--output", str(ckpt),
            "--log", str(tmp_path / "train.jsonl"),
        )
        assert code == 0
        kind, payload = load_checkpoint(ckpt)
        model = payload["model"]
        if damage == "before_support_set":
            # The earlier layout: training texts, alphas and +-1 labels.
            dual_coef = decode_array(model["dual_coef"], np.float64)
            model["texts"] = model.pop("support_texts")
            model["alphas"] = encode_array(np.abs(dual_coef))
            model["labels"] = encode_array(np.where(dual_coef > 0, 1.0, -1.0))
        elif damage == "column_dual_coef":
            # One coefficient a row: as many as supports, but not 1-d.
            dual_coef = decode_array(model["dual_coef"], np.float64)
            model["dual_coef"] = encode_array(dual_coef.reshape(-1, 1))
        else:
            model["support_texts"].pop()
        save_checkpoint(ckpt, kind, payload)
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(ckpt),
            "--output", str(tmp_path / "p.tsv"),
        )
        assert code == 2

    @pytest.mark.parametrize("damage", ["threshold", "scaler_stddev"])
    def test_non_finite_checkpoint_number_is_2(
        self, workdir, knn_checkpoint, tmp_path, capsys, damage
    ):
        kind, payload = load_checkpoint(knn_checkpoint)
        ckpt = tmp_path / "knn.json"
        if damage == "threshold":
            payload["threshold"] = float("nan")
            message = f"{ckpt} is not valid JSON: non-finite number NaN"
        else:
            scaler = payload["featurizer"]["scaler"]
            stddevs = decode_array(scaler["stddevs"], np.float64)
            stddevs[0] = float("nan")
            scaler["stddevs"] = encode_array(stddevs)
            message = (
                f"checkpoint {ckpt}: malformed featurizer settings: malformed "
                "scaler parameters: array holds a non-finite number"
            )
        save_checkpoint(ckpt, kind, payload)
        out = tmp_path / "p.tsv"
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(ckpt),
            "--output", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def _predict_is_2(self, workdir, ckpt, tmp_path, capsys, message):
        out = tmp_path / "p.tsv"
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(ckpt),
            "--output", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    # Stored texts were read by str(): a null support text loaded as the
    # text "None", and a null embeddings path looked for a file "None".
    @pytest.mark.parametrize("value", [None, 7, ["text"], True], ids=repr)
    @pytest.mark.parametrize(
        "field", ["support_texts[1]", "embeddings_path", "embeddings_sha256"]
    )
    def test_checkpoint_text_that_is_not_a_string_is_2(
        self, workdir, svm_checkpoint, table_knn_checkpoint, tmp_path, capsys, field, value
    ):
        ckpt = tmp_path / "model.json"
        if field == "support_texts[1]":
            kind, payload = load_checkpoint(svm_checkpoint)
            payload["model"]["support_texts"][1] = value
            where = "malformed svm model"
        else:
            kind, payload = load_checkpoint(table_knn_checkpoint[0])
            payload["featurizer"][field] = value
            where = "malformed featurizer settings"
        save_checkpoint(ckpt, kind, payload)
        message = f"checkpoint {ckpt}: {where}: {field} must be a string, got {value!r}"
        self._predict_is_2(workdir, ckpt, tmp_path, capsys, message)

    def test_overflowing_checkpoint_number_is_2(
        self, workdir, gbt_checkpoint, tmp_path, capsys
    ):
        # 1e400 is valid JSON but past the double range: it would read as inf.
        kind, payload = load_checkpoint(gbt_checkpoint)
        leaves = _leaves(payload["model"]["trees"][0])
        leaves[0]["value"], leaves[-1]["value"] = 0.123456789, -0.123456789
        text = checkpoint_text(kind, payload)
        assert text.count("0.123456789") == 2
        ckpt = tmp_path / "gbt.json"
        ckpt.write_text(text.replace("0.123456789", "1e400"), encoding="utf-8")
        message = f"{ckpt} is not valid JSON: non-finite number 1e400"
        self._predict_is_2(workdir, ckpt, tmp_path, capsys, message)

    def test_deeply_nested_checkpoint_is_2(
        self, workdir, gbt_checkpoint, tmp_path, capsys
    ):
        kind, payload = load_checkpoint(gbt_checkpoint)
        payload["model"]["trees"][0] = "DEEP"
        depth = 3000
        deep = (
            '{"feature": 0, "threshold": 0.0, "left": ' * depth
            + '{"value": 0.0}'
            + ', "right": {"value": 0.0}}' * depth
        )
        text = checkpoint_text(kind, payload)
        ckpt = tmp_path / "gbt.json"
        ckpt.write_text(text.replace('"DEEP"', deep), encoding="utf-8")
        message = f"checkpoint {ckpt} is nested too deeply"
        self._predict_is_2(workdir, ckpt, tmp_path, capsys, message)

    def test_bundle_from_before_the_meta_model_moved_is_2(self, workdir, tmp_path, capsys):
        bundle = tmp_path / "ensemble"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--corpus", f"es={workdir / 'es.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "ensemble",
            "--output", str(bundle),
            "--log", str(tmp_path / "train.jsonl"),
        )
        assert code == 0
        # The earlier layout kept the meta-model in meta.json, a gbt
        # checkpoint, and file names and base thresholds in the manifest.
        _, manifest = load_checkpoint(bundle / "manifest.json")
        names = manifest["base_names"]
        save_checkpoint(bundle / "meta.json", "gbt", {"model": manifest.pop("meta_model")})
        manifest["base_files"] = {name: f"{name}.json" for name in names}
        manifest["base_thresholds"] = [
            load_checkpoint(bundle / f"{name}.json")[1]["threshold"] for name in names
        ]
        manifest["meta_file"] = "meta.json"
        save_checkpoint(bundle / "manifest.json", "ensemble", manifest)
        capsys.readouterr()
        out = tmp_path / "p.tsv"
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(bundle),
            "--output", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert "malformed ensemble manifest: 'meta_model'" in capsys.readouterr().err

    # A feature that is not a JSON integer was read by int(): 1.5, true and
    # "0" would all have split on a column the file does not name.
    @pytest.mark.parametrize("feature", [999, -1, 1.5, True, "0"])
    def test_gbt_split_on_a_missing_column_is_2(self, workdir, tmp_path, capsys, feature):
        ckpt = tmp_path / "gbt.json"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "gbt",
            "--output", str(ckpt),
            "--log", str(tmp_path / "train.jsonl"),
        )
        assert code == 0
        kind, payload = load_checkpoint(ckpt)
        root = payload["model"]["trees"][0]
        assert "feature" in root
        root["feature"] = feature
        save_checkpoint(ckpt, kind, payload)
        capsys.readouterr()
        out = tmp_path / "p.tsv"
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(ckpt),
            "--output", str(out),
        )
        assert code == 2
        assert not out.exists()
        if type(feature) is int:
            want = f"splits on feature {feature}"
        else:
            want = f"malformed boosted-tree model: feature must be an integer, got {feature!r}"
        assert want in capsys.readouterr().err

    def test_manifest_repeating_a_base_is_2(self, workdir, tmp_path, capsys):
        bundle = tmp_path / "ensemble"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--corpus", f"es={workdir / 'es.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "ensemble",
            "--output", str(bundle),
            "--log", str(tmp_path / "train.jsonl"),
        )
        assert code == 0
        _, manifest = load_checkpoint(bundle / "manifest.json")
        assert manifest["base_names"] == ["gbt", "knn"]
        manifest["base_names"] = ["gbt", "gbt"]
        save_checkpoint(bundle / "manifest.json", "ensemble", manifest)
        capsys.readouterr()
        out = tmp_path / "p.tsv"
        code = _run(
            "predict",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model-path", str(bundle),
            "--output", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert "lists base 'gbt' more than once" in capsys.readouterr().err

    def test_non_finite_embedding_is_2_and_writes_no_model(self, workdir, tmp_path):
        small = load_tsv(workdir / "small.tsv", Language.EN)
        lines = [f"{doc.id}\t0.5 0.25" for doc in small]
        lines[3] = f"{small.documents[3].id}\t0.5 nan"
        vectors = tmp_path / "vectors.tsv"
        vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = tmp_path / "vectors.ini"
        cfg.write_text(
            f"[features]\nembeddings_path = {vectors}\n\n[knn]\nk = 5\n", encoding="utf-8"
        )
        ckpt = tmp_path / "m.json"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(cfg),
            "--model", "knn",
            "--output", str(ckpt),
        )
        assert code == 2
        assert not ckpt.exists()

    def test_unexpected_exception_is_3(self, workdir, tmp_path, monkeypatch):
        def boom(kind, corpus, cfg):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr("mgtdetect.cli.train_model", boom)
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--model", "knn",
            "--output", str(tmp_path / "m.json"),
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("featurize", "--output", "{out}"),
            ("train", "--model", "knn", "--output", "{out}"),
            ("train", "--model", "knn", "--output", "{model}", "--log", "{out}"),
            ("predict", "--model-path", "{ckpt}", "--output", "{out}"),
            ("evaluate", "--model-path", "{ckpt}", "--output", "{out}"),
            ("summarize", "--output", "{out}"),
        ],
        ids=["featurize", "train-output", "train-log", "predict", "evaluate", "summarize"],
    )
    def test_output_path_that_is_a_directory_is_2(
        self, workdir, knn_checkpoint, tmp_path, capsys, argv
    ):
        taken = tmp_path / "taken"
        taken.mkdir()
        paths = {"out": taken, "model": tmp_path / "model.json", "ckpt": knn_checkpoint}
        code = _run(
            *(arg.format(**paths) for arg in argv),
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(workdir / "fast.ini"),
        )
        assert code == 2
        assert f"data error: cannot write {taken}: " in capsys.readouterr().err
        assert taken.is_dir()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_ensemble_output_under_a_regular_file_is_2(self, workdir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep\n", encoding="utf-8")
        bundle = afile / "bundle"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'en.tsv'}",
            "--corpus", f"es={workdir / 'es.tsv'}",
            "--config", str(workdir / "fast.ini"),
            "--model", "ensemble",
            "--output", str(bundle),
        )
        assert code == 2
        assert f"data error: cannot write {bundle}: " in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "keep\n"

    def test_config_failure_leaves_no_output_files(self, workdir, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[knn]\nneighbors = 3\n", encoding="utf-8")
        ckpt = tmp_path / "model.json"
        log = tmp_path / "train.jsonl"
        features = tmp_path / "features.tsv"
        code = _run(
            "train",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(bad),
            "--model", "knn",
            "--output", str(ckpt),
            "--log", str(log),
        )
        assert code == 1
        code = _run(
            "featurize",
            "--corpus", f"en={workdir / 'small.tsv'}",
            "--config", str(bad),
            "--output", str(features),
        )
        assert code == 1
        assert not ckpt.exists()
        assert not log.exists()
        assert not features.exists()


def test_merge_matches_library_helper(workdir, tmp_path):
    en = load_tsv(workdir / "en.tsv", Language.EN)
    es = load_tsv(workdir / "es.tsv", Language.ES)
    merged = merge_bilingual(en, es)
    out = tmp_path / "summary.json"
    code = _run(
        "summarize",
        "--corpus", f"en={workdir / 'en.tsv'}",
        "--corpus", f"es={workdir / 'es.tsv'}",
        "--output", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["n_documents"] == len(merged)


REPRO_CONFIG = FAST_CONFIG.replace("bases = gbt, knn", "bases = neural, gbt, knn")
_CLI = "import sys; from mgtdetect.cli import main; sys.exit(main(sys.argv[1:]))"


class TestCrossProcessReproducibility:
    """Each run is byte-reproducible, also across processes whose str
    hashes, and so the iteration orders of sets, differ."""

    def _run_in_process(self, workdir, out, kind, hash_seed):
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(hash_seed),
            PYTHONPATH=str(Path(cli.__file__).parents[1]),
        )
        corpora = ["--corpus", f"en={workdir / 'en.tsv'}", "--corpus", f"es={workdir / 'es.tsv'}"]
        model = out / ("model" if kind == "ensemble" else "model.json")
        for argv in (
            ["train", *corpora, "--config", str(workdir / "repro.ini"), "--model", kind,
             "--output", str(model), "--log", str(out / "log.jsonl"), "--mtl", "--vat"],
            ["predict", *corpora, "--model-path", str(model),
             "--output", str(out / "predictions.tsv")],
        ):
            subprocess.run([sys.executable, "-c", _CLI, *argv], env=env, check=True,
                           capture_output=True)
        return {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()
        }

    @pytest.mark.parametrize("kind", ["ensemble", "svm"])
    def test_outputs_equal_across_hash_seeds(self, workdir, tmp_path, kind):
        (workdir / "repro.ini").write_text(REPRO_CONFIG, encoding="utf-8")
        first, second = (
            self._run_in_process(workdir, tmp_path / f"seed{seed}", kind, seed)
            for seed in (1, 2)
        )
        assert "log.jsonl" in first and "predictions.tsv" in first
        assert first == second
