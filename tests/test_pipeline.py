"""End-to-end wiring: feature assembly, training dispatch, model checkpoints."""

import dataclasses
import functools
import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtdetect import pipeline
from mgtdetect.checkpoint import decode_array, encode_array, load_checkpoint, save_checkpoint
from mgtdetect.config import AppConfig, EnsembleSettings
from mgtdetect.corpus import Corpus, Document, Language, SplitSpec, split
from mgtdetect.embeddings import (
    EmbeddingTable,
    FallbackEmbedderConfig,
    embed_corpus,
    save_embeddings,
)
from mgtdetect.ensemble import select_threshold
from mgtdetect.errors import ConfigError, DataError
from mgtdetect.neural import TrainConfig
from mgtdetect.pipeline import (
    build_raw_features,
    feature_names,
    fit_featurizer,
    load_model,
    save_model,
    train_model,
)
from mgtdetect.readability import FEATURE_NAMES, readability_features
from mgtdetect.shallow import GbtGrid
from mgtdetect.textprep import preprocess

from synthdata import synthetic_corpus

SMALL_EMBEDDER = FallbackEmbedderConfig(dim=16, ngram_min=3, ngram_max=4, seed=0)

# Payload keys of each base kind, in checkpoint order (before "threshold").
PAYLOAD_KEYS = {
    "neural": ("params", "featurizer"),
    "gbt": ("model", "featurizer"),
    "knn": ("model", "featurizer"),
    "svm": ("model", "kernel"),
}


def fast_config() -> AppConfig:
    return dataclasses.replace(
        AppConfig(),
        embedder=SMALL_EMBEDDER,
        train=TrainConfig(epochs=2, batch_size=24, seed=0),
        hidden=8,
        gbt_grid=GbtGrid(estimators=(5,), depths=(2,), learning_rates=(0.3,)),
        knn_k=5,
        ensemble=EnsembleSettings(bases=("gbt", "knn")),
    )


def hashed_table(corpus) -> EmbeddingTable:
    """The hashed embeddings of ``corpus`` as an id-keyed table."""
    rows = embed_corpus(corpus, SMALL_EMBEDDER)
    return EmbeddingTable(SMALL_EMBEDDER.dim, {doc.id: row for doc, row in zip(corpus, rows)})


@pytest.fixture(scope="module")
def base_corpus():
    return synthetic_corpus(30, 30, seed=3, name="base")


@pytest.fixture(scope="module")
def wide_corpus():
    return synthetic_corpus(60, 60, seed=4, name="wide")


class TestFeatureNames:
    def test_readability_block_comes_first(self):
        names = feature_names(3)
        assert names[: len(FEATURE_NAMES)] == FEATURE_NAMES
        assert names[len(FEATURE_NAMES) :] == ("emb_0", "emb_1", "emb_2")

    def test_width_tracks_embedding_dim(self):
        assert len(feature_names(16)) == len(FEATURE_NAMES) + 16


class TestBuildRawFeatures:
    def test_one_row_per_document_and_column_name(self, base_corpus):
        matrix = build_raw_features(base_corpus, embedder=SMALL_EMBEDDER)
        assert matrix.shape == (len(base_corpus), len(feature_names(SMALL_EMBEDDER.dim)))
        assert matrix.dtype == np.float64

    def test_rows_concatenate_readability_and_embedding(self, base_corpus):
        matrix = build_raw_features(base_corpus, embedder=SMALL_EMBEDDER)
        rows = embed_corpus(base_corpus, SMALL_EMBEDDER)
        for i, doc in enumerate(base_corpus):
            stats = readability_features(doc).as_vector()
            emb = rows[i]
            np.testing.assert_array_equal(matrix[i, : len(stats)], stats)
            np.testing.assert_array_equal(matrix[i, len(stats) :], emb)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_raw_features(Corpus(documents=()), embedder=SMALL_EMBEDDER)

    def test_precomputed_table_overrides_hashing(self, base_corpus):
        table = hashed_table(base_corpus)
        scaled = EmbeddingTable(
            dim=table.dim,
            vectors={doc_id: vec * 2.0 for doc_id, vec in table.vectors.items()},
        )
        matrix = build_raw_features(
            base_corpus, embedder=SMALL_EMBEDDER, table=scaled
        )
        first = next(iter(base_corpus))
        expected = table.get(first.id) * 2.0
        np.testing.assert_array_equal(matrix[0, len(FEATURE_NAMES) :], expected)


class TestFeaturizer:
    def test_training_features_are_standardized(self, base_corpus):
        cfg = fast_config()
        featurizer, _, _ = fit_featurizer(base_corpus, cfg)
        feats = featurizer.features(base_corpus)
        raw = build_raw_features(base_corpus, embedder=cfg.embedder)
        means = feats.mean(axis=0)
        assert np.all(np.abs(means) < 1e-10)
        moving = raw.std(axis=0) > 0
        variances = feats.var(axis=0)
        assert np.all(np.abs(variances[moving] - 1.0) < 1e-10)
        assert np.all(feats[:, ~moving] == 0.0)

    def test_fit_returns_the_scaled_training_rows(self, base_corpus):
        featurizer, rows, _ = fit_featurizer(base_corpus, fast_config())
        assert rows.tobytes() == featurizer.features(base_corpus).tobytes()

    def test_transform_matches_manual_scaling(self, base_corpus):
        cfg = fast_config()
        featurizer, _, _ = fit_featurizer(base_corpus, cfg)
        probe = synthetic_corpus(4, 4, seed=9, name="probe")
        feats = featurizer.features(probe)
        raw = build_raw_features(probe, embedder=cfg.embedder)
        scaler = featurizer.scaler
        manual = (raw - scaler.means) / np.where(scaler.stddevs == 0, 1.0, scaler.stddevs)
        np.testing.assert_array_equal(feats, manual)

    def test_embeddings_file_backs_the_featurizer(self, base_corpus, tmp_path):
        table = hashed_table(base_corpus)
        path = tmp_path / "vectors.tsv"
        save_embeddings(table, path)
        cfg = dataclasses.replace(fast_config(), embeddings_path=str(path))
        featurizer, _, _ = fit_featurizer(base_corpus, cfg)
        feats = featurizer.features(base_corpus)
        assert feats.shape == (len(base_corpus), len(FEATURE_NAMES) + SMALL_EMBEDDER.dim)

    def test_embeddings_file_missing_document_rejected(self, base_corpus, tmp_path):
        docs = list(base_corpus)
        table = hashed_table(Corpus(documents=tuple(docs[:10])))
        path = tmp_path / "partial.tsv"
        save_embeddings(table, path)
        cfg = dataclasses.replace(fast_config(), embeddings_path=str(path))
        with pytest.raises(DataError, match="no embedding"):
            fit_featurizer(base_corpus, cfg)

    def test_checkpoint_pins_the_embeddings_file(self, base_corpus, tmp_path):
        table = hashed_table(base_corpus)
        vectors = tmp_path / "vectors.tsv"
        save_embeddings(table, vectors)
        cfg = dataclasses.replace(fast_config(), embeddings_path=str(vectors))
        model, _ = train_model("knn", base_corpus, cfg)
        path = tmp_path / "knn.json"
        save_model(model, path)
        _, payload = load_checkpoint(path)
        digest = hashlib.sha256(vectors.read_bytes()).hexdigest()
        assert payload["featurizer"]["embeddings_sha256"] == digest

        loaded = load_model(path)
        np.testing.assert_array_equal(
            loaded.predict_proba(base_corpus), model.predict_proba(base_corpus)
        )
        resaved = tmp_path / "again.json"
        save_model(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

        del payload["featurizer"]["embeddings_sha256"]
        save_checkpoint(resaved, "knn", payload)
        with pytest.raises(DataError, match="malformed featurizer"):
            load_model(resaved)

        first = next(iter(base_corpus)).id
        table.vectors[first] = -table.vectors[first]
        save_embeddings(table, vectors)
        with pytest.raises(DataError, match="vectors.tsv"):
            load_model(path)

    def test_no_digest_without_an_embeddings_file(self, base_corpus, tmp_path):
        model, _ = train_model("knn", base_corpus, fast_config())
        path = tmp_path / "knn.json"
        save_model(model, path)
        _, payload = load_checkpoint(path)
        assert list(payload["featurizer"]) == ["embedder", "hash", "embeddings_path", "scaler"]


# English and Spanish documents, and texts shorter than SMALL_EMBEDDER's
# ngram_min, which embed as the zero row.
_POOL = (
    *synthetic_corpus(5, 5, seed=11, name="pool"),
    Document(id="s0", text="hi", language=Language.EN),
    Document(id="s1", text="sí", language=Language.ES),
    Document(id="s2", text=" a  ", language=Language.EN),
)


@functools.cache
def pool_featurizer():
    """A featurizer fitted once, and each pool document's row featurized alone."""
    featurizer, _, _ = fit_featurizer(synthetic_corpus(20, 20, seed=5), fast_config())
    alone = {doc.id: featurizer.features(Corpus([doc])).tobytes() for doc in _POOL}
    return featurizer, alone


class TestFeaturizerBatchInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        order=st.lists(st.sampled_from(range(len(_POOL))), min_size=1, unique=True),
        cuts=st.sets(st.integers(1, len(_POOL) - 1)),
    )
    def test_rows_do_not_depend_on_the_batch(self, order, cuts):
        # A document's row is the same alone, at any place in any corpus,
        # and in any split of that corpus into calls.
        featurizer, alone = pool_featurizer()
        docs = [_POOL[i] for i in order]
        bounds = [0, *sorted(c for c in cuts if c < len(docs)), len(docs)]
        whole = featurizer.features(Corpus(docs))
        parts = np.vstack(
            [featurizer.features(Corpus(docs[a:b])) for a, b in zip(bounds, bounds[1:])]
        )
        for doc, row, part in zip(docs, whole, parts):
            assert row.tobytes() == part.tobytes() == alone[doc.id]


class TestTrainModel:
    @pytest.mark.parametrize("kind", ["neural", "gbt", "knn", "svm"])
    def test_base_kinds_train_and_predict(self, base_corpus, kind):
        model, log = train_model(kind, base_corpus, fast_config())
        assert model.kind == kind
        assert model.threshold == 0.5
        probs = model.predict_proba(base_corpus)
        assert probs.shape == (len(base_corpus),)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        validations = [e for e in log if e["event"] == "validation"]
        assert len(validations) == 1
        assert validations[0]["model"] == kind
        assert 0.0 <= validations[0]["macro_f1"] <= 1.0

    def test_neural_log_reports_epochs(self, base_corpus):
        _, log = train_model("neural", base_corpus, fast_config())
        epochs = [e for e in log if e["event"] == "epoch"]
        assert epochs
        assert all(
            list(e) == ["event", "model", "epoch", "train_loss", "val_loss"] for e in epochs
        )

    def test_gbt_log_reports_grid_choice(self, base_corpus):
        _, log = train_model("gbt", base_corpus, fast_config())
        chosen = [e for e in log if e["event"] == "grid_selected"]
        assert len(chosen) == 1
        assert chosen[0]["n_estimators"] == 5

    @pytest.mark.parametrize("kind", ["neural", "gbt", "knn", "svm"])
    def test_training_is_deterministic(self, base_corpus, kind):
        first, _ = train_model(kind, base_corpus, fast_config())
        second, _ = train_model(kind, base_corpus, fast_config())
        np.testing.assert_array_equal(
            first.predict_proba(base_corpus), second.predict_proba(base_corpus)
        )

    def test_unknown_kind_rejected(self, base_corpus):
        with pytest.raises(ConfigError, match="unknown model kind"):
            train_model("forest", base_corpus, fast_config())

    def test_unlabeled_corpus_rejected(self):
        unlabeled = synthetic_corpus(5, 5, seed=1, name="u", labeled=False)
        with pytest.raises(DataError):
            train_model("knn", unlabeled, fast_config())


class TestTrainedModelRecord:
    """A fitted detector is its bases by kind, their preparations and an optional stack."""

    @pytest.mark.parametrize("kind", ["neural", "gbt", "knn", "svm", "ensemble"])
    def test_base_probas_are_kept_by_save_and_load(self, wide_corpus, tmp_path, kind):
        bases = ("neural", "gbt", "knn", "svm")
        cfg = dataclasses.replace(fast_config(), ensemble=EnsembleSettings(bases=bases))
        model, _ = train_model(kind, wide_corpus, cfg)
        assert model.kind == kind
        kinds = bases if kind == "ensemble" else (kind,)
        assert tuple(model.models) == kinds
        # One entry per preparation key the bases read, in first-use order.
        assert list(model.preps) == list(dict.fromkeys(PAYLOAD_KEYS[k][1] for k in kinds))
        probas = model.base_probas(wide_corpus)
        assert tuple(probas) == kinds
        if kind != "ensemble":
            assert model.predict_proba(wide_corpus).tobytes() == probas[kind].tobytes()
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.kind == kind
        assert list(loaded.preps) == list(model.preps)
        reloaded = loaded.base_probas(wide_corpus)
        assert tuple(reloaded) == kinds
        for name in kinds:
            assert reloaded[name].tobytes() == probas[name].tobytes(), name


class TestModelCheckpoints:
    @pytest.mark.parametrize("kind", ["neural", "gbt", "knn", "svm"])
    def test_round_trip_preserves_predictions(self, base_corpus, tmp_path, kind):
        model, _ = train_model(kind, base_corpus, fast_config())
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        assert loaded.threshold == model.threshold
        np.testing.assert_array_equal(
            loaded.predict_proba(base_corpus), model.predict_proba(base_corpus)
        )

    def test_save_is_byte_stable(self, base_corpus, tmp_path):
        model, _ = train_model("knn", base_corpus, fast_config())
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("kind", ["neural", "gbt", "knn", "svm"])
    def test_payload_missing_model_key_rejected(self, base_corpus, tmp_path, kind):
        model_key, prep_key = PAYLOAD_KEYS[kind]
        model, _ = train_model(kind, base_corpus, fast_config())
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        _, payload = load_checkpoint(path)
        assert list(payload) == [model_key, prep_key, "threshold"]
        del payload[model_key]
        save_checkpoint(path, kind, payload)
        with pytest.raises(DataError, match="missing"):
            load_model(path)

    def test_payload_missing_threshold_rejected(self, base_corpus, tmp_path):
        model, _ = train_model("knn", base_corpus, fast_config())
        path = tmp_path / "knn.json"
        save_model(model, path)
        _, payload = load_checkpoint(path)
        del payload["threshold"]
        save_checkpoint(path, "knn", payload)
        with pytest.raises(DataError, match="missing 'threshold'"):
            load_model(path)

    def test_retrain_writes_identical_checkpoint(self, base_corpus, tmp_path):
        paths = []
        for name in ("one.json", "two.json"):
            model, _ = train_model("gbt", base_corpus, fast_config())
            path = tmp_path / name
            save_model(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSvmCheckpoint:
    """An svm checkpoint holds the support set and nothing else."""

    @pytest.fixture
    def saved(self, base_corpus, tmp_path):
        model, _ = train_model("svm", base_corpus, fast_config())
        path = tmp_path / "svm.json"
        save_model(model, path)
        train_part, _ = split(base_corpus, fast_config().split)
        return path, train_part

    def test_model_is_the_support_set(self, saved):
        path, train_part = saved
        texts = [preprocess(doc.text, doc.language) for doc in train_part]
        model = load_checkpoint(path)[1]["model"]
        assert list(model) == ["support_indices", "dual_coef", "bias", "C", "support_texts"]
        assert 0 < len(model["support_indices"]) < len(texts)
        assert model["support_texts"] == [texts[i] for i in model["support_indices"]]

    def test_payload_from_before_the_support_set_rejected(self, saved):
        # The earlier layout kept every training text, the full alpha vector
        # and the +-1 labels, and had no support_texts.
        path, train_part = saved
        _, payload = load_checkpoint(path)
        model = payload["model"]
        alphas = np.zeros(len(train_part))
        alphas[model["support_indices"]] = np.abs(
            decode_array(model["dual_coef"], np.float64)
        )
        del model["support_texts"]
        model["texts"] = [preprocess(doc.text, doc.language) for doc in train_part]
        model["alphas"] = encode_array(alphas)
        model["labels"] = encode_array(2.0 * train_part.labels_as_ints() - 1.0)
        save_checkpoint(path, "svm", payload)
        with pytest.raises(DataError, match="support_texts"):
            load_model(path)


@pytest.fixture(scope="module")
def trained(wide_corpus):
    return train_model("ensemble", wide_corpus, fast_config())


class TestEnsembleTraining:
    def test_kind_threshold_and_log(self, trained):
        model, log = trained
        assert model.kind == "ensemble"
        assert model.threshold == model.stack.threshold
        calibrated = [e for e in log if e["event"] == "calibrated"]
        assert len(calibrated) == 1
        assert set(calibrated[0]["base_thresholds"]) == {"gbt", "knn"}

    def test_predicts_on_unlabeled_corpus(self, trained):
        model, _ = trained
        probe = synthetic_corpus(5, 5, seed=11, name="p", labeled=False)
        probs = model.predict_proba(probe)
        assert probs.shape == (10,)

    def test_round_trip_preserves_predictions(self, trained, wide_corpus, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "ensemble"
        np.testing.assert_array_equal(
            loaded.predict_proba(wide_corpus), model.predict_proba(wide_corpus)
        )

    def test_bundle_is_a_directory_of_checkpoints(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        assert path.is_dir()
        assert sorted(p.name for p in path.iterdir()) == [
            "gbt.json",
            "knn.json",
            "manifest.json",
        ]

    def test_bundle_manifest_records_layout(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        kind, manifest = load_checkpoint(path / "manifest.json")
        assert kind == "ensemble"
        inner = model.stack
        assert list(manifest) == ["base_names", "meta_model", "meta_hyperparams", "threshold"]
        assert tuple(manifest["base_names"]) == inner.base_names
        assert manifest["threshold"] == model.threshold

    def test_bundle_base_checkpoints_load_standalone(
        self, trained, wide_corpus, tmp_path
    ):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        inner = model.stack
        base_probas = model.base_probas(wide_corpus)
        for name in model.models:
            standalone = load_model(path / f"{name}.json")
            assert standalone.kind == name
            assert standalone.threshold == (
                inner.base_thresholds[inner.base_names.index(name)]
            )
            np.testing.assert_array_equal(
                standalone.predict_proba(wide_corpus), base_probas[name]
            )

    def test_bundle_missing_base_checkpoint_rejected(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        (path / "knn.json").unlink()
        with pytest.raises(DataError, match="missing base checkpoint"):
            load_model(path)

    def test_bundle_rewrite_is_byte_identical(self, trained, tmp_path):
        model, _ = trained
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_model(model, first)
        save_model(load_model(first), second)
        for file in sorted(first.iterdir()):
            assert (second / file.name).read_bytes() == file.read_bytes()

    def test_bundle_refuses_to_overwrite_a_file(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "occupied"
        path.write_text("not a bundle")
        with pytest.raises(DataError, match="not a directory"):
            save_model(model, path)

    def test_manifest_without_meta_hyperparams_rejected(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        _, manifest = load_checkpoint(path / "manifest.json")
        del manifest["meta_hyperparams"]
        save_checkpoint(path / "manifest.json", "ensemble", manifest)
        with pytest.raises(DataError, match="malformed ensemble manifest"):
            load_model(path)

    def test_base_named_outside_the_bundle_rejected(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        (path / "knn.json").rename(tmp_path / "outside_knn.json")
        _, manifest = load_checkpoint(path / "manifest.json")
        manifest["base_names"] = ["gbt", "../outside_knn"]
        save_checkpoint(path / "manifest.json", "ensemble", manifest)
        with pytest.raises(DataError, match="expected '../outside_knn'"):
            load_model(path)

    def test_manifest_repeating_a_base_rejected(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        _, manifest = load_checkpoint(path / "manifest.json")
        manifest["base_names"] = ["gbt", "gbt"]
        save_checkpoint(path / "manifest.json", "ensemble", manifest)
        with pytest.raises(DataError, match="lists base 'gbt' more than once"):
            load_model(path)

    def test_manifest_listing_no_base_rejected(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        _, manifest = load_checkpoint(path / "manifest.json")
        manifest["base_names"] = []
        save_checkpoint(path / "manifest.json", "ensemble", manifest)
        want = re.escape(f"manifest {path / 'manifest.json'} lists no base models")
        with pytest.raises(DataError, match=want):
            load_model(path)

    def test_meta_model_wider_than_its_meta_features_rejected(
        self, trained, wide_corpus, tmp_path
    ):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        _, manifest = load_checkpoint(path / "manifest.json")
        inner = model.stack
        width = inner.meta_matrix({name: np.array([0.5]) for name in inner.base_names}).shape[1]
        manifest["meta_model"]["trees"][0] = {
            "feature": width, "threshold": 0.0, "left": {"value": 0.0}, "right": {"value": 0.0}
        }
        save_checkpoint(path / "manifest.json", "ensemble", manifest)
        loaded = load_model(path)
        with pytest.raises(DataError, match=f"splits on feature {width}, but its input has"):
            loaded.predict_proba(wide_corpus)

    def test_flat_file_claiming_ensemble_kind_rejected(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "bundle"
        save_model(model, path)
        with pytest.raises(DataError, match="directory bundle"):
            load_model(path / "manifest.json")

    def test_base_thresholds_follow_configured_rule(self, wide_corpus):
        cfg = dataclasses.replace(
            fast_config(),
            ensemble=EnsembleSettings(bases=("gbt", "knn"), threshold_rule="youden"),
        )
        model, _ = train_model("ensemble", wide_corpus, cfg)
        holdout_spec = SplitSpec(
            train_fraction=1.0 - cfg.ensemble.holdout_fraction,
            seed=cfg.ensemble.seed,
            stratify_by_label=True,
        )
        _, holdout = split(wide_corpus, holdout_spec)
        labels = holdout.labels_as_ints()
        inner = model.stack
        for name, probs in model.base_probas(holdout).items():
            expected = select_threshold(probs, labels, "youden")
            assert inner.base_thresholds[inner.base_names.index(name)] == expected


class TestSvmEnsemble:
    @pytest.fixture(scope="class")
    def svm_knn(self, wide_corpus):
        cfg = dataclasses.replace(
            fast_config(), ensemble=EnsembleSettings(bases=("svm", "knn"))
        )
        model, _ = train_model("ensemble", wide_corpus, cfg)
        return model

    def test_bundle_rewrite_is_byte_identical(self, svm_knn, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_model(svm_knn, first)
        save_model(load_model(first), second)
        assert sorted(p.name for p in first.iterdir()) == [
            "knn.json",
            "manifest.json",
            "svm.json",
        ]
        for file in sorted(first.iterdir()):
            assert (second / file.name).read_bytes() == file.read_bytes()

    def test_svm_base_loads_standalone(self, svm_knn, wide_corpus, tmp_path):
        path = tmp_path / "bundle"
        save_model(svm_knn, path)
        standalone = load_model(path / "svm.json")
        inner = svm_knn.stack
        assert standalone.kind == "svm"
        assert standalone.threshold == inner.base_thresholds[inner.base_names.index("svm")]
        np.testing.assert_array_equal(
            standalone.predict_proba(wide_corpus),
            svm_knn.base_probas(wide_corpus)["svm"],
        )


def count_readability(monkeypatch) -> Counter:
    """Count, per document id, the rows the pipeline asks readability to score."""
    seen: Counter = Counter()
    original = pipeline.readability_matrix

    def counting(docs):
        docs = list(docs)
        seen.update(doc.id for doc in docs)
        return original(docs)

    monkeypatch.setattr(pipeline, "readability_matrix", counting)
    return seen


@pytest.fixture(scope="module")
def three_bases(wide_corpus):
    """A neural+gbt+knn ensemble, and how often training featurized each document."""
    cfg = dataclasses.replace(
        fast_config(), ensemble=EnsembleSettings(bases=("neural", "gbt", "knn"))
    )
    with pytest.MonkeyPatch.context() as patch:
        seen = count_readability(patch)
        model, _ = train_model("ensemble", wide_corpus, cfg)
    return model, seen


class TestPreparedOnce:
    """An ensemble's featurizer bases share one featurization of each document."""

    def test_training_featurizes_each_document_once(self, three_bases, wide_corpus):
        _, seen = three_bases
        assert seen == Counter(doc.id for doc in wide_corpus)

    def test_serving_featurizes_each_batch_document_once(
        self, three_bases, tmp_path, monkeypatch
    ):
        model, _ = three_bases
        save_model(model, tmp_path / "bundle")
        loaded = load_model(tmp_path / "bundle")
        batch = synthetic_corpus(5, 5, seed=11, name="p", labeled=False)
        expected = model.predict_proba(batch)
        seen = count_readability(monkeypatch)
        np.testing.assert_array_equal(loaded.predict_proba(batch), expected)
        assert seen == Counter(doc.id for doc in batch)

    def test_loaded_bases_share_one_featurizer(self, three_bases, tmp_path):
        model, _ = three_bases
        save_model(model, tmp_path / "bundle")
        loaded = load_model(tmp_path / "bundle")
        assert list(loaded.models) == ["neural", "gbt", "knn"]
        assert list(loaded.preps) == ["featurizer"]

    def test_bundle_reads_the_embeddings_file_once(
        self, wide_corpus, tmp_path, monkeypatch
    ):
        vectors = tmp_path / "vectors.tsv"
        save_embeddings(hashed_table(wide_corpus), vectors)
        cfg = dataclasses.replace(fast_config(), embeddings_path=str(vectors))
        model, _ = train_model("ensemble", wide_corpus, cfg)
        save_model(model, tmp_path / "bundle")
        calls = []
        original = pipeline.load_embeddings

        def counting(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(pipeline, "load_embeddings", counting)
        loaded = load_model(tmp_path / "bundle")
        assert calls == [str(vectors)]
        np.testing.assert_array_equal(
            loaded.predict_proba(wide_corpus), model.predict_proba(wide_corpus)
        )

    def test_bundle_with_differing_featurizers_rejected(self, three_bases, tmp_path):
        model, _ = three_bases
        path = tmp_path / "bundle"
        save_model(model, path)
        _, payload = load_checkpoint(path / "knn.json")
        scaler = payload["featurizer"]["scaler"]
        means = decode_array(scaler["means"], np.float64)
        means[0] += 1.0
        scaler["means"] = encode_array(means)
        save_checkpoint(path / "knn.json", "knn", payload)
        with pytest.raises(DataError, match="base 'knn' stores a featurizer"):
            load_model(path)
