"""End-to-end wiring from corpora to trained detectors and back.

Vector-space models (the network, the neighbor model, the boosted trees)
share one feature pipeline: ten readability statistics concatenated with a
document embedding, standardized by a single scaler fitted on the full
concatenated training matrix.  Scaling the concatenation is equivalent to
scaling the blocks separately because standardization is per-column.
Features travel as matrices, one row per document in corpus order: a
corpus is featurized once into unscaled blocks (``FeatureBlocks``: the
statistics, and the embedder's integer n-gram counts or a table's vectors),
and ``Featurizer.rows`` turns blocks into the scaled float64 rows every
vector-space base reads.  The kNN base memorizes its training rows, and its
checkpoint stores their blocks, not the rows: the counts take one or two
bytes a bucket where a scaled row takes eight, and loading rebuilds the
rows bit for bit through the same ``Featurizer.rows``.  The string-kernel
SVM takes a different route: documents are preprocessed per language and
scored in primal form, their distinct character n-grams looked up in a dict
of weights folded from the support texts (see ``kernels``).

Document embeddings come from a seeded hashing embedder by default; a
table of precomputed vectors keyed by document id can be supplied instead,
in which case every document scored later must appear in the table, and
checkpoints pin the table file's SHA-256 so a changed file is refused.

Training always carves a validation split off the provided corpus: the
network uses it for early stopping, the boosted trees for grid selection,
and every model reports a validation score in the training log.  Ensemble
training first reserves a stratified holdout for stacking calibration, so
the meta-learner never sees base training documents.

Each base kind is one entry of ``_KINDS``, and its name one entry of
``checkpoint.MODEL_KINDS``, where every other module reads kind names.  A
kind fits and scores prepared inputs, never a corpus: its preparation (the
featurizer's scaled rows, or the kernel's preprocessed texts) runs once per
corpus part, and every base reading that preparation shares the result.
So an ensemble's vector-space bases share one featurizer: training fits
one, and a bundle whose bases store different featurizers is refused.

A fitted detector, one base kind or an ensemble alike, is one record,
``TrainedModel``: its base models by kind, their preparations by key and,
for an ensemble, the stacking layer over the bases' probabilities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import BASE_MODEL_NAMES, AppConfig
from .corpus import Corpus, Language, SplitSpec, split
from .checkpoint import (
    MODEL_KINDS,
    decode_array,
    encode_array,
    load_checkpoint,
    narrowest_int,
    save_checkpoint,
    stored_float,
    stored_int,
    stored_str,
)
# ``embed_corpus`` is not called here (the featurizer keeps the counts it
# normalizes); perfbench/tracer.py wraps it by this name.
from .embeddings import (
    GRAM_HASH,
    EmbeddingTable,
    FallbackEmbedderConfig,
    embed_corpus,
    gram_counts,
    load_embeddings,
    normalize_counts,
)
from .ensemble import (
    EnsembleModel,
    ensemble_predict_proba,
    train_ensemble,
)
from .errors import ConfigError, DataError
from .evaluation import macro_f1
# ``kernel_matrix`` is not called here; perfbench/tracer.py wraps it by this name.
from .kernels import (
    KernelConfig,
    kernel_config_from_jsonable,
    kernel_config_to_jsonable,
    kernel_matrix,
    svm_from_jsonable,
    svm_predict_proba,
    svm_to_jsonable,
    svm_train,
)
from .neural import (
    LabeledSet,
    params_from_jsonable,
    params_to_jsonable,
    predict_proba as neural_predict_proba,
    train as neural_train,
)
# ``readability_features`` is not called here, but the benchmark's tracer
# (perfbench/tracer.py) wraps it under this module's name.
from .readability import (
    FEATURE_NAMES,
    ScalerParams,
    fit_scaler,
    readability_features,
    readability_matrix,
    transform,
)
from .shallow import (
    GbtHyperparams,
    KnnModel,
    gbt_from_jsonable,
    gbt_predict_proba_many,
    gbt_to_jsonable,
    grid_search,
    knn_from_jsonable,
    knn_predict_proba_many,
    knn_to_jsonable,
)
from .textprep import preprocess

DEFAULT_DECISION_THRESHOLD = 0.5

_LANGUAGE_CODE = {Language.EN: 0.0, Language.ES: 1.0}


def feature_names(embedding_dim: int) -> tuple[str, ...]:
    return FEATURE_NAMES + tuple(f"emb_{i}" for i in range(embedding_dim))


class FeatureBlocks(NamedTuple):
    """The unscaled blocks of some documents' feature rows, one row each, in
    corpus order: ``stats``, the readability statistics, and ``embedding``,
    the hashing embedder's integer bucket counts (normalized when the rows
    are made) or an embeddings table's float64 vectors."""

    stats: np.ndarray
    embedding: np.ndarray


def feature_blocks(
    corpus: Corpus,
    embedder: FallbackEmbedderConfig = FallbackEmbedderConfig(),
    table: EmbeddingTable | None = None,
) -> FeatureBlocks:
    """``corpus``'s unscaled feature blocks: every document is featurized here."""
    if len(corpus) == 0:
        raise DataError("cannot featurize an empty corpus")
    if table is None:
        embedding = gram_counts(corpus, embedder)
    else:
        embedding = np.array([table.get(doc.id) for doc in corpus])
    return FeatureBlocks(readability_matrix(corpus), embedding)


def raw_rows(blocks: FeatureBlocks) -> np.ndarray:
    """The unscaled rows of ``blocks``, with ``feature_names(dim)`` columns."""
    embedding = blocks.embedding
    if embedding.dtype.kind == "i":
        embedding = normalize_counts(embedding)
    return np.hstack([blocks.stats, embedding])


def build_raw_features(
    corpus: Corpus,
    embedder: FallbackEmbedderConfig = FallbackEmbedderConfig(),
    table: EmbeddingTable | None = None,
) -> np.ndarray:
    """Unscaled feature rows in corpus order, with ``feature_names(dim)`` columns."""
    return raw_rows(feature_blocks(corpus, embedder, table))


def embeddings_table(path: str) -> EmbeddingTable | None:
    """The precomputed embeddings at ``path``; None selects the hashing embedder."""
    return load_embeddings(path) if path else None


@dataclass(frozen=True)
class Featurizer:
    """Embedding settings plus the scaler fitted on the training corpus.

    ``table`` holds the precomputed embeddings named by ``embeddings_path``,
    read once when the featurizer is fitted or loaded; checkpoints store the
    path and the file's digest, not the vectors.
    """

    embedder: FallbackEmbedderConfig
    embeddings_path: str
    scaler: ScalerParams
    table: EmbeddingTable | None = field(default=None, repr=False, compare=False)

    def rows(self, blocks: FeatureBlocks) -> np.ndarray:
        """The scaled rows of ``blocks``: every model input the featurizer
        makes, and every kNN row rebuilt from a checkpoint, is made here."""
        return transform(raw_rows(blocks), self.scaler)

    def features(self, corpus: Corpus) -> np.ndarray:
        return self.rows(feature_blocks(corpus, self.embedder, self.table))


def fit_featurizer(
    corpus: Corpus, cfg: AppConfig
) -> tuple[Featurizer, np.ndarray, FeatureBlocks]:
    """The featurizer fitted on ``corpus``, ``corpus``'s scaled rows and the
    unscaled blocks they were scaled from."""
    table = embeddings_table(cfg.embeddings_path)
    blocks = feature_blocks(corpus, cfg.embedder, table)
    featurizer = Featurizer(
        embedder=cfg.embedder,
        embeddings_path=cfg.embeddings_path,
        scaler=fit_scaler(raw_rows(blocks)),
        table=table,
    )
    return featurizer, featurizer.rows(blocks), blocks


def _scaler_to_jsonable(scaler: ScalerParams) -> dict:
    return {"means": encode_array(scaler.means), "stddevs": encode_array(scaler.stddevs)}


def _scaler_from_jsonable(data: dict) -> ScalerParams:
    try:
        return ScalerParams(
            means=decode_array(data["means"], np.float64),
            stddevs=decode_array(data["stddevs"], np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed scaler parameters: {exc}") from exc


def _featurizer_to_jsonable(featurizer: Featurizer) -> dict:
    data = {
        "embedder": asdict(featurizer.embedder),
        "hash": GRAM_HASH,
        "embeddings_path": featurizer.embeddings_path,
    }
    if featurizer.embeddings_path:
        data["embeddings_sha256"] = featurizer.table.sha256
    data["scaler"] = _scaler_to_jsonable(featurizer.scaler)
    return data


def _featurizer_from_jsonable(data: dict) -> Featurizer:
    try:
        emb = data["embedder"]
        keys = ("dim", "ngram_min", "ngram_max", "seed")
        embedder = FallbackEmbedderConfig(*(stored_int(emb[key], key) for key in keys))
        path = stored_str(data.get("embeddings_path", ""), "embeddings_path")
        pinned = stored_str(data["embeddings_sha256"], "embeddings_sha256") if path else ""
        scaler = _scaler_from_jsonable(data["scaler"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed featurizer settings: {exc}") from exc
    if data.get("hash") != GRAM_HASH:
        named = f"n-gram hash {data['hash']!r}" if "hash" in data else "no n-gram hash"
        raise DataError(
            f"featurizer names {named}, but this build hashes n-grams with "
            f"{GRAM_HASH!r}, so retrain the model"
        )
    table = embeddings_table(path)
    if table is not None and table.sha256 != pinned:
        raise DataError(
            f"embeddings file {path} has sha256 {table.sha256}, but the model "
            f"was trained on a file with sha256 {pinned}"
        )
    return Featurizer(embedder=embedder, embeddings_path=path, scaler=scaler, table=table)


def _require_labels(corpus: Corpus) -> np.ndarray:
    if not corpus.fully_labeled:
        raise DataError(f"corpus {corpus.name!r} has unlabeled documents; cannot train")
    return np.asarray(corpus.labels_as_ints(), dtype=np.int64)


def _language_codes(corpus: Corpus) -> np.ndarray:
    return np.array([_LANGUAGE_CODE[doc.language] for doc in corpus], dtype=np.float64)


def _preprocessed_texts(kernel: KernelConfig, corpus: Corpus) -> list[str]:
    return [preprocess(doc.text, doc.language) for doc in corpus]


def _fit_kernel(train: Corpus, cfg: AppConfig) -> tuple[KernelConfig, list[str], None]:
    kernel = KernelConfig()
    return kernel, _preprocessed_texts(kernel, train), None


class _Prep(NamedTuple):
    """A base's input preparation.

    ``fit`` takes (train corpus, cfg) and returns the preparation, the
    training part's inputs and what they were made from (the featurizer's
    unscaled blocks, or None); ``inputs`` takes (preparation, corpus).  The
    codec stores the preparation under ``key`` in a base's payload.
    """

    key: str
    fit: Callable[[Corpus, AppConfig], tuple[object, object]]
    inputs: Callable[[object, Corpus], object]
    to_jsonable: Callable[[object], dict]
    from_jsonable: Callable[[dict], object]


_FEATURIZER = _Prep(
    "featurizer",
    fit_featurizer,
    Featurizer.features,
    _featurizer_to_jsonable,
    _featurizer_from_jsonable,
)
_KERNEL = _Prep(
    "kernel",
    _fit_kernel,
    _preprocessed_texts,
    kernel_config_to_jsonable,
    kernel_config_from_jsonable,
)


class _Part(NamedTuple):
    """One corpus part as a base sees it.  ``source`` is what the training
    part's inputs were made from, for a base that stores it in their place."""

    corpus: Corpus
    inputs: object
    labels: np.ndarray
    source: object = None


# A fit takes (prep, train, val, cfg, log), both parts already prepared, and
# returns the model; a score takes (model, prep, inputs), and the codec
# (model, prep) or (stored model, prep).  Layer functions are named in these
# bodies, never stored, so each call looks them up in this module when it
# runs.


def _fit_neural(featurizer, train, val, cfg, log):
    y_lang = _language_codes(train.corpus) if cfg.mtl.enabled else None
    params, epochs = neural_train(
        LabeledSet(train.inputs, train.labels.astype(np.float64), y_lang),
        LabeledSet(val.inputs, val.labels.astype(np.float64)),
        mtl=cfg.mtl,
        vat=cfg.vat,
        cfg=cfg.train,
        hidden=cfg.hidden,
    )
    for record in epochs:
        log.append({"event": "epoch", "model": "neural", **asdict(record)})
    return params


def _fit_gbt(featurizer, train, val, cfg, log):
    model, hyperparams = grid_search(
        train.inputs, train.labels, val.inputs, val.labels, cfg.gbt_grid
    )
    log.append({"event": "grid_selected", "model": "gbt", **hyperparams._asdict()})
    return model


@dataclass(frozen=True)
class FeaturizedKnn(KnnModel):
    """A kNN base whose rows are its featurizer's ``rows(blocks)``.

    Its checkpoint stores ``blocks`` in place of the rows, with the counts
    at the narrowest integer width that holds them (narrowed here, so the
    stored width depends on the values alone), and loading rebuilds the
    rows from them through the same featurizer.  A ``KnnModel`` built from
    rows has no blocks, and its checkpoint stores the rows.
    """

    blocks: FeatureBlocks = field(kw_only=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        stats, embedding = self.blocks
        if embedding.dtype.kind == "i":
            embedding = narrowest_int(embedding)
        object.__setattr__(self, "blocks", FeatureBlocks(stats, embedding))


def _fit_knn(featurizer, train, val, cfg, log):
    return FeaturizedKnn(x=train.inputs, labels=train.labels, k=cfg.knn_k, blocks=train.source)


def _knn_to_jsonable(model: KnnModel, featurizer: Featurizer) -> dict:
    if not isinstance(model, FeaturizedKnn):
        return knn_to_jsonable(model)
    stats, embedding = model.blocks
    return {
        "k": model.k,
        "labels": encode_array(model.labels),
        "stats": encode_array(stats),
        _embedding_key(featurizer): encode_array(embedding),
    }


def _embedding_key(featurizer: Featurizer) -> str:
    return "counts" if featurizer.table is None else "vectors"


def _knn_from_jsonable(data: dict, featurizer: Featurizer) -> KnnModel:
    """A stored kNN base: its scaled rows, as version 3 and a ``KnnModel``
    built from rows store them, or its blocks, whose rows are rebuilt."""
    if isinstance(data, dict) and "x" in data:
        return knn_from_jsonable(data)
    hashed = featurizer.table is None
    key = _embedding_key(featurizer)
    width = featurizer.embedder.dim if hashed else featurizer.table.dim
    try:
        stats = decode_array(data["stats"], np.float64)
        embedding = decode_array(
            data[key], np.int64 if hashed else np.float64, any_int_width=hashed
        )
        labels = decode_array(data["labels"], np.int64)
        if stats.ndim != 2 or stats.shape[1] != len(FEATURE_NAMES):
            raise DataError(
                f"stats have shape {stats.shape}, expected (n, {len(FEATURE_NAMES)})"
            )
        if embedding.ndim != 2 or embedding.shape[1] != width:
            raise DataError(f"{key} have shape {embedding.shape}, expected (n, {width})")
        if not len(stats) == len(embedding) == len(labels):
            raise DataError(
                f"stats, {key} and labels hold {len(stats)}, {len(embedding)} "
                f"and {len(labels)} rows"
            )
        blocks = FeatureBlocks(stats, embedding)
        return FeaturizedKnn(
            x=featurizer.rows(blocks),
            labels=labels,
            k=stored_int(data["k"], "k"),
            blocks=blocks,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed neighbor model: {exc}") from exc


def _fit_svm(kernel, train, val, cfg, log):
    pm1 = np.where(train.labels == 1, 1.0, -1.0)
    model = svm_train(train.inputs, pm1, C=cfg.svm.C, cfg=kernel, seed=cfg.svm.seed)
    log.append(
        {"event": "trained", "model": "svm", "support_vectors": len(model.support_indices)}
    )
    return model


@dataclass(frozen=True)
class _Kind:
    """How one base kind fits, scores and is stored in a payload."""

    fit: Callable[..., object]
    score: Callable[[object, object, object], np.ndarray]
    model_key: str
    model_to_jsonable: Callable[[object, object], dict]
    model_from_jsonable: Callable[[dict, object], object]
    prep: _Prep = _FEATURIZER


_KINDS: dict[str, _Kind] = {
    "neural": _Kind(
        _fit_neural,
        lambda params, featurizer, x: neural_predict_proba(params, x),
        "params",
        lambda params, featurizer: params_to_jsonable(params),
        lambda data, featurizer: params_from_jsonable(data),
    ),
    "gbt": _Kind(
        _fit_gbt,
        lambda model, featurizer, x: gbt_predict_proba_many(model, x),
        "model",
        lambda model, featurizer: gbt_to_jsonable(model),
        lambda data, featurizer: gbt_from_jsonable(data),
    ),
    "knn": _Kind(
        _fit_knn,
        lambda model, featurizer, x: knn_predict_proba_many(model, x),
        "model",
        _knn_to_jsonable,
        _knn_from_jsonable,
    ),
    "svm": _Kind(
        _fit_svm,
        lambda model, kernel, texts: np.array(
            [svm_predict_proba(model, text, kernel) for text in texts], dtype=np.float64
        ),
        "model",
        lambda model, kernel: svm_to_jsonable(model),
        lambda data, kernel: svm_from_jsonable(data),
        prep=_KERNEL,
    ),
}

if tuple(_KINDS) != BASE_MODEL_NAMES:
    raise ImportError(
        f"pipeline defines base kinds {tuple(_KINDS)}, "
        f"but checkpoint.MODEL_KINDS lists {BASE_MODEL_NAMES}"
    )


@dataclass(frozen=True)
class TrainedModel:
    """A fitted detector: base models by kind, shared preparations, optional stack.

    ``models`` maps each base kind to its fitted model, and ``preps`` maps
    each preparation key to the one fitted value that every base reading it
    shares.  ``stack`` is the ensemble's stacking layer, or None for a single
    base kind; ``threshold`` is the detector's decision threshold, which for
    an ensemble is the stacking layer's.
    """

    models: dict[str, object]
    preps: dict[str, object]
    threshold: float = DEFAULT_DECISION_THRESHOLD
    stack: EnsembleModel | None = None

    @property
    def kind(self) -> str:
        if self.stack is not None:
            return "ensemble"
        (kind,) = self.models
        return kind

    def base_probas(self, corpus: Corpus) -> dict[str, np.ndarray]:
        """Every base's probabilities, preparing ``corpus`` once per preparation."""
        inputs: dict[str, object] = {}
        probs = {}
        for kind, model in self.models.items():
            spec = _KINDS[kind]
            key = spec.prep.key
            if key not in inputs:
                inputs[key] = spec.prep.inputs(self.preps[key], corpus)
            probs[kind] = spec.score(model, self.preps[key], inputs[key])
        return probs

    def predict_proba(self, corpus: Corpus) -> np.ndarray:
        probs = self.base_probas(corpus)
        if self.stack is None:
            return probs[self.kind]
        return ensemble_predict_proba(self.stack, probs)


def _train_bases(
    kinds, train: Corpus, val: Corpus, cfg: AppConfig, log: list[dict]
) -> TrainedModel:
    """Fit each kind on ``train``, reporting validation macro-F1.

    Each preparation the kinds use is fitted on ``train`` once and prepares
    ``val`` once; every kind that uses it shares both parts' inputs.
    """
    y_train = _require_labels(train)
    y_val = _require_labels(val)
    parts: dict[str, tuple[_Part, _Part]] = {}
    models: dict[str, object] = {}
    preps: dict[str, object] = {}
    for kind in kinds:
        spec = _KINDS[kind]
        key = spec.prep.key
        if key not in preps:
            preps[key], x_train, source = spec.prep.fit(train, cfg)
            x_val = spec.prep.inputs(preps[key], val)
            parts[key] = (_Part(train, x_train, y_train, source), _Part(val, x_val, y_val))
        train_part, val_part = parts[key]
        models[kind] = spec.fit(preps[key], train_part, val_part, cfg, log)
        probs = spec.score(models[kind], preps[key], val_part.inputs)
        preds = (probs >= DEFAULT_DECISION_THRESHOLD).astype(np.int64)
        score = macro_f1(y_val, preds)
        log.append({"event": "validation", "model": kind, "macro_f1": score})
    return TrainedModel(models, preps)


def train_model(kind: str, corpus: Corpus, cfg: AppConfig) -> tuple[TrainedModel, list[dict]]:
    """Train one detector kind (a base name or "ensemble") on a labeled corpus."""
    _require_labels(corpus)
    log: list[dict] = []
    if kind == "ensemble":
        return _train_ensemble_model(corpus, cfg, log)
    if kind not in _KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    train_part, val_part = split(corpus, cfg.split)
    return _train_bases((kind,), train_part, val_part, cfg, log), log


def _train_ensemble_model(
    corpus: Corpus, cfg: AppConfig, log: list[dict]
) -> tuple[TrainedModel, list[dict]]:
    # The stacking layer calibrates on documents no base trained on, and
    # stratification keeps both classes present for threshold calibration.
    holdout_spec = SplitSpec(
        train_fraction=1.0 - cfg.ensemble.holdout_fraction,
        seed=cfg.ensemble.seed,
        stratify_by_label=True,
    )
    fit_part, holdout = split(corpus, holdout_spec)
    train_part, val_part = split(fit_part, cfg.split)
    bases = _train_bases(cfg.ensemble.bases, train_part, val_part, cfg, log)
    stack = train_ensemble(
        bases.base_probas(holdout),
        _require_labels(holdout),
        grid=cfg.gbt_grid,
        seed=cfg.ensemble.seed,
        holdout_ids=[doc.id for doc in holdout],
        train_ids=[doc.id for doc in fit_part],
        rule=cfg.ensemble.threshold_rule,
    )
    log.append(
        {
            "event": "calibrated",
            "model": "ensemble",
            "base_thresholds": {
                name: threshold
                for name, threshold in zip(stack.base_names, stack.base_thresholds)
            },
            "threshold": stack.threshold,
            "meta_hyperparams": stack.meta_hyperparams._asdict(),
        }
    )
    return TrainedModel(bases.models, bases.preps, stack.threshold, stack), log


def _base_payload(model: TrainedModel, kind: str, threshold: float) -> dict:
    spec = _KINDS[kind]
    prep = model.preps[spec.prep.key]
    return {
        spec.model_key: spec.model_to_jsonable(model.models[kind], prep),
        spec.prep.key: spec.prep.to_jsonable(prep),
        "threshold": threshold,
    }


def _read_base(
    path, preps: dict, entries: dict, expected_kind: str | None = None
) -> tuple[str, object, float]:
    """Read one base checkpoint: its kind, its model and its decision threshold.

    The base's preparation is decoded into ``preps``, once per key:
    ``entries`` maps a key to the stored entry of an earlier base of the
    same bundle, and a base whose entry differs from it is refused.  Every
    refusal of the payload names the file.
    """
    kind, payload = load_checkpoint(path, expected_kind=expected_kind)
    if kind == "ensemble":
        raise DataError(
            "ensemble checkpoints are directory bundles; "
            "pass the bundle directory, not a file inside it"
        )
    try:
        return _decode_base(kind, payload, preps, entries)
    except DataError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from exc


def _decode_base(
    kind: str, payload: dict, preps: dict, entries: dict
) -> tuple[str, object, float]:
    spec = _KINDS[kind]
    key = spec.prep.key
    try:
        model_data, stored, threshold = (
            payload[spec.model_key], payload[key], payload["threshold"]
        )
    except KeyError as exc:
        raise DataError(f"payload is missing {exc}") from exc
    threshold = stored_float(threshold, "threshold")
    # The preparation first: a kNN base's rows are rebuilt through it.
    if key not in preps:
        preps[key] = spec.prep.from_jsonable(stored)
        entries[key] = stored
    if stored != entries[key]:
        raise DataError(
            f"base {kind!r} stores a {key} that differs from the other bases' {key}"
        )
    return kind, spec.model_from_jsonable(model_data, preps[key]), threshold


MANIFEST_FILENAME = "manifest.json"
# The earlier bundle layout kept the meta-model in this file.
_EARLIER_META_FILENAME = "meta.json"


def _save_ensemble_bundle(model: TrainedModel, path) -> None:
    """Write an ensemble as a directory of base checkpoints plus a manifest.

    Each base is a standalone checkpoint ``<kind>.json`` holding its own
    calibrated threshold.  The manifest holds only the stacking layer: base
    order, the meta-model, its hyperparameters and the ensemble threshold.
    Rewriting a bundle first removes the names the layout owns that this
    bundle does not write (an earlier layout's ``meta.json`` and the
    checkpoint of every other model kind); other files stay.
    """
    stack = model.stack
    bundle = Path(path)
    if bundle.exists() and not bundle.is_dir():
        raise DataError(f"{bundle} exists and is not a directory")
    stale = [f"{kind}.json" for kind in MODEL_KINDS if kind not in stack.base_names]
    try:
        bundle.mkdir(parents=True, exist_ok=True)
        for name in [_EARLIER_META_FILENAME, *stale]:
            (bundle / name).unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {bundle}: {exc}") from exc
    for kind, base_threshold in zip(stack.base_names, stack.base_thresholds):
        payload = _base_payload(model, kind, base_threshold)
        save_checkpoint(bundle / f"{kind}.json", kind, payload)
    manifest = {
        "base_names": list(stack.base_names),
        "meta_model": gbt_to_jsonable(stack.meta_model),
        "meta_hyperparams": stack.meta_hyperparams._asdict(),
        "threshold": model.threshold,
    }
    save_checkpoint(bundle / MANIFEST_FILENAME, "ensemble", manifest)


def _load_ensemble_bundle(bundle: Path) -> TrainedModel:
    manifest_path = bundle / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise DataError(f"{bundle} has no {MANIFEST_FILENAME}; not an ensemble bundle")
    _, manifest = load_checkpoint(manifest_path, expected_kind="ensemble")
    try:
        base_names = tuple(str(n) for n in manifest["base_names"])
        meta_model = gbt_from_jsonable(manifest["meta_model"])
        hp = manifest["meta_hyperparams"]
        meta_hyperparams = GbtHyperparams(
            stored_int(hp["n_estimators"], "n_estimators"),
            stored_int(hp["max_depth"], "max_depth"),
            stored_float(hp["learning_rate"], "learning_rate"),
        )
        threshold = stored_float(manifest["threshold"], "threshold")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed ensemble manifest: {exc}") from exc
    if not base_names:
        raise DataError(f"ensemble manifest {manifest_path} lists no base models")
    models: dict[str, object] = {}
    preps: dict[str, object] = {}
    entries: dict[str, dict] = {}
    thresholds = []
    for name in base_names:
        if name in models:
            raise DataError(f"ensemble manifest lists base {name!r} more than once")
        # A base file must hold the kind it is named after, so a name that
        # is not a base kind points at no file the bundle can use.
        base_path = bundle / f"{name}.json"
        if not base_path.is_file():
            raise DataError(f"ensemble bundle is missing base checkpoint {base_path.name}")
        _, models[name], base_threshold = _read_base(base_path, preps, entries, name)
        thresholds.append(base_threshold)
    stack = EnsembleModel(
        base_names=base_names,
        base_thresholds=tuple(thresholds),
        meta_model=meta_model,
        meta_hyperparams=meta_hyperparams,
        threshold=threshold,
    )
    return TrainedModel(models, preps, threshold, stack)


def save_model(model: TrainedModel, path) -> None:
    if model.stack is not None:
        _save_ensemble_bundle(model, path)
        return
    save_checkpoint(path, model.kind, _base_payload(model, model.kind, model.threshold))


def load_model(path) -> TrainedModel:
    if Path(path).is_dir():
        return _load_ensemble_bundle(Path(path))
    preps: dict[str, object] = {}
    kind, base, threshold = _read_base(path, preps, {})
    return TrainedModel({kind: base}, preps, threshold)
