"""Bilingual machine-generated-text detection.

The package combines readability statistics, hashed document embeddings,
string-kernel SVMs, a hand-backpropagated neural classifier, neighbor and
boosted-tree baselines, and a stacked ensemble with calibrated decision
thresholds.  See the module docstrings for the individual components and
``mgtdetect.cli`` for the command-line workflow.
"""

from .corpus import (
    Corpus,
    CorpusSummary,
    Document,
    Label,
    Language,
    SplitSpec,
    load_tsv,
    merge_bilingual,
    save_tsv,
    split,
    summarize,
)
from .config import AppConfig, load_config
from .embeddings import (
    EmbeddingTable,
    FallbackEmbedderConfig,
    embed_corpus,
    load_embeddings,
    save_embeddings,
)
from .ensemble import (
    EnsembleModel,
    ensemble_predict_labels,
    ensemble_predict_proba,
    meta_features,
    select_threshold,
    train_ensemble,
)
from .errors import ConfigError, DataError
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    evaluate_predictions,
    format_results_table,
    macro_f1,
    roc_curve,
)
from .kernels import (
    KernelConfig,
    KernelMatrix,
    NgramUnit,
    SvmModel,
    kernel_matrix,
    spectrum_kernel,
    svm_predict_proba,
    svm_train,
)
from .neural import (
    LabeledSet,
    MlpParams,
    MtlConfig,
    TrainConfig,
    VatConfig,
    mtl_loss,
    vat_loss,
    vat_perturbation,
)
from .neural import predict_proba as neural_predict_proba
from .neural import train as neural_train
from .pipeline import TrainedModel, load_model, save_model, train_model
from .readability import (
    ReadabilityFeatures,
    ScalerParams,
    fit_scaler,
    readability_features,
    readability_matrix,
    transform,
)
from .shallow import (
    GbtGrid,
    GbtModel,
    KnnModel,
    gbt_predict_proba_many,
    gbt_train,
    grid_search,
    knn_fit,
    knn_predict_proba_many,
)
from .textprep import count_syllables, preprocess, stem_word, tokenize

__version__ = "0.1.0"

__all__ = [
    "AppConfig",
    "ConfigError",
    "ConfusionMatrix",
    "Corpus",
    "CorpusSummary",
    "DataError",
    "Document",
    "EmbeddingTable",
    "EnsembleModel",
    "EvalReport",
    "FallbackEmbedderConfig",
    "GbtGrid",
    "GbtModel",
    "KernelConfig",
    "KernelMatrix",
    "KnnModel",
    "Label",
    "LabeledSet",
    "Language",
    "MlpParams",
    "MtlConfig",
    "NgramUnit",
    "ReadabilityFeatures",
    "ScalerParams",
    "SplitSpec",
    "SvmModel",
    "TrainConfig",
    "TrainedModel",
    "VatConfig",
    "count_syllables",
    "embed_corpus",
    "ensemble_predict_labels",
    "ensemble_predict_proba",
    "evaluate_predictions",
    "fit_scaler",
    "format_results_table",
    "gbt_predict_proba_many",
    "gbt_train",
    "grid_search",
    "kernel_matrix",
    "knn_fit",
    "knn_predict_proba_many",
    "load_config",
    "load_embeddings",
    "load_model",
    "load_tsv",
    "macro_f1",
    "merge_bilingual",
    "meta_features",
    "mtl_loss",
    "neural_predict_proba",
    "neural_train",
    "preprocess",
    "readability_features",
    "readability_matrix",
    "roc_curve",
    "save_embeddings",
    "save_model",
    "save_tsv",
    "select_threshold",
    "spectrum_kernel",
    "split",
    "stem_word",
    "summarize",
    "svm_predict_proba",
    "svm_train",
    "tokenize",
    "train_ensemble",
    "train_model",
    "transform",
    "__version__",
]
