"""INI configuration for the command-line tools.

One section per subsystem, with defaults equal to the library defaults,
so an empty or absent file configures the documented behavior.  Unknown
sections and unknown keys are rejected rather than ignored; a typo in a
tuning knob should fail loudly, not silently run the defaults.

One environment variable applies after the file is parsed:
``MGTDETECT_SEED`` overrides every seed in the configuration at once,
which gives scripts a single lever for reproducibility sweeps.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .checkpoint import MODEL_KINDS
from .corpus import SplitSpec
from .embeddings import FallbackEmbedderConfig
from .ensemble import THRESHOLD_RULES
from .errors import ConfigError
from .neural import MtlConfig, TrainConfig, VatConfig
from .shallow import GbtGrid

SEED_ENV_VAR = "MGTDETECT_SEED"

BASE_MODEL_NAMES = tuple(kind for kind in MODEL_KINDS if kind != "ensemble")

DEFAULT_SVM_SCALE_WARNING = 5000
DEFAULT_ENSEMBLE_BASES = ("neural", "gbt", "knn")
DEFAULT_HOLDOUT_FRACTION = 0.25


@dataclass(frozen=True)
class SvmSettings:
    C: float = 1.0
    seed: int = 0
    scale_warning_threshold: int = DEFAULT_SVM_SCALE_WARNING

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ConfigError(f"svm C must be positive, got {self.C}")
        if self.scale_warning_threshold < 1:
            raise ConfigError(
                "svm scale_warning_threshold must be at least 1, got "
                f"{self.scale_warning_threshold}"
            )


@dataclass(frozen=True)
class EnsembleSettings:
    bases: tuple[str, ...] = DEFAULT_ENSEMBLE_BASES
    holdout_fraction: float = DEFAULT_HOLDOUT_FRACTION
    seed: int = 0
    threshold_rule: str = "sum_to_one"

    def __post_init__(self) -> None:
        if not self.bases:
            raise ConfigError("ensemble needs at least one base model")
        unknown = sorted(set(self.bases) - set(BASE_MODEL_NAMES))
        if unknown:
            raise ConfigError(
                f"unknown base models {unknown}, expected a subset of {BASE_MODEL_NAMES}"
            )
        if len(set(self.bases)) != len(self.bases):
            raise ConfigError(f"duplicate base models in {self.bases}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(
                f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}"
            )
        if self.threshold_rule not in THRESHOLD_RULES:
            raise ConfigError(
                f"unknown threshold rule {self.threshold_rule!r}, expected {THRESHOLD_RULES}"
            )


@dataclass(frozen=True)
class AppConfig:
    split: SplitSpec = SplitSpec(train_fraction=0.8, seed=0)
    embedder: FallbackEmbedderConfig = FallbackEmbedderConfig()
    embeddings_path: str = ""
    train: TrainConfig = TrainConfig()
    hidden: int = 64
    mtl: MtlConfig = MtlConfig()
    vat: VatConfig = VatConfig()
    svm: SvmSettings = SvmSettings()
    knn_k: int = 10
    gbt_grid: GbtGrid = GbtGrid()
    ensemble: EnsembleSettings = EnsembleSettings()

    def __post_init__(self) -> None:
        if self.hidden < 1:
            raise ConfigError(f"neural hidden must be at least 1, got {self.hidden}")
        if self.knn_k < 1:
            raise ConfigError(f"knn k must be at least 1, got {self.knn_k}")


def _parse_int(text: str) -> int:
    return int(text.strip())


def _parse_float(text: str) -> float:
    return float(text.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in text.split(",") if part.strip())


def _parse_name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "split": {
        "train_fraction": _parse_float,
        "seed": _parse_int,
        "stratify": _parse_bool,
    },
    "features": {
        "embedding_dim": _parse_int,
        "embedding_seed": _parse_int,
        "ngram_min": _parse_int,
        "ngram_max": _parse_int,
        "embeddings_path": _parse_str,
    },
    "neural": {
        "learning_rate": _parse_float,
        "epochs": _parse_int,
        "batch_size": _parse_int,
        "dropout": _parse_float,
        "weight_decay": _parse_float,
        "early_stopping_patience": _parse_int,
        "seed": _parse_int,
        "hidden": _parse_int,
        "mtl": _parse_bool,
        "mtl_alpha": _parse_float,
        "vat": _parse_bool,
        "vat_alpha": _parse_float,
        "vat_epsilon": _parse_float,
        "vat_xi": _parse_float,
        "vat_power_iterations": _parse_int,
    },
    "svm": {
        "c": _parse_float,
        "seed": _parse_int,
        "scale_warning_threshold": _parse_int,
    },
    "knn": {
        "k": _parse_int,
    },
    "gbt": {
        "estimators": _parse_int_list,
        "depths": _parse_int_list,
        "learning_rates": _parse_float_list,
    },
    "ensemble": {
        "bases": _parse_name_list,
        "holdout_fraction": _parse_float,
        "seed": _parse_int,
        "threshold_rule": _parse_str,
    },
}


def _read_values(path: Path) -> dict[str, dict[str, object]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}]; "
                f"expected one of {sorted(_SCHEMA)}"
            )
        section_schema = _SCHEMA[section]
        parsed: dict[str, object] = {}
        for key, raw in parser.items(section):
            if key not in section_schema:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(section_schema)}"
                )
            try:
                parsed[key] = section_schema[key](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc
        values[section] = parsed
    return values


def _build(values: dict[str, dict[str, object]]) -> AppConfig:
    split_v = values.get("split", {})
    feat_v = values.get("features", {})
    neural_v = values.get("neural", {})
    svm_v = values.get("svm", {})
    knn_v = values.get("knn", {})
    gbt_v = values.get("gbt", {})
    ens_v = values.get("ensemble", {})
    split = SplitSpec(
        train_fraction=split_v.get("train_fraction", 0.8),
        seed=split_v.get("seed", 0),
        stratify_by_label=split_v.get("stratify", False),
    )
    embedder = FallbackEmbedderConfig(
        dim=feat_v.get("embedding_dim", 300),
        ngram_min=feat_v.get("ngram_min", 3),
        ngram_max=feat_v.get("ngram_max", 5),
        seed=feat_v.get("embedding_seed", 0),
    )
    train_cfg = TrainConfig(
        learning_rate=neural_v.get("learning_rate", 1e-5),
        epochs=neural_v.get("epochs", 3),
        batch_size=neural_v.get("batch_size", 32),
        dropout=neural_v.get("dropout", 0.2),
        weight_decay=neural_v.get("weight_decay", 0.01),
        early_stopping_patience=neural_v.get("early_stopping_patience", 1),
        seed=neural_v.get("seed", 0),
    )
    mtl = MtlConfig(
        enabled=neural_v.get("mtl", False),
        alpha=neural_v.get("mtl_alpha", 0.5),
    )
    vat = VatConfig(
        enabled=neural_v.get("vat", False),
        alpha_vat=neural_v.get("vat_alpha", 1.0),
        epsilon=neural_v.get("vat_epsilon", 1.0),
        xi=neural_v.get("vat_xi", 10.0),
        power_iterations=neural_v.get("vat_power_iterations", 1),
    )
    svm = SvmSettings(
        C=svm_v.get("c", 1.0),
        seed=svm_v.get("seed", 0),
        scale_warning_threshold=svm_v.get(
            "scale_warning_threshold", DEFAULT_SVM_SCALE_WARNING
        ),
    )
    grid = GbtGrid(
        estimators=gbt_v.get("estimators", GbtGrid().estimators),
        depths=gbt_v.get("depths", GbtGrid().depths),
        learning_rates=gbt_v.get("learning_rates", GbtGrid().learning_rates),
    )
    ensemble = EnsembleSettings(
        bases=ens_v.get("bases", DEFAULT_ENSEMBLE_BASES),
        holdout_fraction=ens_v.get("holdout_fraction", DEFAULT_HOLDOUT_FRACTION),
        seed=ens_v.get("seed", 0),
        threshold_rule=ens_v.get("threshold_rule", "sum_to_one"),
    )
    return AppConfig(
        split=split,
        embedder=embedder,
        embeddings_path=feat_v.get("embeddings_path", ""),
        train=train_cfg,
        hidden=neural_v.get("hidden", 64),
        mtl=mtl,
        vat=vat,
        svm=svm,
        knn_k=knn_v.get("k", 10),
        gbt_grid=grid,
        ensemble=ensemble,
    )


def apply_env(cfg: AppConfig, environ: Mapping[str, str] | None = None) -> AppConfig:
    """Fold the ``MGTDETECT_SEED`` override into a parsed configuration."""
    env = os.environ if environ is None else environ
    raw_seed = env.get(SEED_ENV_VAR)
    if raw_seed is None:
        return cfg
    try:
        seed = int(raw_seed)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw_seed!r}") from exc
    return dataclasses.replace(
        cfg,
        split=dataclasses.replace(cfg.split, seed=seed),
        embedder=dataclasses.replace(cfg.embedder, seed=seed),
        train=dataclasses.replace(cfg.train, seed=seed),
        svm=dataclasses.replace(cfg.svm, seed=seed),
        ensemble=dataclasses.replace(cfg.ensemble, seed=seed),
    )


def load_config(path: str | Path | None, environ: Mapping[str, str] | None = None) -> AppConfig:
    """Parse the INI file (None means all defaults) and apply the environment."""
    if path is None:
        cfg = AppConfig()
    else:
        cfg = _build(_read_values(Path(path)))
    return apply_env(cfg, environ)
