"""INI configuration for the command-line tools.

One section per subsystem, with defaults equal to the library defaults,
so an empty or absent file configures the documented behavior.  Unknown
sections and unknown keys are rejected rather than ignored; a typo in a
tuning knob should fail loudly, not silently run the defaults.  So does a
removed key: ``[svm] scale_warning_threshold`` warned about a dense Gram
that svm training no longer builds, and a file that still sets it fails.

``_SCHEMA`` is the one table of settings: each INI key names, once, the
``AppConfig`` field it sets (a dotted path such as ``"embedder.dim"``)
and the parser that reads its text.  Defaults are written only on the
settings dataclasses.  Parsers refuse what no setting accepts: seeds
outside [0, 2**64) and numbers that are not finite; each settings
dataclass refuses the same through ``errors.check_settings``, so library
callers meet the same boundary as the INI file.  ``with_fields``
applies a set of paths to a configuration, rebuilding each nested
settings object once so its validation sees the final combination.

One environment variable applies after the file is parsed:
``MGTDETECT_SEED`` overrides every seed in the configuration at once,
which gives scripts a single lever for reproducibility sweeps.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .checkpoint import MODEL_KINDS
from .corpus import SplitSpec
from .embeddings import FallbackEmbedderConfig
from .ensemble import THRESHOLD_RULES
from .errors import ConfigError, DataError, check_settings, decode_utf8
from .neural import HIDDEN_UNITS, MtlConfig, TrainConfig, VatConfig
from .shallow import GbtGrid

SEED_ENV_VAR = "MGTDETECT_SEED"

BASE_MODEL_NAMES = tuple(kind for kind in MODEL_KINDS if kind != "ensemble")


@dataclass(frozen=True)
class SvmSettings:
    C: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self)
        if self.C <= 0:
            raise ConfigError(f"svm C must be positive, got {self.C}")


@dataclass(frozen=True)
class EnsembleSettings:
    bases: tuple[str, ...] = ("neural", "gbt", "knn")
    holdout_fraction: float = 0.25
    seed: int = 0
    threshold_rule: str = "sum_to_one"

    def __post_init__(self) -> None:
        check_settings(self)
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
    hidden: int = HIDDEN_UNITS
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


def _parse_seed(text: str) -> int:
    # The hashing embedder packs its seed into 8 unsigned bytes.
    seed = _parse_int(text)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _parse_float(text: str) -> float:
    value = float(text.strip())
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _list_of(item: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        return tuple(item(part) for part in text.split(",") if part.strip())

    return parse


# section -> key -> (AppConfig field path, parser)
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "split": {
        "train_fraction": ("split.train_fraction", _parse_float),
        "seed": ("split.seed", _parse_seed),
        "stratify": ("split.stratify_by_label", _parse_bool),
    },
    "features": {
        "embedding_dim": ("embedder.dim", _parse_int),
        "embedding_seed": ("embedder.seed", _parse_seed),
        "ngram_min": ("embedder.ngram_min", _parse_int),
        "ngram_max": ("embedder.ngram_max", _parse_int),
        "embeddings_path": ("embeddings_path", _parse_str),
    },
    "neural": {
        "learning_rate": ("train.learning_rate", _parse_float),
        "epochs": ("train.epochs", _parse_int),
        "batch_size": ("train.batch_size", _parse_int),
        "dropout": ("train.dropout", _parse_float),
        "weight_decay": ("train.weight_decay", _parse_float),
        "early_stopping_patience": ("train.early_stopping_patience", _parse_int),
        "seed": ("train.seed", _parse_seed),
        "hidden": ("hidden", _parse_int),
        "mtl": ("mtl.enabled", _parse_bool),
        "mtl_alpha": ("mtl.alpha", _parse_float),
        "vat": ("vat.enabled", _parse_bool),
        "vat_alpha": ("vat.alpha_vat", _parse_float),
        "vat_epsilon": ("vat.epsilon", _parse_float),
        "vat_xi": ("vat.xi", _parse_float),
        "vat_power_iterations": ("vat.power_iterations", _parse_int),
    },
    "svm": {
        "c": ("svm.C", _parse_float),
        "seed": ("svm.seed", _parse_seed),
    },
    "knn": {
        "k": ("knn_k", _parse_int),
    },
    "gbt": {
        "estimators": ("gbt_grid.estimators", _list_of(_parse_int)),
        "depths": ("gbt_grid.depths", _list_of(_parse_int)),
        "learning_rates": ("gbt_grid.learning_rates", _list_of(_parse_float)),
    },
    "ensemble": {
        "bases": ("ensemble.bases", _list_of(_parse_str)),
        "holdout_fraction": ("ensemble.holdout_fraction", _parse_float),
        "seed": ("ensemble.seed", _parse_seed),
        "threshold_rule": ("ensemble.threshold_rule", _parse_str),
    },
}

_SEED_PATHS = tuple(
    path
    for section in _SCHEMA.values()
    for path, parse in section.values()
    if parse is _parse_seed
)


def _read_values(path: Path) -> dict[str, object]:
    """Parse the INI file into ``{field path: value}``."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = decode_utf8(path.read_bytes(), path)
        # Universal newlines, as a file opened in text mode reads them.
        parser.read_file(io.StringIO(text, newline=None), source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except DataError as exc:
        raise ConfigError(f"cannot read config {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}]; "
                f"expected one of {sorted(_SCHEMA)}"
            )
        section_schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in section_schema:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(section_schema)}"
                )
            field_path, parse = section_schema[key]
            try:
                values[field_path] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc
    return values


def with_fields(cfg: AppConfig, values: Mapping[str, object]) -> AppConfig:
    """Return ``cfg`` with each ``"field"`` or ``"field.subfield"`` path set.

    Each nested settings object is rebuilt once, with all of its new
    values, in ``AppConfig`` field order, so its validation sees the
    final combination and the first invalid object raises first.
    """
    changes: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for path, value in values.items():
        head, dot, leaf = path.partition(".")
        if dot:
            nested.setdefault(head, {})[leaf] = value
        else:
            changes[head] = value
    for field in dataclasses.fields(cfg):
        if field.name in nested:
            updates = nested.pop(field.name)
            changes[field.name] = dataclasses.replace(getattr(cfg, field.name), **updates)
    if nested:
        raise TypeError(f"AppConfig has no settings objects {sorted(nested)}")
    return dataclasses.replace(cfg, **changes)


def apply_env(cfg: AppConfig, environ: Mapping[str, str] | None = None) -> AppConfig:
    """Fold the ``MGTDETECT_SEED`` override into a parsed configuration."""
    env = os.environ if environ is None else environ
    raw_seed = env.get(SEED_ENV_VAR)
    if raw_seed is None:
        return cfg
    try:
        seed = _parse_seed(raw_seed)
    except ValueError as exc:
        raise ConfigError(
            f"{SEED_ENV_VAR} must be an integer in [0, 2**64), got {raw_seed!r}"
        ) from exc
    return with_fields(cfg, dict.fromkeys(_SEED_PATHS, seed))


def load_config(path: str | Path | None, environ: Mapping[str, str] | None = None) -> AppConfig:
    """Parse the INI file (None means all defaults) and apply the environment."""
    values = {} if path is None else _read_values(Path(path))
    return apply_env(with_fields(AppConfig(), values), environ)
