import configparser
import dataclasses
import math
import re
from pathlib import Path

import pytest

from mgtdetect import config
from mgtdetect.config import (
    AppConfig,
    EnsembleSettings,
    SvmSettings,
    apply_env,
    load_config,
    with_fields,
)
from mgtdetect.errors import ConfigError
from mgtdetect.shallow import GbtGrid

README = Path(__file__).resolve().parent.parent / "README.md"

SCHEMA_KEYS = [(section, key) for section, keys in config._SCHEMA.items() for key in keys]

# One valid value per INI key, each different from that key's default.
NON_DEFAULT = {
    ("split", "train_fraction"): "0.7",
    ("split", "seed"): "5",
    ("split", "stratify"): "true",
    ("features", "embedding_dim"): "64",
    ("features", "embedding_seed"): "7",
    ("features", "ngram_min"): "2",
    ("features", "ngram_max"): "6",
    ("features", "embeddings_path"): "vectors.tsv",
    ("neural", "learning_rate"): "0.001",
    ("neural", "epochs"): "2",
    ("neural", "batch_size"): "24",
    ("neural", "dropout"): "0.1",
    ("neural", "weight_decay"): "0.0",
    ("neural", "early_stopping_patience"): "2",
    ("neural", "seed"): "3",
    ("neural", "hidden"): "32",
    ("neural", "mtl"): "yes",
    ("neural", "mtl_alpha"): "0.7",
    ("neural", "vat"): "on",
    ("neural", "vat_alpha"): "0.5",
    ("neural", "vat_epsilon"): "2.0",
    ("neural", "vat_xi"): "5.0",
    ("neural", "vat_power_iterations"): "2",
    ("svm", "c"): "10.0",
    ("svm", "seed"): "4",
    ("knn", "k"): "3",
    ("gbt", "estimators"): "5, 10",
    ("gbt", "depths"): "3",
    ("gbt", "learning_rates"): "0.01, 0.1",
    ("ensemble", "bases"): "neural, knn",
    ("ensemble", "holdout_fraction"): "0.3",
    ("ensemble", "seed"): "9",
    ("ensemble", "threshold_rule"): "youden",
}


def leaves(tree, prefix=""):
    """Flatten nested ``dataclasses.asdict`` output to ``{dotted path: value}``."""
    flat = {}
    for name, value in tree.items():
        if isinstance(value, dict):
            flat.update(leaves(value, f"{prefix}{name}."))
        else:
            flat[prefix + name] = value
    return flat


DEFAULT_LEAVES = leaves(dataclasses.asdict(AppConfig()))


def is_float_setting(value):
    if isinstance(value, tuple):
        return all(isinstance(item, float) for item in value)
    return isinstance(value, float)


FLOAT_KEYS = [
    (section, key)
    for section, key in SCHEMA_KEYS
    if is_float_setting(DEFAULT_LEAVES[config._SCHEMA[section][key][0]])
]
FLOAT_PATHS = [path for path, value in DEFAULT_LEAVES.items() if is_float_setting(value)]
# Each value a parser refuses, set on its AppConfig field path directly.
UNPARSEABLE_VALUES = [
    (path, bad) for path in FLOAT_PATHS for bad in (math.nan, math.inf, -math.inf)
] + [(path, bad) for path in config._SEED_PATHS for bad in (-1, 2**64)]
SEED_KEYS = [
    (section, key)
    for section, key in SCHEMA_KEYS
    if config._SCHEMA[section][key][0] in config._SEED_PATHS
]


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_absent_file_means_library_defaults(self):
        cfg = load_config(None, environ={})
        assert cfg.split.train_fraction == 0.8
        assert cfg.embedder.dim == 300
        assert cfg.embedder.ngram_min == 3
        assert cfg.embedder.ngram_max == 5
        assert cfg.train.learning_rate == 1e-5
        assert cfg.train.epochs == 3
        assert cfg.train.dropout == 0.2
        assert cfg.hidden == 64
        assert cfg.mtl.alpha == 0.5
        assert not cfg.mtl.enabled
        assert cfg.vat.alpha_vat == 1.0
        assert cfg.vat.epsilon == 1.0
        assert cfg.vat.xi == 10.0
        assert cfg.vat.power_iterations == 1
        assert cfg.knn_k == 10
        assert cfg.svm.C == 1.0
        assert cfg.ensemble.bases == ("neural", "gbt", "knn")
        assert cfg.ensemble.threshold_rule == "sum_to_one"

    def test_empty_file_equals_defaults(self, tmp_path):
        path = write_config(tmp_path, "")
        assert load_config(path, environ={}) == load_config(None, environ={})


class TestParsing:
    def test_full_file(self, tmp_path):
        path = write_config(
            tmp_path,
            """
[split]
train_fraction = 0.7
seed = 5
stratify = true

[features]
embedding_dim = 64
ngram_min = 2
ngram_max = 4
embeddings_path = vectors.tsv

[neural]
learning_rate = 0.001
epochs = 2
batch_size = 24
dropout = 0.1
hidden = 32
mtl = yes
mtl_alpha = 0.7
vat = on
vat_epsilon = 2.0

[svm]
C = 10.0

[knn]
k = 3

[gbt]
estimators = 5, 10
depths = 3
learning_rates = 0.01, 0.1

[ensemble]
bases = neural, knn
holdout_fraction = 0.3
threshold_rule = youden
""",
        )
        cfg = load_config(path, environ={})
        assert cfg.split.train_fraction == 0.7
        assert cfg.split.stratify_by_label is True
        assert cfg.embedder.dim == 64
        assert cfg.embeddings_path == "vectors.tsv"
        assert cfg.train.batch_size == 24
        assert cfg.hidden == 32
        assert cfg.mtl.enabled and cfg.mtl.alpha == 0.7
        assert cfg.vat.enabled and cfg.vat.epsilon == 2.0
        assert cfg.svm.C == 10.0
        assert cfg.knn_k == 3
        assert cfg.gbt_grid.estimators == (5, 10)
        assert cfg.gbt_grid.depths == (3,)
        assert cfg.gbt_grid.learning_rates == (0.01, 0.1)
        assert cfg.ensemble.bases == ("neural", "knn")
        assert cfg.ensemble.holdout_fraction == 0.3
        assert cfg.ensemble.threshold_rule == "youden"

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path, environ={})

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[neural]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match="lr"):
            load_config(path, environ={})

    def test_removed_svm_scale_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[svm]\nscale_warning_threshold = 5000\n")
        with pytest.raises(ConfigError, match="scale_warning_threshold"):
            load_config(path, environ={})

    def test_bad_value_cites_location(self, tmp_path):
        path = write_config(tmp_path, "[knn]\nk = three\n")
        with pytest.raises(ConfigError, match=r"\[knn\] k"):
            load_config(path, environ={})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini", environ={})

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_non_finite_numbers_rejected(self, tmp_path, section, key, bad):
        value = f"0.1, {bad}" if key == "learning_rates" else bad
        path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"bad value for \[{section}\] {key}: not a finite"):
            load_config(path, environ={})

    def test_float_keys_include_the_gbt_rate_list(self):
        assert ("gbt", "learning_rates") in FLOAT_KEYS
        assert ("svm", "c") in FLOAT_KEYS

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    @pytest.mark.parametrize("section,key", SEED_KEYS)
    def test_out_of_range_seeds_rejected(self, tmp_path, section, key, value):
        path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"bad value for \[{section}\] {key}: seed"):
            load_config(path, environ={})

    def test_largest_seed_accepted(self, tmp_path):
        path = write_config(tmp_path, f"[features]\nembedding_seed = {2**64 - 1}\n")
        assert load_config(path, environ={}).embedder.seed == 2**64 - 1

    @pytest.mark.parametrize(
        "key,value", [("learning_rates", "-0.5"), ("estimators", "0"), ("depths", "3, 0")]
    )
    def test_bad_gbt_grid_values_rejected(self, tmp_path, key, value):
        path = write_config(tmp_path, f"[gbt]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"gbt {key} must"):
            load_config(path, environ={})

    def test_out_of_band_values_rejected(self, tmp_path):
        path = write_config(tmp_path, "[neural]\nbatch_size = 16\n")
        with pytest.raises(ConfigError, match="batch_size"):
            load_config(path, environ={})


class TestSchema:
    @pytest.mark.parametrize("section,key", SCHEMA_KEYS)
    def test_each_key_sets_exactly_its_field(self, tmp_path, section, key):
        path = write_config(tmp_path, f"[{section}]\n{key} = {NON_DEFAULT[section, key]}\n")
        changed = leaves(dataclasses.asdict(load_config(path, environ={})))
        assert {p for p, v in changed.items() if v != DEFAULT_LEAVES[p]} == {
            config._SCHEMA[section][key][0]
        }

    def test_every_field_has_one_key(self):
        paths = [field_path for keys in config._SCHEMA.values() for field_path, _ in keys.values()]
        assert sorted(paths) == sorted(DEFAULT_LEAVES)

    def test_seed_paths_are_every_seed_field(self):
        def seed_fields(obj, prefix=""):
            for field in dataclasses.fields(obj):
                value = getattr(obj, field.name)
                if dataclasses.is_dataclass(value):
                    yield from seed_fields(value, f"{prefix}{field.name}.")
                elif field.name == "seed":
                    yield prefix + field.name

        assert sorted(config._SEED_PATHS) == sorted(seed_fields(AppConfig()))
        assert len(SEED_KEYS) == 5

    def test_validation_sees_the_final_combination(self, tmp_path):
        # ngram_min = 6 alone would exceed the default ngram_max of 5
        path = write_config(tmp_path, "[features]\nngram_min = 6\nngram_max = 8\n")
        cfg = load_config(path, environ={})
        assert (cfg.embedder.ngram_min, cfg.embedder.ngram_max) == (6, 8)

    def test_readme_block_is_the_defaults(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", text, flags=re.DOTALL)
        assert len(blocks) == 1
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(blocks[0])
        assert {(s, k) for s in parser.sections() for k in parser[s]} == set(SCHEMA_KEYS)
        assert load_config(write_config(tmp_path, blocks[0]), environ={}) == AppConfig()


class TestWithFields:
    def test_sets_nested_and_top_level_fields(self):
        cfg = with_fields(AppConfig(), {"embedder.dim": 16, "knn_k": 3, "mtl.enabled": True})
        assert (cfg.embedder.dim, cfg.knn_k, cfg.mtl.enabled) == (16, 3, True)
        assert cfg.embedder.ngram_max == AppConfig().embedder.ngram_max

    def test_no_values_is_identity(self):
        assert with_fields(AppConfig(), {}) == AppConfig()

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="nonsense"):
            with_fields(AppConfig(), {"nonsense.x": 1})

    def test_first_invalid_settings_object_raises_first(self):
        # split comes before train in AppConfig, so its error wins
        with pytest.raises(ConfigError, match="train_fraction"):
            with_fields(AppConfig(), {"train.batch_size": 8, "split.train_fraction": 2.0})


class TestSettingsValidation:
    def test_svm_settings(self):
        with pytest.raises(ConfigError):
            SvmSettings(C=0.0)

    def test_ensemble_settings(self):
        with pytest.raises(ConfigError):
            EnsembleSettings(bases=())
        with pytest.raises(ConfigError):
            EnsembleSettings(bases=("neural", "neural"))
        with pytest.raises(ConfigError):
            EnsembleSettings(bases=("transformer",))
        with pytest.raises(ConfigError):
            EnsembleSettings(holdout_fraction=1.0)
        with pytest.raises(ConfigError):
            EnsembleSettings(threshold_rule="accuracy")

    @pytest.mark.parametrize("path,bad", UNPARSEABLE_VALUES)
    def test_settings_refuse_what_the_parsers_refuse(self, path, bad):
        if isinstance(DEFAULT_LEAVES[path], tuple):
            bad = (0.1, bad)
        leaf = path.rpartition(".")[2]
        with pytest.raises(ConfigError, match=rf"\.{leaf} must"):
            with_fields(AppConfig(), {path: bad})

    def test_gbt_grid(self):
        with pytest.raises(ConfigError, match=r"rates must be positive, got \(-0\.5,\)"):
            GbtGrid(learning_rates=(-0.5,))
        with pytest.raises(ConfigError, match="gbt learning_rates must be positive"):
            GbtGrid(learning_rates=(0.1, 0.0))
        with pytest.raises(ConfigError, match="gbt estimators must be at least 1"):
            GbtGrid(estimators=(0,))
        with pytest.raises(ConfigError, match="gbt depths must be at least 1"):
            GbtGrid(depths=(3, 0))
        assert GbtGrid(estimators=(1,), depths=(1,), learning_rates=(1e-9,))

    def test_app_config_validation(self):
        with pytest.raises(ConfigError):
            AppConfig(hidden=0)
        with pytest.raises(ConfigError):
            AppConfig(knn_k=0)


class TestEnvironment:
    def test_seed_override_reaches_every_component(self):
        cfg = apply_env(AppConfig(), environ={"MGTDETECT_SEED": "99"})
        assert cfg.split.seed == 99
        assert cfg.embedder.seed == 99
        assert cfg.train.seed == 99
        assert cfg.svm.seed == 99
        assert cfg.ensemble.seed == 99

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigError):
            apply_env(AppConfig(), environ={"MGTDETECT_SEED": "abc"})

    @pytest.mark.parametrize("value", ["-5", str(2**64)])
    def test_out_of_range_seed_rejected(self, value):
        with pytest.raises(ConfigError, match="MGTDETECT_SEED"):
            apply_env(AppConfig(), environ={"MGTDETECT_SEED": value})

    def test_no_overrides_is_identity(self):
        assert apply_env(AppConfig(), environ={}) == AppConfig()
