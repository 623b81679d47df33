import pytest

from mgtdetect.config import (
    AppConfig,
    EnsembleSettings,
    SvmSettings,
    apply_env,
    load_config,
)
from mgtdetect.errors import ConfigError


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

    def test_bad_value_cites_location(self, tmp_path):
        path = write_config(tmp_path, "[knn]\nk = three\n")
        with pytest.raises(ConfigError, match=r"\[knn\] k"):
            load_config(path, environ={})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini", environ={})

    def test_out_of_band_values_rejected(self, tmp_path):
        path = write_config(tmp_path, "[neural]\nbatch_size = 16\n")
        with pytest.raises(ConfigError, match="batch_size"):
            load_config(path, environ={})


class TestSettingsValidation:
    def test_svm_settings(self):
        with pytest.raises(ConfigError):
            SvmSettings(C=0.0)
        with pytest.raises(ConfigError):
            SvmSettings(scale_warning_threshold=0)

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

    def test_no_overrides_is_identity(self):
        assert apply_env(AppConfig(), environ={}) == AppConfig()
