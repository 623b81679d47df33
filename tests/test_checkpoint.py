import base64
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mgtdetect.checkpoint import (
    FORMAT_VERSION,
    atomic_write_text,
    checkpoint_text,
    decode_array,
    encode_array,
    load_checkpoint,
    save_checkpoint,
)
from mgtdetect.cli import main as cli_main
from mgtdetect.corpus import save_tsv
from mgtdetect.embeddings import FallbackEmbedderConfig
from mgtdetect.errors import DataError
from mgtdetect.pipeline import BaseAdapter, Featurizer, TrainedModel, load_model, save_model
from mgtdetect.readability import ScalerParams
from mgtdetect.shallow import KnnModel

from synthdata import synthetic_corpus

# A knn checkpoint written by format version 2, committed so that a change
# to the stored form shows as a failure here.  Its rows are 10 readability
# features plus a 1-d hashed embedding.  It is ``save_model`` of
# ``golden_knn_model()``; write it again only with a new format version.
GOLDEN_PATH = Path(__file__).parent / "golden" / "knn_v2.json"
GOLDEN_KNN = {
    "x": [
        [0.1, -0.0, 5e-324, 1.5, -2.25, 0.0, 3.0, -1e-300, 0.5, 1.0, -1.0],
        [2.0, 0.25, -0.75, 0.001, 4.0, -3.5, 0.125, 2.5, -0.5, 0.0, 0.3333333333333333],
        [-1.25, 1.0, 0.0, -2.0, 0.5, 1.75, -0.125, 0.0, 2.0, -1.5, 7.0],
    ],
    "labels": [0, 1, 1],
    "means": [120.0, 6.0, 180.0, 12.0, 9.0, 4.5, 20.0, 60.0, 11.0, 10.0, 0.0],
    "stddevs": [40.0, 2.0, 60.0, 5.0, 4.0, 0.5, 6.0, 15.0, 3.0, 2.5, 1.0],
}


def golden_knn_model() -> TrainedModel:
    prep = Featurizer(
        embedder=FallbackEmbedderConfig(dim=1),
        embeddings_path="",
        scaler=ScalerParams(
            means=np.array(GOLDEN_KNN["means"]), stddevs=np.array(GOLDEN_KNN["stddevs"])
        ),
    )
    model = KnnModel(x=np.array(GOLDEN_KNN["x"]), labels=np.array(GOLDEN_KNN["labels"]), k=1)
    return TrainedModel("knn", BaseAdapter(kind="knn", model=model, prep=prep), 0.5)


def _through_json(obj):
    return json.loads(json.dumps(obj))


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOAT_EXTREMES = np.array(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]
)


class TestArrayCodec:
    @given(hnp.arrays(np.float64, _SHAPES, elements=_FINITE))
    @example(np.array(-0.0))
    @example(_FLOAT_EXTREMES)
    @example(_FLOAT_EXTREMES.reshape(2, 3))
    @example(np.zeros((0, 4)))
    @example(np.zeros((4, 0)))
    def test_float_round_trip_is_bit_exact(self, arr):
        restored = decode_array(_through_json(encode_array(arr)), np.float64)
        assert restored.dtype == np.float64
        assert restored.shape == arr.shape
        assert restored.tobytes() == arr.tobytes()

    @given(hnp.arrays(np.int64, _SHAPES))
    @example(np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max]))
    @example(np.array(np.iinfo(np.int64).min))
    @example(np.zeros((0, 0), dtype=np.int64))
    def test_int_round_trip_is_bit_exact(self, arr):
        restored = decode_array(_through_json(encode_array(arr)), np.int64)
        assert restored.dtype == np.int64
        assert restored.shape == arr.shape
        assert restored.tobytes() == arr.tobytes()

    def test_stored_form_is_little_endian_bytes(self):
        expected = {
            "dtype": "<f8",
            "shape": [1, 2],
            "b64": base64.b64encode(struct.pack("<2d", 1.5, -0.0)).decode("ascii"),
        }
        assert encode_array(np.array([[1.5, -0.0]])) == expected
        assert encode_array(np.array([[1.5, -0.0]], dtype=">f8")) == expected
        assert encode_array(np.array([7, -1]))["b64"] == base64.b64encode(
            struct.pack("<2q", 7, -1)
        ).decode("ascii")

    def test_only_float_and_int_arrays_are_stored(self):
        with pytest.raises(TypeError):
            encode_array(np.array([True, False]))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_decoded_arrays_are_native_writeable_copies(self, dtype):
        stored = encode_array(np.arange(6, dtype=dtype).reshape(2, 3))
        first, second = decode_array(stored, dtype), decode_array(stored, dtype)
        assert first.dtype.isnative and first.dtype == np.dtype(dtype)
        assert first.flags.writeable and first.flags.c_contiguous
        first[0, 0] = 9
        assert second[0, 0] == 0
        assert not np.shares_memory(first, second)


def _stored(values, **changes):
    obj = encode_array(np.asarray(values))
    obj.update(changes)
    return obj


def _without(key):
    obj = encode_array(np.array([1.0]))
    del obj[key]
    return obj


class TestArrayRefusals:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bytes(self, value):
        with pytest.raises(DataError, match="non-finite"):
            decode_array(_stored([1.0, value]), np.float64)

    @pytest.mark.parametrize(
        "values, dtype", [([1, 2], np.float64), ([1.0, 2.0], np.int64)]
    )
    def test_wrong_dtype(self, values, dtype):
        with pytest.raises(DataError, match="dtype"):
            decode_array(_stored(values), dtype)

    @pytest.mark.parametrize("shape", [[-1], [1.0], ["1"], [True], [[1]], 1, "1", None])
    def test_bad_shape(self, shape):
        with pytest.raises(DataError, match="shape"):
            decode_array(_stored([1.0], shape=shape), np.float64)

    @pytest.mark.parametrize("shape", [[3], [], [1, 1], [0]])
    def test_length_mismatch(self, shape):
        with pytest.raises(DataError, match="bytes"):
            decode_array(_stored([1.0, 2.0], shape=shape), np.float64)

    def test_empty_shape_numpy_cannot_index(self):
        with pytest.raises(DataError, match="shape"):
            decode_array(_stored(np.zeros(0), shape=[0, 2**70]), np.float64)

    @pytest.mark.parametrize(
        "b64", ["!!!!!!!!!!!=", "AAAAAAAAAAA", "AAAA AAAAAA=", "AAAAAAAAAAé=", 12, None]
    )
    def test_bad_base64(self, b64):
        with pytest.raises(DataError, match="base64"):
            decode_array(_stored([1.0], b64=b64), np.float64)

    @pytest.mark.parametrize("key", ["dtype", "shape", "b64"])
    def test_missing_key(self, key):
        with pytest.raises(DataError, match=f"missing \\['{key}'\\]"):
            decode_array(_without(key), np.float64)

    @pytest.mark.parametrize("obj", [[1.0, 2.0], "AAAAAAAAAAA=", None])
    def test_not_an_object(self, obj):
        with pytest.raises(DataError, match="object"):
            decode_array(obj, np.float64)


class TestRoundTrip:
    def test_kind_and_payload_survive(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, "gbt", {"alpha": 1.5, "name": "x"})
        kind, payload = load_checkpoint(path)
        assert kind == "gbt"
        assert payload == {"alpha": 1.5, "name": "x"}

    def test_floats_bit_exact(self, tmp_path):
        values = [0.1, 1e-300, 1.7976931348623157e308, -0.3333333333333333,
                  5e-324, 123456789.123456789]
        path = tmp_path / "f.json"
        save_checkpoint(path, "knn", {"values": values})
        _, payload = load_checkpoint(path)
        for original, restored in zip(values, payload["values"]):
            assert restored == original

    def test_expected_kind_enforced(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(path, "svm", {})
        assert load_checkpoint(path, expected_kind="svm")[0] == "svm"
        with pytest.raises(DataError, match="expected"):
            load_checkpoint(path, expected_kind="gbt")

    def test_document_shape(self, tmp_path):
        text = checkpoint_text("neural", {"a": 1})
        blob = json.loads(text)
        assert blob == {"format_version": FORMAT_VERSION, "kind": "neural",
                        "payload": {"a": 1}}
        assert text.endswith("\n")
        assert text.count("\n") == 1


class TestValidation:
    def test_unknown_kind_on_save(self, tmp_path):
        with pytest.raises(DataError):
            save_checkpoint(tmp_path / "x.json", "transformer", {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.json")

    def test_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_number(self, tmp_path, token):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"format_version": %d, "kind": "knn", "payload": {"threshold": %s}}'
            % (FORMAT_VERSION, token),
            encoding="utf-8",
        )
        message = f"nan.json is not valid JSON: non-finite number {token}"
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"format_version": 0, "kind": "gbt", "payload": {}}),
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="format version"):
            load_checkpoint(path)

    def test_version_1_must_be_retrained(self, tmp_path):
        # Version 1 stored every array as nested JSON lists.
        path = tmp_path / "v1.json"
        payload = {"model": {"k": 1, "x": [[0.5, 1.0]], "labels": [1]}, "threshold": 0.5}
        path.write_text(
            json.dumps({"format_version": 1, "kind": "knn", "payload": payload}),
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="format version 1; .* retrain the model"):
            load_checkpoint(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin.json"
        text = checkpoint_text("gbt", {"name": "caf\u00e9"})
        path.write_bytes(text.encode("latin-1"))
        offset = text.index("\u00e9")  # every character before it is ASCII
        with pytest.raises(DataError, match=f"latin.json: not valid UTF-8 at byte {offset} "):
            load_checkpoint(path)

    def test_unknown_kind_on_load(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps({"format_version": FORMAT_VERSION, "kind": "rnn", "payload": {}}),
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="unknown kind"):
            load_checkpoint(path)

    def test_missing_payload(self, tmp_path):
        path = tmp_path / "np.json"
        path.write_text(
            json.dumps({"format_version": FORMAT_VERSION, "kind": "gbt"}), encoding="utf-8"
        )
        with pytest.raises(DataError, match="payload"):
            load_checkpoint(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(DataError, match="JSON object"):
            load_checkpoint(path)


class TestAtomicWrite:
    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "t.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text(encoding="utf-8") == "two"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.txt"
        atomic_write_text(path, "hello")
        assert path.read_text(encoding="utf-8") == "hello"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "t.txt"
        atomic_write_text(path, "payload")
        assert os.listdir(tmp_path) == ["t.txt"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "t.txt"
        previous = os.umask(umask)
        try:
            atomic_write_text(path, "payload")
            atomic_write_text(path, "payload, again")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert path.read_bytes() == b"payload, again"


class TestGoldenCheckpoint:
    def test_decodes_to_the_written_values(self):
        _, payload = load_checkpoint(GOLDEN_PATH, expected_kind="knn")
        scaler = payload["featurizer"]["scaler"]
        stored = {
            "x": decode_array(payload["model"]["x"], np.float64),
            "labels": decode_array(payload["model"]["labels"], np.int64),
            "means": decode_array(scaler["means"], np.float64),
            "stddevs": decode_array(scaler["stddevs"], np.float64),
        }
        for name, arr in stored.items():
            expected = np.array(GOLDEN_KNN[name])
            assert arr.dtype == expected.dtype and arr.shape == expected.shape, name
            assert arr.tobytes() == expected.tobytes(), name
        loaded = load_model(GOLDEN_PATH)
        assert loaded.adapter.model.x.tobytes() == stored["x"].tobytes()
        assert loaded.adapter.model.k == 1 and loaded.threshold == 0.5

    def test_writer_reproduces_the_golden_bytes(self, tmp_path):
        save_model(golden_knn_model(), tmp_path / "knn.json")
        assert (tmp_path / "knn.json").read_bytes() == GOLDEN_PATH.read_bytes()

    def _predict(self, tmp_path, model_path):
        corpus = tmp_path / "probe.tsv"
        save_tsv(synthetic_corpus(3, 3, seed=2, name="probe", labeled=False), corpus)
        out = tmp_path / "p.tsv"
        code = cli_main(
            ["predict", "--corpus", f"en={corpus}", "--model-path", str(model_path),
             "--output", str(out)]
        )
        return code, out

    def test_serves_through_the_cli(self, tmp_path):
        code, out = self._predict(tmp_path, GOLDEN_PATH)
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 7

    def test_non_finite_array_is_exit_2(self, tmp_path, capsys):
        kind, payload = load_checkpoint(GOLDEN_PATH)
        x = np.array(GOLDEN_KNN["x"])
        x[1, 2] = float("inf")
        payload["model"]["x"] = encode_array(x)
        damaged = tmp_path / "knn.json"
        save_checkpoint(damaged, kind, payload)
        code, out = self._predict(tmp_path, damaged)
        assert code == 2
        assert not out.exists()
        assert (
            f"checkpoint {damaged}: malformed neighbor model: "
            "array holds a non-finite number"
        ) in capsys.readouterr().err
