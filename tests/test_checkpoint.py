import json
import os
import stat

import pytest

from mgtdetect.checkpoint import (
    FORMAT_VERSION,
    atomic_write_text,
    checkpoint_text,
    load_checkpoint,
    save_checkpoint,
)
from mgtdetect.errors import DataError


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

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"format_version": 0, "kind": "gbt", "payload": {}}),
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="format version"):
            load_checkpoint(path)

    def test_unknown_kind_on_load(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps({"format_version": 1, "kind": "rnn", "payload": {}}),
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="unknown kind"):
            load_checkpoint(path)

    def test_missing_payload(self, tmp_path):
        path = tmp_path / "np.json"
        path.write_text(
            json.dumps({"format_version": 1, "kind": "gbt"}), encoding="utf-8"
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
