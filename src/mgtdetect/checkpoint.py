"""Versioned JSON checkpoints with atomic writes.

Every checkpoint is a single JSON document with three top-level keys:
``format_version``, ``kind`` (which model family the payload belongs to),
and ``payload``, written on one line by Python's C encoder.  Every numpy
array of a payload is stored by :func:`encode_array` as an object
``{"dtype": "<f8" | "<i8", "shape": [...], "b64": ...}``: its raw
little-endian bytes in base64, in the spirit of the ``.npy`` header.
Scalars, hyperparameters, texts and the nested boosted trees stay plain
JSON, and their floats are written by Python's shortest-repr rule.  Both
forms round-trip every double bit for bit, so saving and reloading a model
reproduces its parameters exactly.  A checkpoint holding ``NaN`` or
``Infinity``, as a JSON number or inside an array, or a number too large
for a double, such as ``1e400``, is refused when read, and so is one
nested too deeply for the JSON decoder.
Checkpoints of format version 1 stored arrays as nested JSON lists; they
are refused and the model must be retrained.

Writes go through a temporary file in the destination directory followed
by an atomic rename, so a crash mid-write never leaves a truncated
checkpoint behind.  The file gets the mode a plain ``open`` would give it
(0666 less the umask), not the 0600 of the temporary file.
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError, decode_utf8

FORMAT_VERSION = 2

MODEL_KINDS = ("neural", "gbt", "knn", "svm", "ensemble")


def _current_umask() -> int:
    # The umask can only be read by setting it, so set it back at once.
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path so readers see either the old file or the new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp_name, 0o666 & ~_current_umask())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


# The stored dtype of each array kind: 8-byte little-endian float or int.
_ARRAY_CODES = {"f": "<f8", "i": "<i8"}
_ARRAY_KEYS = ("dtype", "shape", "b64")


def encode_array(arr: np.ndarray) -> dict:
    """Store a float or integer array as its exact little-endian bytes."""
    arr = np.asarray(arr)
    code = _ARRAY_CODES.get(arr.dtype.kind)
    if code is None:
        raise TypeError(f"cannot store an array of dtype {arr.dtype}")
    data = np.ascontiguousarray(arr, dtype=code).tobytes()
    return {
        "dtype": code,
        "shape": list(arr.shape),
        "b64": base64.b64encode(data).decode("ascii"),
    }


def decode_array(obj: object, dtype: type) -> np.ndarray:
    """Read an array written by :func:`encode_array` as a native ``dtype`` copy.

    Refuses, with :class:`DataError`, a stored dtype other than ``dtype``'s,
    a shape that is not a list of non-negative ints, invalid base64, a byte
    length that does not match the shape, and non-finite floats.
    """
    expected = np.dtype(dtype)
    code = _ARRAY_CODES[expected.kind]
    if not isinstance(obj, dict):
        raise DataError(f"an array must be an object with keys {_ARRAY_KEYS}")
    missing = [key for key in _ARRAY_KEYS if key not in obj]
    if missing:
        raise DataError(f"array is missing {missing}")
    if obj["dtype"] != code:
        raise DataError(f"array has dtype {obj['dtype']!r}, expected {code!r}")
    shape = obj["shape"]
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise DataError(f"array shape must be a list of non-negative ints, got {shape!r}")
    try:
        raw = base64.b64decode(obj["b64"], validate=True)
    except (TypeError, ValueError) as exc:
        raise DataError(f"array bytes are not valid base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise DataError(f"array of shape {shape} holds {len(raw)} bytes")
    try:
        arr = np.frombuffer(raw, dtype=code).astype(expected).reshape(shape)
    except ValueError as exc:  # an empty array with an axis numpy cannot index
        raise DataError(f"array shape {shape} is too large: {exc}") from exc
    if expected.kind == "f" and not np.isfinite(arr).all():
        raise DataError("array holds a non-finite number")
    return arr


def checkpoint_text(kind: str, payload: dict) -> str:
    document = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "payload": payload,
    }
    return json.dumps(document, ensure_ascii=False) + "\n"


def save_checkpoint(path: str | Path, kind: str, payload: dict) -> None:
    if kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    atomic_write_text(path, checkpoint_text(kind, payload))


def _refuse_non_finite(token: str) -> float:
    # Python's json reads NaN and Infinity, which no model parameter may be.
    raise ValueError(f"non-finite number {token}")


def _finite_float(token: str) -> float:
    # A number past the double range, such as 1e400, would parse to inf.
    value = float(token)
    if not math.isfinite(value):
        _refuse_non_finite(token)
    return value


def load_checkpoint(path: str | Path, expected_kind: str | None = None) -> tuple[str, dict]:
    """Read a checkpoint, returning (kind, payload)."""
    path = Path(path)
    try:
        raw = decode_utf8(path.read_bytes(), path)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        document = json.loads(
            raw, parse_constant=_refuse_non_finite, parse_float=_finite_float
        )
    except ValueError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DataError(f"checkpoint {path} is nested too deeply: {exc}") from exc
    if not isinstance(document, dict):
        raise DataError(f"checkpoint {path} must hold a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"checkpoint {path} has format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}, so retrain the model"
        )
    kind = document.get("kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"checkpoint {path} has unknown kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise DataError(
            f"checkpoint {path} holds a {kind!r} model, expected {expected_kind!r}"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise DataError(f"checkpoint {path} has no payload object")
    return kind, payload
