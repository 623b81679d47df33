"""Versioned JSON checkpoints with atomic writes.

Every checkpoint is a single JSON document with three top-level keys:
``format_version``, ``kind`` (which model family the payload belongs to),
and ``payload``, written on one line by Python's C encoder.  Every numpy
array of a payload is stored by :func:`encode_array` as an object
``{"dtype": "<f8" | "<i1" | ... | "<i8", "shape": [...], "b64": ...}``:
its raw little-endian bytes in base64, in the spirit of the ``.npy``
header.  A float array is stored as doubles and a signed integer array at
its own width; every writer hands over int64 arrays, except the kNN base's
n-gram counts, which :func:`narrowest_int` narrows first, and only that
field is read with ``any_int_width``.  Scalars, hyperparameters, texts and
the nested boosted trees stay plain JSON, and their floats are written by
Python's shortest-repr rule.  Both forms round-trip every double bit for
bit, so saving and reloading a model reproduces its parameters exactly.  A
checkpoint holding ``NaN`` or ``Infinity``, as a JSON number or inside an
array, or a number too large for a double, such as ``1e400``, is refused
when read, and so is one nested too deeply for the JSON decoder.  A decoder
reads each scalar field through :func:`stored_int`, :func:`stored_float` or
:func:`stored_str`, so a string where a number belongs, a bool, a fraction
where an integer belongs, an integer too large for a double or a non-string
where a text belongs is refused too, by the field's key.

Writers write format version 4, and readers read versions 2, 3 and 4.
Version 4 changed the kNN base: it stores the unscaled blocks its rows were
scaled from (readability statistics, and hashed n-gram counts or an
embeddings table's vectors) in place of the scaled rows, which the loader
rebuilds bit for bit; a version 3 kNN base stores the scaled rows, and is
read as it is.  Versions 2 and 3 differ only in the featurizer, whose
``"hash"`` key version 3 added: a version 2 featurizer hashed n-grams with
an earlier hash than the splitmix64 chain, so the pipeline refuses one that
names no hash and the model must be retrained, while a version 2 svm, which
has no featurizer, is read as it is.  Version 1, which stored arrays as
nested JSON lists, and every other version are refused.

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

FORMAT_VERSION = 4
READ_VERSIONS = (2, 3, FORMAT_VERSION)

MODEL_KINDS = ("neural", "gbt", "knn", "svm", "ensemble")


def _current_umask() -> int:
    # The umask can only be read by setting it, so set it back at once.
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path so readers see either the old file or the new one.

    An OS error on the way, such as a path that is a directory, is a
    :class:`DataError` naming the path, and leaves no temporary file.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp_name, 0o666 & ~_current_umask())
        os.replace(tmp_name, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


# The signed integer widths an array may be stored at, narrowest first.
INT_CODES = ("<i1", "<i2", "<i4", "<i8")
_ARRAY_KEYS = ("dtype", "shape", "b64")


def _stored_code(dtype: np.dtype) -> str | None:
    # A float is stored as an 8-byte double, a signed integer at its width.
    if dtype.kind == "f":
        return "<f8"
    if dtype.kind == "i":
        return f"<i{dtype.itemsize}"
    return None


def encode_array(arr: np.ndarray) -> dict:
    """Store a float or signed integer array as its exact little-endian bytes:
    a float as ``<f8``, an integer at its own width, ``<i1`` to ``<i8``."""
    arr = np.asarray(arr)
    code = _stored_code(arr.dtype)
    if code is None:
        raise TypeError(f"cannot store an array of dtype {arr.dtype}")
    data = np.ascontiguousarray(arr, dtype=code).tobytes()
    return {
        "dtype": code,
        "shape": list(arr.shape),
        "b64": base64.b64encode(data).decode("ascii"),
    }


def narrowest_int(arr: np.ndarray) -> np.ndarray:
    """An integer array at the narrowest signed width of ``INT_CODES`` that
    holds its values: a choice made from the values alone, so equal arrays
    are stored alike."""
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    for code in INT_CODES:
        info = np.iinfo(np.dtype(code))
        if info.min <= lo and hi <= info.max:
            return arr.astype(code, copy=False)
    raise AssertionError("an int64 array fits int64")


def decode_array(obj: object, dtype: type, any_int_width: bool = False) -> np.ndarray:
    """Read an array written by :func:`encode_array` as a native ``dtype`` copy.

    Refuses, with :class:`DataError`, a stored dtype other than ``dtype``'s,
    a shape that is not a list of non-negative ints, invalid base64, a byte
    length that does not match the shape, and non-finite floats.  With
    ``any_int_width``, an integer array may be stored at any width of
    ``INT_CODES`` and is returned at that width.
    """
    expected = np.dtype(dtype)
    allowed = INT_CODES if any_int_width else (_stored_code(expected),)
    if not isinstance(obj, dict):
        raise DataError(f"an array must be an object with keys {_ARRAY_KEYS}")
    missing = [key for key in _ARRAY_KEYS if key not in obj]
    if missing:
        raise DataError(f"array is missing {missing}")
    code = obj["dtype"]
    if code not in allowed:
        want = " or ".join(map(repr, allowed))
        raise DataError(f"array has dtype {code!r}, expected {want}")
    shape = obj["shape"]
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise DataError(f"array shape must be a list of non-negative ints, got {shape!r}")
    try:
        raw = base64.b64decode(obj["b64"], validate=True)
    except (TypeError, ValueError) as exc:
        raise DataError(f"array bytes are not valid base64: {exc}") from exc
    stored = np.dtype(code)
    if len(raw) != stored.itemsize * math.prod(shape):
        raise DataError(f"array of shape {shape} holds {len(raw)} bytes")
    native = stored.newbyteorder("=") if any_int_width else expected
    try:
        arr = np.frombuffer(raw, dtype=stored).astype(native).reshape(shape)
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


def stored_int(value: object, key: str) -> int:
    """A payload's integer field: a JSON integer, not a bool (an int subclass),
    a float or a string."""
    if type(value) is not int:
        raise DataError(f"{key} must be an integer, got {value!r}")
    return value


def stored_float(value: object, key: str) -> float:
    """A payload's float field: a finite JSON number, integer or not, and not
    a bool or a string.  An integer too large for a double is refused."""
    if type(value) not in (int, float):
        raise DataError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise DataError(f"{key} is an integer too large for a double") from None
    if not math.isfinite(number):
        raise DataError(f"{key} must be a finite number, got {value!r}")
    return number


def stored_str(value: object, key: str) -> str:
    """A payload's text field: a JSON string, not null, a number or a list."""
    if type(value) is not str:
        raise DataError(f"{key} must be a string, got {value!r}")
    return value


def stored_list(value: object, key: str) -> list:
    """A payload's list field: a JSON array, not a string or an object."""
    if type(value) is not list:
        raise DataError(f"{key} must be a list, got {value!r}")
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
    if version not in READ_VERSIONS:
        raise DataError(
            f"checkpoint {path} has format version {version!r}; "
            f"this build reads versions {', '.join(map(str, READ_VERSIONS[:-1]))} "
            f"and {READ_VERSIONS[-1]}, "
            "so retrain the model"
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
