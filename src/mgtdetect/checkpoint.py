"""Versioned JSON checkpoints with atomic writes.

Every checkpoint is a single JSON document with three top-level keys:
``format_version``, ``kind`` (which model family the payload belongs to),
and ``payload``, written on one line by Python's C encoder.  Floats are serialized with Python's shortest-repr rule,
which round-trips every double bit for bit, so saving and reloading a
model reproduces its parameters exactly.  A checkpoint holding ``NaN`` or
``Infinity`` is refused when read.

Writes go through a temporary file in the destination directory followed
by an atomic rename, so a crash mid-write never leaves a truncated
checkpoint behind.  The file gets the mode a plain ``open`` would give it
(0666 less the umask), not the 0600 of the temporary file.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .errors import DataError

FORMAT_VERSION = 1

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


def load_checkpoint(path: str | Path, expected_kind: str | None = None) -> tuple[str, dict]:
    """Read a checkpoint, returning (kind, payload)."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        document = json.loads(raw, parse_constant=_refuse_non_finite)
    except ValueError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise DataError(f"checkpoint {path} must hold a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"checkpoint {path} has format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
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
