"""Error types shared across the package, the UTF-8 file boundary (bytes to
text, and text to lines) and the settings boundary check.

The split matters for the command line tool, which maps error categories to
exit codes: configuration problems exit 1, data problems exit 2, anything
else exits 3.
"""

import codecs
import dataclasses
import math


class ConfigError(ValueError):
    """Invalid configuration: bad option values, unknown keys, bad flags."""


class DataError(ValueError):
    """Invalid data: malformed files, inconsistent shapes, bad labels."""


def decode_utf8(raw: bytes, path: object) -> str:
    """Decode a file's bytes, skipping one leading byte-order mark.

    Invalid UTF-8 is refused with its offset from the file's first byte.
    """
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not valid UTF-8 at byte {start + exc.start} ({exc.reason})"
        ) from exc


def decode_lines(raw: bytes, path: object) -> list[str]:
    """A file's lines, decoded as ``decode_utf8`` does.  Lines end in LF or
    CR LF; ``str.splitlines`` would also split on text (U+2028, U+0085, ...)."""
    text = decode_utf8(raw, path)
    if "\r" in text:  # replace scans far slower than this test on wide text
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def check_id_cell(doc_id: str, path: object) -> None:
    """Refuse an id that a TSV file would not give back: ids are written
    unescaped, readers split columns at TAB and lines at LF, and the corpus
    reader strips the whitespace (as ``str.strip`` sees it) around an id."""
    if "\t" in doc_id or "\n" in doc_id:
        raise DataError(f"{path}: cannot write id {doc_id!r}: it holds a TAB or LF")
    if doc_id != doc_id.strip():
        raise DataError(
            f"{path}: cannot write id {doc_id!r}: it starts or ends with whitespace"
        )


def check_settings(settings: object) -> None:
    """Refuse, on any settings dataclass, what the INI parsers refuse.

    Every float (alone or in a tuple) must be finite, and a field named
    ``seed`` must lie in [0, 2**64): the hashing embedder packs its seed
    into 8 unsigned bytes, and ``MGTDETECT_SEED`` sets every seed at once.
    """
    name = type(settings).__name__
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(f"{name}.{field.name} must be finite, got {value!r}")
        if field.name == "seed" and not 0 <= value < 2**64:
            raise ConfigError(f"{name}.seed must lie in [0, 2**64), got {value!r}")
