"""The rules every text reader and writer shares.

Every artifact is line-oriented UTF-8 text. A `#` starts a comment that
runs to the end of its line, and lines left blank are skipped; line
numbers in messages count every physical line. A path that cannot be
opened is an IoError, text that is not UTF-8 or does not parse is a
ParseError naming the file, and so is a number that is not finite.
"""

from __future__ import annotations

import contextlib
import math

from .errors import IoError, ParseError


def content_lines(path):
    """Yield (line_no, text) for each line with content, comments dropped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for no, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if text:
                    yield no, text
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


@contextlib.contextmanager
def writing(path):
    """Text file opened for writing; any OS failure is an IoError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def floats(tokens, path, no) -> list:
    """Tokens as floats; a bad one is a ParseError naming the line."""
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"{path}:{no}: bad number in {' '.join(tokens)!r}") from exc


def finite(vals, what: str, path, no) -> list:
    """`vals` unchanged; a nan or inf among them is a ParseError."""
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"{path}:{no}: non-finite {what}")
    return vals


def kv(token: str, key: str, path, no) -> str:
    """The value of a `key=value` token."""
    if not token.startswith(key + "="):
        raise ParseError(f"{path}:{no}: expected {key}=..., got {token!r}")
    return token[len(key) + 1:]


def key_values(path) -> dict:
    """Raw `key = value` pairs; duplicate keys are rejected."""
    raw = {}
    for no, text in content_lines(path):
        if "=" not in text:
            raise ParseError(f"{path}:{no}: expected 'key = value'")
        key, _, value = (part.strip() for part in text.partition("="))
        if not key:
            raise ParseError(f"{path}:{no}: empty key")
        if key in raw:
            raise ParseError(f"{path}:{no}: duplicate key {key!r}")
        raw[key] = value
    return raw
