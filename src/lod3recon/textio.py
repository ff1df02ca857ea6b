"""The rules every text reader and writer shares.

Every artifact is line-oriented UTF-8 text. A `#` starts a comment that
runs to the end of its line, and lines left blank are skipped; line
numbers in messages count every physical line. A path that cannot be
opened is an IoError, text that is not UTF-8 or does not parse is a
ParseError naming the file, and so is a number that is not finite.
`table` and `write_table` read and write every table of numbers.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import warnings

import numpy as np

from .errors import IoError, ParseError


@contextlib.contextmanager
def _opened(path, mode: str):
    """`path` opened as UTF-8 text; an OS failure is an IoError, and
    text that is not UTF-8 a ParseError."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot {'write' if mode == 'w' else 'read'} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def writing(path):
    """Text file opened for writing; any OS failure is an IoError."""
    return _opened(path, "w")


def _numbered(fh):
    for no, line in enumerate(fh, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield no, text


def content_lines(path):
    """Yield (line_no, text) for each line with content, comments dropped."""
    with _opened(path, "r") as fh:
        yield from _numbered(fh)


def floats(tokens, path, no, kind=float) -> list:
    """Tokens as floats, or as 64-bit integers with `kind=int`; a bad one
    is a ParseError naming the line."""
    try:
        vals = [kind(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"{path}:{no}: bad number in {' '.join(tokens)!r}") from exc
    if kind is int and not all(-2 ** 63 <= v < 2 ** 63 for v in vals):
        raise ParseError(f"{path}:{no}: integer out of range")
    return vals


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


def key_values(path, parse=str) -> dict:
    """`key = value` pairs, each value as `parse` makes it of its text;
    duplicate keys are rejected, and so is a value `parse` raises a
    ValueError for."""
    raw = {}
    for no, text in content_lines(path):
        if "=" not in text:
            raise ParseError(f"{path}:{no}: expected 'key = value'")
        key, _, value = (part.strip() for part in text.partition("="))
        if not key:
            raise ParseError(f"{path}:{no}: empty key")
        if key in raw:
            raise ParseError(f"{path}:{no}: duplicate key {key!r}")
        try:
            raw[key] = parse(value)
        except ValueError as exc:
            raise ParseError(f"{path}:{no}: bad value for {key}: {exc}") from exc
    return raw


# ---------------------------------------------------------------------------
# tables of numbers

def table(path, head: int, row, checks=lambda rows: ()):
    """(header, rows): `head` header lines, then a table of numbers, one
    row per line with content, of the record dtype `row` or of the dtype
    in (header, dtype) that the function `row` makes of the header lines.

    numpy parses the rows from the handle the header came from; only if
    it fails are the lines parsed again as Python reads them. The first
    row flagged by `checks(rows)`, (bad rows mask, message) pairs, or else
    the first line that does not parse, is a ParseError naming its line."""
    with _opened(path, "r") as fh:
        # given a bound on the row count, numpy allocates the rows once
        # rather than growing them, so memory peaks near the table's size
        bound = None
        if fh.seekable():
            chunks = iter(lambda: fh.buffer.read(1 << 20), b"")
            bound = 1 + sum(c.count(b"\n") + c.count(b"\r") for c in chunks)
            fh.seek(0)
        lines = list(itertools.islice(_numbered(fh), head))
        header, dtype = row(lines) if callable(row) else (lines, row)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # comment lines, no rows
                rows, error = np.loadtxt(fh, dtype=dtype, comments="#", ndmin=1,
                                         max_rows=bound), None
        except ValueError:
            rows, error = _parse_lines(path, head, dtype)
    firsts = [(np.flatnonzero(bad)[0], message)
              for bad, message in checks(rows) if bad.any()]
    if firsts:
        first, message = min(firsts, key=lambda f: f[0])
        no, _ = next(itertools.islice(content_lines(path), head + first, None))
        error = ParseError(f"{path}:{no}: {message}")
    if error is not None:
        raise error
    return header, rows


# lines read, told apart and parsed at a time by `repeated_table`
REPEAT_LINES = 1 << 10


def repeated_table(path, head: int, row, count, cast, checks=lambda rows: ()):
    """`table` for a table whose lines repeat, every field of its rows
    cast to the number type `cast`; `count(header)` is the number of rows
    the header promises.

    Each distinct line of a run of REPEAT_LINES lines is parsed once,
    and the rows go in file order into one array of that many rows,
    allocated at the start. Where a line does not parse, a check fails
    or the count differs, the file is read again by `table`, which names
    the line at fault, and its rows are cast: the caller sees the count
    that differs."""
    with _opened(path, "r") as fh:
        if fh.seekable():
            lines = list(itertools.islice(_numbered(fh), head))
            header, row_dtype = row(lines) if callable(row) else (lines, row)
            rows = _repeated_rows(fh, row_dtype, count(header),
                                  _cast(row_dtype, cast), checks)
            if rows is not None:
                return header, rows
    header, rows = table(path, head, row, checks)
    return header, rows.astype(_cast(rows.dtype, cast))


def _cast(dtype, kind) -> np.dtype:
    """The record dtype `dtype` with every field's numbers of type `kind`."""
    return np.dtype([(name, kind, dtype[name].shape) for name in dtype.names])


def _repeated_rows(fh, row_dtype, count: int, dtype, checks):
    """The `count` rows of the rest of `fh` as `dtype`, each distinct line
    of a run parsed once by np.loadtxt; None if a line does not give one
    row (a blank or comment line gives none), a check fails or there are
    not `count` rows."""
    # a number takes two bytes at least, with its separator, and every
    # field of a table row is 8 bytes a number
    numbers = count * (row_dtype.itemsize // 8)
    if not 0 <= 2 * numbers <= os.fstat(fh.fileno()).st_size:
        return None
    out = np.empty(count, dtype=dtype)
    done = 0
    for run in iter(lambda: list(itertools.islice(fh, REPEAT_LINES)), []):
        distinct = list(dict.fromkeys(run))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # no rows
                rows = np.loadtxt(distinct, dtype=row_dtype, comments="#", ndmin=1)
        except ValueError:
            return None
        if (len(rows) != len(distinct) or done + len(run) > count
                or any(bad.any() for bad, _ in checks(rows))):
            return None
        slot = dict(zip(distinct, range(len(distinct))))
        at = np.fromiter(map(slot.__getitem__, run), dtype=np.intp, count=len(run))
        out[done:done + len(run)] = rows.astype(dtype)[at]
        done += len(run)
    return out if done == count else None


def _parse_lines(path, head: int, dtype):
    """(rows, error): the table parsed line by line by `floats`, up to the
    first line that does not parse."""
    fields = [(dtype[name].shape, int if dtype[name].base.kind == "i" else float)
              for name in dtype.names]
    bounds = np.cumsum([0] + [math.prod(shape) for shape, _ in fields]).tolist()
    rows = []
    for no, text in itertools.islice(content_lines(path), head, None):
        tok = text.split()
        try:
            if len(tok) != bounds[-1]:
                raise ParseError(f"{path}:{no}: expected {bounds[-1]} columns, "
                                 f"got {len(tok)}")
            row = [floats(tok[a:b], path, no, kind)
                   for (_, kind), a, b in zip(fields, bounds, bounds[1:])]
        except ParseError as exc:
            return np.array(rows, dtype=dtype), exc
        rows.append(tuple(v if shape else v[0] for (shape, _), v in zip(fields, row)))
    return np.array(rows, dtype=dtype), None


def write_table(path, header: str, columns) -> None:
    """`header`, then one line per row of the `columns` arrays side by
    side, a 2-D array giving one column per column, each number the
    `repr` of its Python int or float."""
    columns = [np.asarray(c) for c in columns]
    block = 1 << 12   # rows formatted per write call
    with writing(path) as fh:
        fh.write(header)
        for a in range(0, len(columns[0]), block):
            fh.write(_lines([c[a:a + block] for c in columns]))


def _lines(parts) -> str:
    """The rows of the arrays `parts` side by side as lines of text.

    Each distinct row is formatted once, and within the distinct rows
    each distinct number of a part. Rows and numbers are told apart by
    their bytes, not their values, so -0.0 and 0.0 keep their own `repr`."""
    parts = [p.reshape(len(p), -1) for p in parts]
    first, inverse = _distinct(np.concatenate(
        [np.ascontiguousarray(p).view(np.uint8).reshape(len(p), -1) for p in parts],
        axis=1))
    columns = [col for p in parts for col in _reprs(p[first]).T.tolist()]
    distinct = np.array(list(map(" ".join, zip(*columns))), dtype=object)
    del columns   # the numbers' text, no longer needed once rows are joined
    lines = distinct[inverse].tolist()
    lines.append("")   # the newline that ends the last line
    return "\n".join(lines)


def _reprs(part) -> np.ndarray:
    """The `repr` of each number of the contiguous 2-D array `part`, as an
    object array of its shape; each distinct number is formatted once."""
    flat = part.ravel()
    first, inverse = _distinct(flat.view(np.uint8).reshape(len(flat), -1))
    text = np.array(list(map(repr, flat[first].tolist())), dtype=object)
    return text[inverse].reshape(part.shape)


def _distinct(raw):
    """(first, inverse) of the rows of the 2-D uint8 array `raw`: where
    each distinct row first occurs, and for each row the index of its
    own in `first`."""
    width = raw.shape[1]
    # a row of 1, 2, 4 or 8 bytes sorts faster as one unsigned integer
    key = raw.view(f"u{width}" if width in (1, 2, 4, 8) else np.dtype((np.void, width)))
    # return_index keeps np.unique off its numpy.ma check
    _, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
    return first, inverse
