"""The rules every text reader and writer shares.

Every artifact is line-oriented UTF-8 text. A `#` starts a comment that
runs to the end of its line, and lines left blank are skipped; line
numbers in messages count every physical line. A path that cannot be
opened is an IoError, text that is not UTF-8 or does not parse is a
ParseError naming the file, and so is a number that is not finite.
`table` and `write_table` read and write every table of numbers;
`table_blocks` and `table_writer` do so block by block, for tables that need
not fit in memory. Every table is read in blocks of BLOCK_ROWS lines and
written in blocks of BLOCK_ROWS rows. Both readers run one block loop,
`_blocks`, over the one open file: numpy parses a block's lines, or
`_parse_lines` parses them as Python reads them where numpy cannot, and
a bad line is numbered from the block's own lines, so a pipe is read as
a file is.
"""

from __future__ import annotations

import contextlib
import itertools
import math
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


def _numbered(lines, start: int = 0):
    for no, line in enumerate(lines, start=start + 1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield no, text


def content_lines(path):
    """Yield (line_no, text) for each line with content, comments dropped."""
    with _opened(path, "r") as fh:
        yield from _numbered(fh)


def floats(tokens, path, no, kind=float) -> list:
    """Tokens as floats, or as 64-bit integers with `kind=int`; a bad one
    is a ParseError naming the line and the token."""
    vals = []
    for t in tokens:
        try:
            vals.append(kind(t))
        except ValueError as exc:
            raise ParseError(f"{path}:{no}: bad number {t!r}") from exc
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

def table(path, head: int, row, checks=lambda rows: (), repeats=False):
    """(header, rows): `head` header lines, then a table of numbers, one
    row per line with content, of the record dtype `row` or of the dtype
    in (header, dtype) that the function `row` makes of the header lines.

    The body is read as `table_blocks` reads it, from the handle the
    header came from, and the blocks are joined; with `repeats`, for a
    table whose lines repeat, each distinct line of a block is parsed
    once. The first row flagged by `checks(rows)`, (bad rows mask,
    message) pairs, or else the first line that does not parse, is a
    ParseError naming its line."""
    with _opened(path, "r") as fh:
        lines = list(itertools.islice(_numbered(fh), head))
        header, dtype = row(lines) if callable(row) else (lines, row)
        blocks = _blocks(path, fh, lines[-1][0] if lines else 0, dtype,
                         _repeated if repeats else _loadtxt, checks)
        return header, np.concatenate([np.empty(0, dtype), *blocks])


# lines read per block by every table reader, rows written per block by
# every writer. The parsed rows and what a caller derives from them grow
# with the block; each block pays numpy's per-call cost in the reader and
# in its caller (0.6 ms at 2^10 rays on four faces, 1.5 ms at 2^12, on a
# 2-core VM), which made 2^10 slow the 16,000-ray demo by 7-10 %
BLOCK_ROWS = 1 << 12


def table_blocks(path, row, checks=lambda rows: ()):
    """Yield the table of numbers at `path`, which has no header lines,
    as consecutive arrays of the rows of BLOCK_ROWS lines at a time, of
    the record dtype `row`, in file order; a file without rows yields
    none. As in `table`, the first row flagged by `checks(rows)`, or else
    the first line that does not parse, is a ParseError naming its line;
    it is raised when its block is reached."""
    with _opened(path, "r") as fh:
        yield from _blocks(path, fh, 0, row, _loadtxt, checks)


def _blocks(path, fh, start: int, dtype, parse, checks):
    """Yield the rest of `fh`, the lines of `path` after line `start`, in
    blocks of BLOCK_ROWS lines, each as the array of its rows of the
    record dtype `dtype` that `parse(lines, dtype)` returns, in file
    order; a block without rows is not yielded.

    Where `parse` raises a ValueError, `_parse_lines` parses the block's
    lines as Python reads them. The first row of a block that `checks`
    flags, or else the first line that does not parse, is a ParseError
    naming its line, raised when its block is reached."""
    while lines := list(itertools.islice(fh, BLOCK_ROWS)):
        try:
            rows, error = parse(lines, dtype), None
        except ValueError:
            rows, error = _parse_lines(path, _numbered(lines, start), dtype)
        _raise_first(path, _numbered(lines, start), rows, checks, error)
        start += len(lines)
        del lines   # the block's text is not held while its rows are used
        if len(rows):
            yield rows


def _loadtxt(lines, dtype):
    """The rows of `lines`; blank and comment lines give none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # comment lines, no rows
        return np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)


def _repeated(lines, dtype):
    """The rows of `lines`, each distinct line parsed once by np.loadtxt."""
    slot = {}
    at = np.fromiter((slot.setdefault(line, len(slot)) for line in lines),
                     dtype=np.intp, count=len(lines))
    lines = list(slot)
    rows = _loadtxt(lines, dtype)
    if len(rows) < len(lines):
        # a blank or comment line gives no row: the lines go without them
        content = np.array([bool(line.split("#", 1)[0].strip()) for line in lines])
        if len(rows) != content.sum():
            raise ValueError("a line with content gave no row")
        at = (np.cumsum(content) - 1)[at[content[at]]]
    return rows[at]


def _raise_first(path, numbered, rows, checks, error) -> None:
    """Raise the first row of `rows`, those of the (line_no, text) lines
    `numbered`, that `checks(rows)` flags, as a ParseError naming its
    line, or else `error`, the failure that ended `rows`, if any. A mask
    of more than one dimension flags the row of each of its rows."""
    firsts = [(np.nonzero(bad)[0][0], message)
              for bad, message in checks(rows) if bad.any()]
    if firsts:
        first, message = min(firsts, key=lambda f: f[0])
        no, _ = next(itertools.islice(numbered, first, None))
        error = ParseError(f"{path}:{no}: {message}")
    if error is not None:
        raise error


def _parse_lines(path, lines, dtype):
    """(rows, error): the (line_no, text) `lines` parsed one by one by
    `floats`, up to the first that does not parse; a double too large for
    a float32 field is inf there, as numpy casts it."""
    fields = [(dtype[name].shape, int if dtype[name].base.kind == "i" else float)
              for name in dtype.names]
    bounds = np.cumsum([0] + [math.prod(shape) for shape, _ in fields]).tolist()
    rows, error = [], None
    for no, text in lines:
        tok = text.split()
        try:
            if len(tok) != bounds[-1]:
                raise ParseError(f"{path}:{no}: expected {bounds[-1]} columns, "
                                 f"got {len(tok)}")
            row = [floats(tok[a:b], path, no, kind)
                   for (_, kind), a, b in zip(fields, bounds, bounds[1:])]
        except ParseError as exc:
            error = exc
            break
        rows.append(tuple(v if shape else v[0] for (shape, _), v in zip(fields, row)))
    with np.errstate(over="ignore"):
        return np.array(rows, dtype=dtype), error


def write_table(path, header: str, columns) -> None:
    """`header`, then one line per row of the `columns` arrays side by
    side, a 2-D array giving one column per column, each number the
    `repr` of its Python int or float."""
    with table_writer(path, header) as write:
        write(columns)


@contextlib.contextmanager
def table_writer(path, header: str):
    """A function that appends the rows of its `columns`, as
    `write_table` writes them, to the file at `path` begun with
    `header`: a table written block by block."""
    with writing(path) as fh:
        fh.write(header)

        def write(columns):
            columns = [np.asarray(c) for c in columns]
            for a in range(0, len(columns[0]), BLOCK_ROWS):
                fh.write(_lines([c[a:a + BLOCK_ROWS] for c in columns]))
        yield write


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
