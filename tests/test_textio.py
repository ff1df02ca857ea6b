"""The shared text-file rules, and the contract every reader and writer
keeps: a path that cannot be opened is an IoError, bytes that are not
UTF-8 text are a ParseError."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lod3recon import (evaluate, extraction, fusion, model_io, occupancy,
                       rasters, reconstruct, textio)
from lod3recon.errors import IoError, ParseError

import oracles

MODULES = (occupancy, model_io, rasters, fusion, extraction, evaluate,
           reconstruct)

NOT_UTF8 = b"\xff\xfe# not text\n\x80\x81 1 2 3\n"


def _functions(prefix="", suffix=""):
    return {f"{m.__name__.rsplit('.', 1)[1]}.{name}": fn
            for m in MODULES for name, fn in vars(m).items()
            if name.startswith(prefix) and name.endswith(suffix)
            and inspect.isfunction(fn) and fn.__module__ == m.__name__}


READERS = {**_functions("read_"), "textio.key_values": textio.key_values,
           # the next block of the file's rays or points, the first here
           "occupancy.read_rays": lambda p: occupancy.read_rays(occupancy.ray_blocks(p)),
           "rasters.read_labeled_points":
               lambda p: rasters.read_labeled_points(rasters.point_blocks(p))}


def _solid():
    return model_io.box_solid("b", (0.0, 0.0, 0.0), (4.0, 2.0, 3.0))


def _raster():
    frame = rasters.facade_frame(_solid().face("wall_front"), 0.5)
    return rasters.FacadeRaster.zeros(frame, ("opening",))


def _instance():
    return extraction.OpeningInstance("wall_front", (1.0, 1.0, 2.0, 2.0),
                                      "window", 0.9)


def _write_once(writer, *block):
    """write(path): the one-block file of the block writer `writer`."""
    def write(path):
        with writer(path) as append:
            append(*block)
    return write


# one call per writer: name -> write(path)
WRITERS = {
    "occupancy.ray_writer": _write_once(
        occupancy.ray_writer, np.array([[0, 0, 0, 1, 1, 1, 1]])),
    "occupancy.write_tree": lambda p: occupancy.write_tree(
        occupancy.build_occupancy([np.array([[0, 0, 0, 1, 1, 1, 1]])],
                                  {"f": [(0, 0, 0)]}, occupancy.OccupancyConfig()), p),
    "model_io.write_solid": lambda p: model_io.write_solid(_solid(), p),
    "rasters.point_writer": _write_once(
        rasters.point_writer, np.zeros((1, 3)), np.zeros((1, len(rasters.POINT_LABELS)))),
    "rasters.write_raster": lambda p: rasters.write_raster(_raster(), p),
    "rasters.write_pixel_grid": lambda p: rasters.write_pixel_grid(
        np.zeros((2, 3, 1)), ("window",), p),
    "rasters.write_correspondences": lambda p: rasters.write_correspondences(
        [((0, 0), (1, 1))], p),
    "extraction.write_instances": lambda p: extraction.write_instances(
        [_instance()], p),
    "evaluate.write_metrics": lambda p: evaluate.write_metrics({"DA": 1}, p),
    "reconstruct.write_model": lambda p: reconstruct.write_model(
        reconstruct.reconstruct_model(_solid(), [_instance()]), p),
    "reconstruct.write_citygml": lambda p: reconstruct.write_citygml(
        reconstruct.reconstruct_model(_solid(), [_instance()]), p),
}


def test_every_writer_has_a_contract_case():
    assert set(WRITERS) == set(_functions("write_")) | set(_functions(suffix="_writer"))


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_on_directory_is_io_error(tmp_path, name):
    with pytest.raises(IoError, match="cannot read"):
        READERS[name](tmp_path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_on_non_utf8_bytes_is_parse_error(tmp_path, name):
    path = tmp_path / "binary.txt"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(ParseError, match="binary.txt"):
        READERS[name](path)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_into_directory_is_io_error(tmp_path, name):
    with pytest.raises(IoError, match="cannot write"):
        WRITERS[name](tmp_path)


# ---------------------------------------------------------------------------
# the shared rules

def test_content_lines_drops_comments_and_blanks(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# head\n\n  a b  # tail\n#\n   \nc\n")
    assert list(textio.content_lines(path)) == [(3, "a b"), (6, "c")]


# ---------------------------------------------------------------------------
# the table reader reads what Python reads

# numbers numpy reads as Python does, and ones only Python reads
FLOATS = ["0", "-0.0", "1.5", "-3.25e10", "0.1", "1e-310", "4.9e-324", "5e-324",
          "2.2250738585072014e-308", "1.7976931348623157e308", "1e999", "-inf",
          "+Infinity", "nan", "1_000", "1_0.5", "\u0663"]
INTS = ["0", "-0", "7", "+12", "-9223372036854775808", "9223372036854775807",
        "1_000", "\u0663"]
# tokens that are a bad number in a column of either kind, or an int column
BAD = ["x", "1.5.2", "0x10", "1__0", "--1", "1e"]
BAD_INT = ["1.0", "1e3", "9223372036854775808", "-9223372036854775809"]
# str.split whitespace, including form feed and no-break space
SEPARATORS = [" ", "  ", "\t", "\x0c", "\xa0", "\u2003", "\x1f", "\x85"]

DTYPES = [np.dtype([("f", "<f8", (2,)), ("i", "<i8")]),
          np.dtype([("i", "<i8", (2,)), ("f", "<f8")]),
          np.dtype([("v", "<f8", (3,))])]


def _kinds(dtype):
    return [int if dtype[name].base.kind == "i" else float
            for name in dtype.names for _ in range(math.prod(dtype[name].shape))]


@st.composite
def table_files(draw):
    """(text, header line count, dtype) of a table file, mostly valid."""
    dtype = draw(st.sampled_from(DTYPES))
    kinds = _kinds(dtype)

    def token(kind):
        if draw(st.integers(0, 30)) == 0:
            return draw(st.sampled_from(BAD + (BAD_INT if kind is int else [])))
        return draw(st.sampled_from(INTS if kind is int else FLOATS))

    def data_line():
        tokens = [token(kind) for kind in kinds]
        if draw(st.integers(0, 30)) == 0:
            tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["1"]
        seps = [draw(st.sampled_from(SEPARATORS)) for _ in tokens]
        text = "".join(sep + tok for sep, tok in zip(seps, tokens))
        return text + draw(st.sampled_from(["", " ", "\t", "# tail", " #1 2"]))

    head = draw(st.integers(0, 1))
    lines = ["table of 3 # header"] * head
    for _ in range(draw(st.integers(0, 8))):
        lines.append(draw(st.one_of(
            st.just(None), st.sampled_from(["", "# comment", " \t\x0c ", "#"]))))
    lines = [data_line() if line is None else line for line in lines]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), head, dtype


def _python_rule(path, head, dtype):
    """(header, rows) as the readers parsed tables one line at a time:
    comments and blanks dropped, `str.split`, then `float` or `int`; or
    the number of the first line that does not parse."""
    with open(path, encoding="utf-8") as fh:
        lines = [(no, text) for no, line in enumerate(fh, start=1)
                 if (text := line.split("#", 1)[0].strip())]
    kinds, rows = _kinds(dtype), []
    for no, text in lines[head:]:
        tokens = text.split()
        try:
            if len(tokens) != len(kinds):
                raise ValueError
            row = [kind(tok) for kind, tok in zip(kinds, tokens)]
        except ValueError:
            return no
        if any(kind is int and not -2 ** 63 <= v < 2 ** 63
               for kind, v in zip(kinds, row)):
            return no
        rows.append(row)
    return lines[:head], rows


def _flat(rows, dtype):
    """The record rows as one list per row, in column order."""
    return [[v for name in dtype.names for v in np.ravel(row[name]).tolist()]
            for row in rows]


def _same_number(a, b):
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b and math.copysign(1, a) == math.copysign(1, b)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "table.txt"


@settings(max_examples=300, deadline=None)
@given(case=table_files())
def test_table_reads_the_rows_python_reads(table_path, case):
    text, head, dtype = case
    table_path.write_bytes(text.encode("utf-8"))
    expected = _python_rule(table_path, head, dtype)
    if isinstance(expected, int):
        with pytest.raises(ParseError) as err:
            textio.table(table_path, head, dtype)
        assert str(err.value).startswith(f"{table_path}:{expected}: ")
        return
    header, rows = textio.table(table_path, head, dtype)
    assert header == expected[0]
    assert rows.dtype == dtype
    got = _flat(rows, dtype)
    assert len(got) == len(expected[1])
    for got_row, want_row in zip(got, expected[1]):
        assert all(map(_same_number, got_row, want_row)), (got_row, want_row)


# decimals around float32 rounding: a float64 tie that rounds to even in
# float32, one just above it that a direct float32 parse would round up,
# float32 subnormals and the float32 maximum
FLOAT32_EDGES = ["1.000000059604644775390625", "1.0000000596046447753906250001",
                 "1e-45", "7e-46", "1.4e-45", "3.4028235e38", "-0.0", "0.1",
                 "16777217", "1_000.5"]


@settings(max_examples=100, deadline=None)
@given(width=st.integers(1, 4), height=st.integers(1, 3), data=st.data())
def test_pixel_values_are_doubles_cast_to_float32(table_path, width, height, data):
    tokens = [data.draw(st.sampled_from(FLOAT32_EDGES + FLOATS[:8]))
              for _ in range(width * height)]
    table_path.write_text(f"pixel_grid width={width} height={height}\n"
                          "channels p\n" + "\n".join(tokens) + "\n")
    grid, channels = rasters.read_pixel_grid(table_path)
    want = np.array([float(t) for t in tokens]).astype(np.float32)
    assert channels == ("p",)
    assert grid.ravel().tobytes() == want.tobytes()


@st.composite
def pixel_grids(draw):
    """(text, fault) of a pixel grid whose lines repeat: each drawn from a
    pool of a few lines, between comment and blank lines, with LF or
    CR LF line ends; `fault` is None or how the file was broken."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    channels = draw(st.integers(1, 3))
    # mostly numbers numpy reads: a line only Python reads sends its
    # block down the line-by-line path
    numbers = st.sampled_from(FLOAT32_EDGES + FLOATS[:8]) if draw(
        st.integers(0, 4)) == 0 else st.sampled_from(FLOAT32_EDGES[:-1] + FLOATS[:8])
    pool = [" ".join(draw(numbers) for _ in range(channels))
            + draw(st.sampled_from(["", " # tail", "\t"]))
            for _ in range(draw(st.integers(1, 4)))]
    lines = [draw(st.sampled_from(pool)) for _ in range(width * height)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "# note", "  \t"])))
    fault = draw(st.sampled_from([None] * 6 + [
        "x", "nan", "inf", "1e999", "short", "long", "missing", "extra", "huge"]))
    at = draw(st.integers(0, len(lines) - 1))
    if fault in ("x", "nan", "inf", "1e999"):
        lines[at] = " ".join([fault] * channels)
    elif fault == "short":
        lines[at] = " ".join(["0.5"] * (channels - 1))
    elif fault == "long":
        lines[at] = " ".join(["0.5"] * (channels + 1))
    elif fault == "missing":
        del lines[at]
    elif fault == "extra":
        lines.insert(at, lines[at] or "0.5")
    if fault == "huge":     # no array of that many pixels can be allocated
        width = 10 ** 12
    head = [f"pixel_grid width={width} height={height}",
            "channels " + " ".join(f"c{i}" for i in range(channels))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(head + lines) + draw(st.sampled_from(["", end])), fault


def _read_grid(path):
    """What `read_pixel_grid` returns for `path`, or the error it raises."""
    try:
        grid, channels = rasters.read_pixel_grid(path)
    except ParseError as exc:
        return "error", str(exc)
    return channels, grid.shape, grid.dtype, grid.tobytes()


@settings(max_examples=200, deadline=None)
@given(case=pixel_grids(), run=st.sampled_from([1, 2, 3, 1 << 14]))
def test_pixel_tables_equal_the_loadtxt_path(table_path, case, run):
    # the grid read each distinct line of a block once, and read with the
    # body handed to np.loadtxt whole, give the same pixels or the same
    # message, whatever the block length
    text, fault = case
    table_path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "BLOCK_ROWS", run)
        got = _read_grid(table_path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "table", oracles.loadtxt_table(textio.table))
        want = _read_grid(table_path)
    assert got == want
    if fault is None:
        assert got[0] != "error"


def test_pixel_grid_parses_each_distinct_line_once(tmp_path, monkeypatch):
    data = np.zeros((50, 100, 2), dtype=np.float32)
    data[10:20, 30:40] = (0.25, 0.75)
    data[30:, :] = (1.0, 0.5)
    rasters.write_pixel_grid(data, ("a", "b"), tmp_path / "grid.txt")
    parsed = []
    loadtxt = np.loadtxt

    def counting(lines, *args, **kwargs):
        parsed.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    monkeypatch.setattr(textio, "BLOCK_ROWS", 2048)
    grid, _ = rasters.read_pixel_grid(tmp_path / "grid.txt")
    assert grid.tobytes() == data.tobytes()
    # rows 0-20 hold two distinct lines, rows 20-40 two others, the rest one
    assert parsed == [2, 2, 1]


def test_pixel_grid_with_comment_and_blank_lines_is_parsed_once(tmp_path,
                                                                 monkeypatch):
    # a comment and a blank line in a run are skipped where they stand:
    # the file is not handed to np.loadtxt again
    data = np.zeros((50, 100, 2), dtype=np.float32)
    data[10:20, 30:40] = (0.25, 0.75)
    data[30:, :] = (1.0, 0.5)
    path = tmp_path / "grid.txt"
    rasters.write_pixel_grid(data, ("a", "b"), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[40:40] = ["# a note\n"]
    lines[300:300] = ["\n"]
    path.write_text("".join(lines))
    parsed = []
    loadtxt = np.loadtxt

    def counting(lines, *args, **kwargs):
        parsed.append(len(lines) if isinstance(lines, list) else "file")
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    monkeypatch.setattr(textio, "BLOCK_ROWS", 2048)
    grid, _ = rasters.read_pixel_grid(path)
    assert grid.tobytes() == data.tobytes()
    # the first run's two distinct pixel lines go with the comment and
    # the blank line, which give no row
    assert parsed == [4, 2, 1]


@pytest.mark.parametrize("run", [2, 1 << 10])
@pytest.mark.parametrize("before", [[], ["# a note", ""], ["1_0"]])
def test_float32_overflow_is_a_non_finite_pixel_value(tmp_path, monkeypatch,
                                                      run, before):
    # 3.5e38 is a finite double and an infinite float32: named at its own
    # line in the first run, after a comment line and after a line only
    # Python reads
    monkeypatch.setattr(textio, "BLOCK_ROWS", run)
    body = ["0.5"] + before + ["0.5", "3.5e38", "0.5"]
    height = len([line for line in body if line and not line.startswith("#")])
    path = tmp_path / "grid.txt"
    path.write_text(f"pixel_grid width=1 height={height}\nchannels p\n"
                    + "\n".join(body) + "\n")
    no = 3 + body.index("3.5e38")
    with pytest.raises(ParseError, match=f"grid.txt:{no}: non-finite pixel value"):
        rasters.read_pixel_grid(path)


def _small_tree(path):
    n = 10
    keys = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]).astype(np.int64)
    occupancy.write_tree(occupancy.OccupancyTree(
        occupancy.OccupancyConfig(), keys, np.zeros(n), np.zeros(n), np.zeros((n, 3)),
        np.zeros(n), np.zeros((n, 3)), ("f",)), path)
    return occupancy.read_tree


def _four_correspondences(path):
    rasters.write_correspondences([((0, 0), (0, 0)), ((1, 0), (10, 0)),
                                   ((1, 1), (10, 10)), ((0, 1), (0, 10))], path)
    return rasters.read_correspondences


@pytest.mark.parametrize("write, rows, row_bytes", [
    (_small_tree, 10, 96), (_four_correspondences, 4, 32)],
    ids=["tree", "correspondences"])
def test_a_small_table_is_read_in_one_block_of_memory(tmp_path, write, rows,
                                                      row_bytes):
    # no buffer of the file's bytes, and no block of BLOCK_ROWS rows, is
    # taken: the read peaks at the file's few lines and numpy's first
    # allocation for its rows, 0.022 MB for a tree and 0.017 MB for
    # correspondences (numpy 2.4)
    read = write(tmp_path / "table.txt")
    read(tmp_path / "table.txt")     # imports and caches on the first read
    tracemalloc.start()
    try:
        read(tmp_path / "table.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * row_bytes + 0.05e6


_PAIRS = np.dtype([("v", "<f8", (2,))])


@pytest.mark.parametrize("line, want", [
    ("5 6", [[1, 2], [5, 6], [3, 4]]), ("1_0 6", [[1, 2], [10, 6], [3, 4]]),
    ("5 -6", None)], ids=["clean", "numpy-rejects", "flagged"])
@pytest.mark.parametrize("head", [0, 1])
def test_a_table_read_opens_its_file_once(tmp_path, monkeypatch, line, want, head):
    # a line numpy rejects is parsed, and a flagged row numbered, from the
    # lines already read: the file is not opened again
    path = tmp_path / "table.txt"
    path.write_text("header\n" * head + "# rows\n1 2\n" + line + "\n3 4\n")
    opened = []
    real_open = open

    def counting(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    checks = lambda t: [(t["v"][:, 1] < 0, "negative")]
    if head:
        read = lambda: textio.table(path, 1, _PAIRS, checks)[1]
    else:
        read = lambda: np.concatenate(list(textio.table_blocks(path, _PAIRS, checks)))
    if want is None:
        with pytest.raises(ParseError, match=f"table.txt:{3 + head}: negative"):
            read()
    else:
        assert read()["v"].tolist() == want
    assert opened.count(path) == 1


# ---------------------------------------------------------------------------
# the writer against the reference that formats every number on its own

def _value_pools(dtype):
    """Few distinct values of `dtype`, so that rows repeat: signed zeros,
    neighbours one ulp apart, and whatever else hypothesis finds."""
    if dtype == np.int64:
        return st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=4)
    width = 32 if dtype == np.float32 else 64
    edges = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25])

    def next_up(vals):
        # the neighbour of the largest finite value is inf, an overflow
        with np.errstate(over="ignore"):
            return vals + [float(np.nextafter(dtype(v), dtype(np.inf)))
                           for v in vals[:1]]
    return st.lists(edges | st.floats(width=width), min_size=1, max_size=4).map(
        next_up)


@st.composite
def write_cases(draw):
    """Columns drawn from small pools, so that rows and numbers repeat,
    and maybe one of distinct random floats beside them, as in the
    points and rays tables: no row repeats, but most numbers do."""
    rows = draw(st.integers(0, 9) | st.integers(4094, 4100) | st.just(8193))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        dtype = draw(st.sampled_from([np.float32, np.float64, np.int64]))
        pool = np.array(draw(_value_pools(dtype)), dtype=dtype)
        shape = (rows,) if draw(st.booleans()) else (rows, draw(st.integers(1, 4)))
        columns.append(pool[rng.integers(0, len(pool), size=shape)])
    if draw(st.booleans()):
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        shape = (rows,) if draw(st.booleans()) else (rows, draw(st.integers(1, 3)))
        distinct = (rng.standard_normal(shape) * 1e3).astype(dtype)
        columns.insert(draw(st.integers(0, len(columns))), distinct)
    return columns


@settings(max_examples=150, deadline=None)
@given(columns=write_cases())
def test_write_table_writes_the_references_bytes(tmp_path_factory, columns):
    where = tmp_path_factory.mktemp("write")
    textio.write_table(where / "got.txt", "# head\n", columns)
    oracles.write_table(where / "want.txt", "# head\n", columns)
    assert (where / "got.txt").read_bytes() == (where / "want.txt").read_bytes()


def test_write_table_keeps_signed_zeros_and_ulps_apart(tmp_path):
    ulp = float(np.nextafter(0.1, 1.0))
    column = np.array([0.0, -0.0, 0.1, ulp, -0.0, 0.0, ulp, 0.1])
    textio.write_table(tmp_path / "t.txt", "", [column, column.astype(np.float32)])
    lines = (tmp_path / "t.txt").read_text().splitlines()
    f32 = [repr(float(v)) for v in column.astype(np.float32)]
    assert lines == [f"{v!r} {w}" for v, w in zip(column.tolist(), f32)]
    assert lines[0] != lines[1] and lines[2] != lines[3]
