"""The shared text-file rules, and the contract every reader and writer
keeps: a path that cannot be opened is an IoError, bytes that are not
UTF-8 text are a ParseError."""

import inspect

import numpy as np
import pytest

from lod3recon import (cli, evaluate, extraction, fusion, model_io, occupancy,
                       rasters, reconstruct, textio)
from lod3recon.errors import IoError, ParseError

MODULES = (occupancy, model_io, rasters, fusion, extraction, evaluate,
           reconstruct)

NOT_UTF8 = b"\xff\xfe# not text\n\x80\x81 1 2 3\n"


def _functions(prefix):
    return {f"{m.__name__.rsplit('.', 1)[1]}.{name}": fn
            for m in MODULES for name, fn in vars(m).items()
            if name.startswith(prefix) and inspect.isfunction(fn)
            and fn.__module__ == m.__name__}


READERS = {**_functions("read_"), "cli.read_config_file": cli.read_config_file}


def _solid():
    return model_io.box_solid("b", (0.0, 0.0, 0.0), (4.0, 2.0, 3.0))


def _raster():
    frame = rasters.facade_frame(_solid().face("wall_front"), 0.5)
    return rasters.FacadeRaster.zeros(frame, ("opening",))


def _instance():
    return extraction.OpeningInstance("wall_front", (1.0, 1.0, 2.0, 2.0),
                                      "window", 0.9)


# one call per writer: name -> write(path)
WRITERS = {
    "occupancy.write_rays": lambda p: occupancy.write_rays(
        np.array([[0, 0, 0, 1, 1, 1, 1]]), p),
    "occupancy.write_tree": lambda p: occupancy.write_tree(
        occupancy.build_occupancy(np.array([[0, 0, 0, 1, 1, 1, 1]])), p),
    "model_io.write_solid": lambda p: model_io.write_solid(_solid(), p),
    "rasters.write_labeled_points": lambda p: rasters.write_labeled_points(
        np.zeros((1, 3)), np.zeros((1, len(rasters.POINT_LABELS))), p),
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
    assert set(WRITERS) == set(_functions("write_"))


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
