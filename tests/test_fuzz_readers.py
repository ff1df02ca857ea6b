"""Fuzzed files through `cli.main`: every numeric-table format (rays,
tree, raster, pixel grid, correspondences and labeled points) and the
solid and instance formats, whose lines lead with a keyword.

Each example breaks one line of a valid synth file: a NaN or infinite
token, a wrong keyword or `key=value` field, a truncated line, a dropped
column, a huge value, or bytes that are not UTF-8. The run must end in
exit 1 or 2 with an `error:` line, and nothing may escape as an
exception.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lod3recon import cli

SCENE_ARGS = ["--width", "3", "--height", "1", "--depth", "1", "--seed", "11",
              "--opening", "1 0.3 2 0.8 window"]

# per file: the columns where a token breaks the file whatever the rest
# of its line holds. A tree's distance may be +inf (no evidence), and a
# point next to an infinite distance is ignored.
FORMATS = {
    "rays": {"nan": range(7), "inf": range(7), "-inf": range(7),
             "1e999": range(6), "1e300": range(3),
             "1" + "0" * 25: range(6, 7)},
    "tree": {"nan": [0, 1, 2, 3, 4, 8], "inf": [0, 1, 2, 3],
             "-inf": [0, 1, 2, 3, 4, 8], "1e999": [3],
             "1" + "0" * 25: [0, 1, 2]},
    # a conflict raster; a pixel too large for float32 reads as infinite
    "raster": {token: range(3) for token in ("nan", "inf", "-inf", "1e999", "1e39")},
    "image": {token: range(2) for token in ("nan", "inf", "-inf", "1e999", "1e39")},
    "correspondences": {token: range(4) for token in ("nan", "inf", "-inf", "1e999")},
    "points": {**{token: range(11) for token in ("nan", "inf", "-inf", "1e999")},
               "-0.5": range(3, 11), "1.5": range(3, 11)},
    # an `outer` line of the box prior: any other value at a coordinate
    # opens the shell
    "solid": {**{token: range(1, 13) for token in (
                  "nan", "inf", "-inf", "1e999", "x", "0.5", "-7")},
              **{word: [0] for word in ("inner", "face", "end", "solid", "tri")}},
    # an `opening` line: the four rect numbers close it, fields lead
    "instances": {**{token: range(5, 8) for token in ("nan", "inf", "1e999", "-1")},
                  "x": range(8), "opening=": [0], "face=nowhere": [1],
                  "label=wall": [2], "conf=2": [3], "conf=nan": [3],
                  "rect=inf": [4], "rect=x": [4]},
}

# the lines a token replacement hits in a keyword format
KEYWORD_LINES = {"solid": ("outer",), "instances": ("opening",)}

# first words of the header lines a mutation leaves alone
HEADERS = ("#", "voxels", "facade_raster", "pixel_grid", "origin", "u ", "v ",
           "channels")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    scene = tmp_path_factory.mktemp("fuzz")
    assert cli.main(["synth", "--out", str(scene)] + SCENE_ARGS) == 0
    tree = scene / "tree.txt"
    assert cli.main(["raycast", "--rays", str(scene / "rays.txt"),
                     "--out", str(tree)]) == 0
    return scene


@pytest.fixture(scope="module")
def evidence(files):
    """The fuzz scene with the conflict raster of a pipeline run as
    raster.txt."""
    assert cli.main(["pipeline", "--config", str(files / "scene.cfg")]) == 0
    (files / "raster.txt").write_bytes(
        (files / "artifacts" / "conflict_wall_front.txt").read_bytes())
    return files


def _run(scene, kind):
    """argv of the run that reads the broken file of `kind`."""
    bad = scene / f"bad_{kind}.txt"
    out = str(scene / "out.txt")
    face = ["--solid", str(scene / "solid.txt"), "--face", "wall_front", "--out", out]

    def file_for(name):
        return str(bad if name == kind else scene / f"{name}.txt")

    project_image = ["project-image", "--image", file_for("image"),
                     "--correspondences", file_for("correspondences"), *face]
    return bad, {
        "rays": ["raycast", "--rays", str(bad), "--out", out],
        "tree": ["conflicts", "--tree", str(bad), *face],
        "raster": ["fuse", "--conflict", str(bad), "--out", out],
        "image": project_image,
        "correspondences": project_image,
        "points": ["project-points", "--points", str(bad), *face],
        "solid": ["conflicts", "--tree", str(scene / "tree.txt"),
                  "--solid", str(bad), "--face", "wall_front", "--out", out],
        "instances": ["reconstruct", "--solid", str(scene / "solid.txt"),
                      "--instances", str(bad), "--out-model", out,
                      "--out-gml", str(scene / "out.gml")],
    }[kind]


@st.composite
def mutations(draw, kind):
    """(line index among data lines, how to break it)."""
    how = draw(st.sampled_from(["token", "truncate", "drop", "bytes"]))
    if how == "token":
        token = draw(st.sampled_from(sorted(FORMATS[kind])))
        column = draw(st.sampled_from(list(FORMATS[kind][token])))
        return draw(st.integers(0, 10_000)), how, (column, token)
    return draw(st.integers(0, 10_000)), how, draw(st.integers(0, 10_000))


def _break(text: str, line_index: int, how: str, arg, keywords=None) -> bytes:
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines)
            if line.strip() and not line.startswith(HEADERS)
            and (how != "token" or keywords is None
                 or line.split()[0] in keywords)]
    i = data[line_index % len(data)]
    tokens = lines[i].split()
    if how == "token":
        column, token = arg
        tokens[column] = token
        lines[i] = " ".join(tokens)
    elif how == "truncate":
        # cut before the last separator, so at least one column is lost
        last_gap = lines[i].rstrip().rfind(" ")
        lines[i] = lines[i][:1 + arg % last_gap]
    elif how == "drop":
        del tokens[arg % len(tokens)]
        lines[i] = " ".join(tokens)
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    if how == "bytes":
        at = arg % len(raw)
        raw = raw[:at] + b"\xff\xfe" + raw[at:]
    return raw


def _check_exit(scene, kind, mutation):
    bad, argv = _run(scene, kind)
    bad.write_bytes(_break((scene / f"{kind}.txt").read_text(), *mutation,
                           KEYWORD_LINES.get(kind)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (1, 2), (mutation, err.getvalue())
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(mutation=mutations("rays"))
def test_broken_ray_file_exits_with_an_error_line(files, mutation):
    _check_exit(files, "rays", mutation)


@settings(max_examples=60, deadline=None)
@given(mutation=mutations("tree"))
def test_broken_tree_file_exits_with_an_error_line(files, mutation):
    _check_exit(files, "tree", mutation)


@settings(max_examples=40, deadline=None)
@given(mutation=mutations("raster"))
def test_broken_raster_exits_with_an_error_line(evidence, mutation):
    _check_exit(evidence, "raster", mutation)


@settings(max_examples=40, deadline=None)
@given(mutation=mutations("image"))
def test_broken_pixel_grid_exits_with_an_error_line(evidence, mutation):
    _check_exit(evidence, "image", mutation)


@settings(max_examples=40, deadline=None)
@given(mutation=mutations("correspondences"))
def test_broken_correspondences_exit_with_an_error_line(evidence, mutation):
    _check_exit(evidence, "correspondences", mutation)


@settings(max_examples=40, deadline=None)
@given(mutation=mutations("points"))
def test_broken_labeled_points_exit_with_an_error_line(evidence, mutation):
    _check_exit(evidence, "points", mutation)


@pytest.fixture(scope="module")
def prior(files):
    """The fuzz scene with its ground-truth openings as instances.txt."""
    (files / "instances.txt").write_bytes(
        (files / "gt_instances.txt").read_bytes())
    return files


@settings(max_examples=60, deadline=None)
@given(mutation=mutations("solid"))
def test_broken_solid_exits_with_an_error_line(prior, mutation):
    _check_exit(prior, "solid", mutation)


@settings(max_examples=60, deadline=None)
@given(mutation=mutations("instances"))
def test_broken_instances_exit_with_an_error_line(prior, mutation):
    _check_exit(prior, "instances", mutation)
