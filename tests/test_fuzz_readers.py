"""Fuzzed files through `cli.main`: every numeric-table format (rays,
tree, raster, pixel grid, correspondences and labeled points), the
solid, instance, template and model formats, whose lines lead with a
keyword, and the `key = value` config and metrics formats.

Each example breaks one line of a valid synth file: a NaN or infinite
token, a wrong keyword or `key=value` field, a truncated line, a dropped
column, a huge value, or bytes that are not UTF-8. The run must end in
exit 1 or 2 with an `error:` line, and nothing may escape as an
exception. No subcommand reads a metrics file, so its reader is called
directly and must raise the ParseError that `cli.main` turns into exit 2.
"""

import contextlib
import io
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lod3recon import cli
from lod3recon.errors import ParseError
from lod3recon.evaluate import read_metrics
from lod3recon.model_io import default_template_library, points_text

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
    # a `template <name> label=<l> depth=<d>` line
    "templates": {**{token: [3] for token in (
                      "nan", "depth=nan", "depth=inf", "depth=1e999", "depth=x",
                      "depth=")},
                  "label": [2], "x": [0, 2, 3],
                  **{word: [0] for word in ("tri", "end", "face")}},
    # a `placement <id> face= template= label= conf= rect=u0 v0 u1 v1` line
    "model": {**{token: range(7, 10) for token in ("nan", "inf", "-inf", "1e999")},
              "x": [0, 2, 3, 4, 5, 6, 7, 8, 9], "label=wall": [4],
              "conf=2": [5], "conf=nan": [5], "rect=inf": [6], "rect=x": [6],
              **{word: [0] for word in ("tri", "end", "outer")}},
    # `key = value`; any text is a metric's value, but none is empty
    "metrics": {"x": [1], "=": [0]},
    # a typed config value: each of these breaks every one of them
    "config": {**{token: [2] for token in ("nan", "inf", "1e999", "0", "-1", "x")},
               "x": [0, 1, 2], "bogus": [0], "==": [1]},
}

# the lines a token replacement hits in a keyword or config format
KEYWORD_LINES = {"solid": ("outer",), "instances": ("opening",),
                 "templates": ("template",), "model": ("placement",),
                 "config": ("voxel_size", "occupied_threshold", "iou_min",
                            "samples")}

# first words of the header lines a mutation leaves alone, and of the
# config lines any of whose values is valid: out_dir names any directory
HEADERS = ("#", "voxels", "facade_raster", "pixel_grid", "origin", "u ", "v ",
           "channels", "out_dir =")

# the fuzz pipeline: every wall, fewer surface samples than the default
CONFIG = "".join(f"{key} = {key}.txt\n" for key in (
    "rays", "points", "image", "correspondences", "solid", "gt_instances",
    "gt_measured")) + ("voxel_size = 0.1\noccupied_threshold = 0.5\n"
                      "iou_min = 0.5\nsamples = 200\nout_dir = fuzz_out\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    scene = tmp_path_factory.mktemp("fuzz")
    assert cli.main(["synth", "--out", str(scene)] + SCENE_ARGS) == 0
    tree = scene / "tree.txt"
    assert cli.main(["raycast", "--rays", str(scene / "rays.txt"),
                     "--solid", str(scene / "solid.txt"), "--out", str(tree)]) == 0
    return scene


@pytest.fixture(scope="module")
def evidence(files):
    """The fuzz scene with the conflict raster of a pipeline run as
    raster.txt."""
    assert cli.main(["pipeline", "--config", str(files / "scene.cfg")]) == 0
    (files / "raster.txt").write_bytes(
        (files / "artifacts" / "conflict_wall_front.txt").read_bytes())
    return files


@pytest.fixture(scope="module")
def library(prior):
    """The fuzz scene with the default templates as templates.txt, the
    ground-truth model as model.txt, the metrics and config of a pipeline
    run as metrics.txt and config.txt."""
    (prior / "templates.txt").write_text("".join(
        f"template {t.name} label={t.label} depth={t.depth!r}\n"
        + "".join(f"tri {points_text(tri)}\n" for tri in t.triangles) + "end\n"
        for t in default_template_library().values()))
    assert cli.main(["reconstruct", "--solid", str(prior / "solid.txt"),
                     "--instances", str(prior / "gt_instances.txt"),
                     "--margin", "0", "--out-model", str(prior / "model.txt"),
                     "--out-gml", str(prior / "model.gml")]) == 0
    (prior / "config.txt").write_text(CONFIG)
    assert cli.main(["pipeline", "--config", str(prior / "config.txt")]) == 0
    (prior / "metrics.txt").write_bytes(
        (prior / "fuzz_out" / "metrics.txt").read_bytes())
    return prior


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
        "rays": ["raycast", "--rays", str(bad), "--solid", str(scene / "solid.txt"),
                 "--out", out],
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
        "templates": ["reconstruct", "--solid", str(scene / "solid.txt"),
                      "--instances", str(scene / "gt_instances.txt"),
                      "--templates", str(bad), "--out-model", out,
                      "--out-gml", str(scene / "out.gml")],
        "model": ["evaluate", "--pred", str(scene / "gt_instances.txt"),
                  "--gt", str(scene / "gt_instances.txt"), "--model", str(bad),
                  "--gt-model", str(scene / "model.txt"), "--samples", "200"],
        "config": ["pipeline", "--config", str(bad)],
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


@settings(max_examples=60, deadline=None)
@given(mutation=mutations("templates"))
def test_broken_templates_exit_with_an_error_line(library, mutation):
    _check_exit(library, "templates", mutation)


@settings(max_examples=60, deadline=None)
@given(mutation=mutations("model"))
def test_broken_model_exits_with_an_error_line(library, mutation):
    _check_exit(library, "model", mutation)


@settings(max_examples=40, deadline=None)
@given(mutation=mutations("config"))
def test_broken_config_exits_with_an_error_line(library, mutation):
    _check_exit(library, "config", mutation)


@settings(max_examples=60, deadline=None)
@given(mutation=mutations("metrics"))
def test_broken_metrics_file_is_a_parse_error(library, mutation):
    bad = library / "bad_metrics.txt"
    bad.write_bytes(_break((library / "metrics.txt").read_text(), *mutation))
    with pytest.raises(ParseError, match=f"^{re.escape(str(bad))}:"):
        read_metrics(bad)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["faces", "face", "Faces", ""]),
       ids=st.lists(st.sampled_from(["wall_front", "wall_back", "roof", "", "x y"]),
                    max_size=4))
def test_broken_tree_faces_field_exits_2(files, key, ids):
    # a valid field naming wall_front is no break
    assume(not (key == "faces" and "wall_front" in ids
                and "" not in ids and "x y" not in ids
                and len(set(ids)) == len(ids)))
    lines = (files / "tree.txt").read_text().splitlines()
    head = lines[0].split()
    lines[0] = " ".join(head[:2] + [f"{key}={','.join(ids)}" if key else ""])
    bad = files / "bad_tree.txt"
    bad.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(_run(files, "tree")[1])
    assert code == 2, (lines[0], err.getvalue())
    assert err.getvalue().startswith(f"error: conflicts: {bad}")
