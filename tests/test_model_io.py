import numpy as np
import pytest

from lod3recon import model_io
from lod3recon.errors import ParseError, ValidationError
from lod3recon.model_io import BuildingSolid, Face, OpeningTemplate, Ring


def test_box_solid_volume_and_validation():
    s = model_io.box_solid("b1", (1.0, 2.0, 0.0), (10.0, 5.0, 4.0))
    assert s.volume() == pytest.approx(200.0, rel=1e-12)
    assert model_io.validate_solid(s) == []
    labels = sorted(f.label for f in s.faces)
    assert labels == ["ground", "roof", "wall", "wall", "wall", "wall"]


def test_box_solid_rejects_bad_size():
    with pytest.raises(ValidationError):
        model_io.box_solid("b", (0, 0, 0), (1.0, 0.0, 1.0))


def test_ring_needs_three_points():
    with pytest.raises(ValidationError):
        Ring(((0, 0, 0), (1, 0, 0)))


def test_face_plane():
    f = model_io.box_solid("b", (0, 0, 0), (2, 3, 4)).face("wall_front")
    n, d = f.plane()
    np.testing.assert_allclose(n, [0, -1, 0], atol=1e-12)
    assert d == pytest.approx(0.0)


def test_validate_detects_flipped_face():
    s = model_io.box_solid("b", (0, 0, 0), (1, 1, 1))
    faces = list(s.faces)
    faces[0] = Face(faces[0].face_id, faces[0].label,
                    Ring(faces[0].outer.points[::-1]))
    bad = BuildingSolid("b", 2, tuple(faces))
    assert model_io.validate_solid(bad)


def test_validate_detects_off_plane_ring():
    pts = ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0.01, 1))
    s = model_io.box_solid("b", (0, 0, 0), (1, 1, 1))
    faces = list(s.faces)
    faces[0] = Face("warp", "wall", Ring(pts))
    bad = BuildingSolid("b", 2, tuple(faces))
    assert any("off-plane" in v for v in model_io.validate_solid(bad))


def test_validate_detects_inner_ring_winding():
    s = model_io.box_solid("b", (0, 0, 0), (4, 4, 4))
    wall = s.face("wall_front")
    # same winding as outer: wrong
    inner = Ring(((1, 0, 1), (3, 0, 1), (3, 0, 3), (1, 0, 3)))
    n, _ = wall.plane()
    if float(np.asarray(model_io.geom.newell_area_vector(inner.points)) @ n) < 0:
        inner = Ring(inner.points[::-1])
    faces = [f if f.face_id != "wall_front" else
             Face(f.face_id, f.label, f.outer, (inner,)) for f in s.faces]
    bad = BuildingSolid("b", 2, tuple(faces))
    assert any("wind opposite" in v for v in model_io.validate_solid(bad))


@pytest.mark.parametrize("x0, x1, z0, z1", [
    (-1.5, -1.0, 0.2, 0.6),     # left
    (4.0, 4.5, 0.2, 0.6),       # right
    (1.0, 1.5, 1.2, 1.6),       # above
    (1.0, 1.5, -0.6, -0.2),     # below
], ids=["left", "right", "above", "below"])
def test_validate_detects_hole_outside_its_face(x0, x1, z0, z1):
    # a plugged hole beside the wall keeps the shell closed, but the hole
    # does not lie in the wall
    s = model_io.box_solid("b", (0, 0, 0), (3, 1, 1))
    hole = ((x0, 0.0, z0), (x0, 0.0, z1), (x1, 0.0, z1), (x1, 0.0, z0))
    faces = [f if f.face_id != "wall_front" else
             Face(f.face_id, f.label, f.outer, (Ring(hole),)) for f in s.faces]
    faces.append(Face("plug", "closure", Ring(hole[::-1])))
    bad = BuildingSolid("b", 2, tuple(faces))
    assert model_io.validate_solid(bad) == [
        "face wall_front: hole is not inside the outer ring"]


def test_validate_accepts_holes_meeting_the_outer_ring_at_a_vertex():
    # two plugged holes in the wall, meeting each other at (1.5, 0, 0.5)
    # and the wall's edge at (0, 0, 0.5) and (3, 0, 0.5)
    s = model_io.box_solid("b", (0, 0, 0), (3, 1, 1))
    holes = tuple(((x, 0.0, 0.5), (x + 0.75, 0.0, 0.8), (x + 1.5, 0.0, 0.5),
                   (x + 0.75, 0.0, 0.2)) for x in (0.0, 1.5))
    faces = [f if f.face_id != "wall_front" else
             Face(f.face_id, f.label, f.outer, tuple(Ring(h) for h in holes))
             for f in s.faces]
    faces += [Face(f"plug{k}", "closure", Ring(h[::-1])) for k, h in enumerate(holes)]
    assert model_io.validate_solid(BuildingSolid("b", 2, tuple(faces))) == []


def test_validate_detects_duplicate_face_ids():
    s = model_io.box_solid("b", (0, 0, 0), (1, 1, 1))
    faces = list(s.faces) + [s.faces[0]]
    bad = BuildingSolid("b", 2, tuple(faces))
    assert any("duplicate face id" in v for v in model_io.validate_solid(bad))


def test_validate_rejects_a_comma_in_a_face_id():
    # the occupancy tree's header lists face ids separated by ','
    s = model_io.box_solid("b", (0, 0, 0), (1, 1, 1))
    faces = [Face("a,b" if f.face_id == "roof" else f.face_id, f.label, f.outer)
             for f in s.faces]
    assert model_io.validate_solid(BuildingSolid("b", 2, tuple(faces))) == [
        "face id 'a,b' contains ','"]


def test_solid_file_round_trip(tmp_path):
    s = model_io.box_solid("house_7", (0.125, -3.5, 0.0), (9.33, 5.77, 4.21))
    path = tmp_path / "solid.txt"
    model_io.write_solid(s, path)
    back = model_io.read_solid(path)
    assert back == s  # exact: floats are written with repr


def test_solid_file_round_trip_with_inner_rings(tmp_path):
    s = model_io.box_solid("b", (0, 0, 0), (10, 5, 4))
    inner = Ring(((2, 0, 1), (2, 0, 3), (4, 0, 3), (4, 0, 1)))
    faces = [f if f.face_id != "wall_front" else
             Face(f.face_id, f.label, f.outer, (inner,)) for f in s.faces]
    s2 = BuildingSolid("b", 3, tuple(faces))
    path = tmp_path / "solid.txt"
    model_io.write_solid(s2, path)
    assert model_io.read_solid(path) == s2


def _numbered(text):
    return iter(list(enumerate(text.splitlines(), start=1)))


def test_block_reader_yields_blocks_and_stops_at_closing_end():
    lines = _numbered("face a\nx 1\nx 2\nend\nface b\nend\nend\nrest\n")
    got = list(model_io.blocks(lines, "f", "face", ("x",), closing=True))
    assert got == [(1, ["face", "a"], [(2, ["x", "1"]), (3, ["x", "2"])]),
                   (5, ["face", "b"], [])]
    assert next(lines) == (8, "rest")


@pytest.mark.parametrize("text, closing, message", [
    ("face\nx 1\nend\nend\n", False, "f:4: stray 'end'"),
    ("face\nface\n", False, "f:2: face without closing 'end'"),
    ("face\nx 1\n", False, "f:1: face not closed by 'end'"),
    ("x 1\n", False, "f:1: 'x' outside a face block"),
    ("face\ny\nend\n", False, "f:2: unknown keyword 'y'"),
    ("face\nend\n", True, "f: missing final 'end'"),
])
def test_block_reader_errors(text, closing, message):
    with pytest.raises(ParseError, match=message):
        list(model_io.blocks(_numbered(text), "f", "face", ("x",), closing))


@pytest.mark.parametrize("text, fragment", [
    ("", "empty"),
    ("solid b\n", "expected 'solid"),
    ("solid b lod=two\nend\n", "integer"),
    ("solid b lod=2\nend\n", "no faces"),
    ("solid b lod=2\nface f label=wall\nouter 0 0 0 1 0 0\nend\nend\n", "3*k"),
    ("solid b lod=2\nface f label=wall\ninner 0 0 0 1 0 0 1 1 0\nend\nend\n", "misplaced"),
    ("solid b lod=2\nface f label=wall\nouter 0 0 0 1 0 0 1 1 x\nend\nend\n", "bad number 'x'"),
    ("solid b lod=2\nface f label=wall\nouter 0 0 0 1 0 0 1 1 0\nend\n", "missing final"),
    ("solid b lod=2\nbogus 1 2 3\nend\n", "unknown keyword"),
])
def test_solid_parse_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=fragment):
        model_io.read_solid(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "solid.txt"
    path.write_text(
        "# prior model\n\nsolid b lod=2  # id and level\n"
        "face f label=wall\n"
        "outer 0 0 0  1 0 0  1 0 1  0 0 1\n"
        "end\nend\n")
    s = model_io.read_solid(path)
    assert s.solid_id == "b" and len(s.faces) == 1


def test_default_templates_validate():
    lib = model_io.default_template_library()
    assert sorted(t.label for t in lib.values()) == ["door", "window"]
    assert lib["flat_panel"].depth == 0.0
    assert lib["mid_pane"].depth == pytest.approx(0.1)


def test_template_rejects_open_mesh():
    a0, a1, a2, a3 = model_io.TEMPLATE_ANCHOR
    with pytest.raises(ValidationError, match="close"):
        OpeningTemplate("broken", "door", 0.0, ((a0, a1, a2),))


def test_template_rejects_bad_label_and_depth():
    tris = model_io.default_template_library()["flat_panel"].triangles
    with pytest.raises(ValidationError):
        OpeningTemplate("t", "balcony", 0.0, tris)
    with pytest.raises(ValidationError):
        OpeningTemplate("t", "door", -0.5, tris)


def write_template_library(templates: dict, path) -> None:
    """The `template ... end` blocks `read_template_library` reads."""
    blocks = [f"template {t.name} label={t.label} depth={t.depth!r}\n"
              + "".join(f"tri {model_io.points_text(tri)}\n" for tri in t.triangles)
              + "end\n" for t in templates.values()]
    path.write_text("".join(blocks))


def test_template_library_round_trip(tmp_path):
    lib = model_io.default_template_library()
    path = tmp_path / "templates.txt"
    write_template_library(lib, path)
    back = model_io.read_template_library(path)
    assert back == lib


def test_template_parse_errors(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("template a label=door depth=0\ntri 0 0 0 1 0 0\nend\n")
    with pytest.raises(ParseError, match="9 coordinates"):
        model_io.read_template_library(path)
    path.write_text("end\n")
    with pytest.raises(ParseError, match="stray"):
        model_io.read_template_library(path)


@pytest.mark.parametrize("label, depth, drop, message", [
    ("balcony", "0.0", 0, "template label 'balcony'"),
    ("door", "-0.5", 0, "template depth must be >= 0"),
    ("door", "0.0", 1, "template .bad. does not close against its anchor"),
])
def test_template_library_rejects_invalid_template(tmp_path, label, depth,
                                                   drop, message):
    # a valid library, then a flat panel with one fault
    path = tmp_path / "t.txt"
    write_template_library(model_io.default_template_library(), path)
    head = len(path.read_text().splitlines()) + 1
    a0, a1, a2, a3 = model_io.TEMPLATE_ANCHOR
    tris = [(a0, a1, a2), (a0, a2, a3)][drop:]
    path.write_text(path.read_text() + f"template bad label={label} depth={depth}\n"
                    + "".join(f"tri {model_io.points_text(t)}\n" for t in tris)
                    + "end\n")
    with pytest.raises(ParseError, match=f"t.txt:{head}: {message}"):
        model_io.read_template_library(path)
