import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lod3recon import geom, reconstruct
from lod3recon.errors import (ConfigError, DomainError, OpeningOutsideFace,
                              OpeningTouchesBoundary, ParseError,
                              ValidationError)
from lod3recon.extraction import OpeningInstance
from lod3recon.model_io import (BuildingSolid, Face, OpeningTemplate, Ring,
                                box_solid, default_template_library)
from lod3recon.rasters import facade_frame
from lod3recon.reconstruct import (Lod3Model, Placement,
                                   merge_overlapping_instances, read_model,
                                   reconstruct_model, write_citygml,
                                   write_model)

import oracles


def _cube():
    return box_solid("cube", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def _inst(rect, label="window", conf=0.9, face="wall_right"):
    return OpeningInstance(face, rect, label, conf)


def _flat_window():
    """Degenerate closure: two coplanar triangles spanning the anchor."""
    return OpeningTemplate("flat_win", "window", 0.0,
                           (((0, 0, 0), (1, 0, 0), (1, 1, 0)),
                            ((0, 0, 0), (1, 1, 0), (0, 1, 0))))


# ---------------------------------------------------------------------------
# merging

def test_merge_disjoint_instances_untouched():
    a = _inst((0.1, 0.1, 0.3, 0.3))
    b = _inst((0.5, 0.5, 0.7, 0.7))
    assert merge_overlapping_instances([a, b]) == [a, b]


def test_merge_touching_rects_fuse():
    # rects that share an edge would leave a zero-thickness sliver between
    # their recesses: they fuse into their bounding rect
    a = _inst((0.1, 0.1, 0.3, 0.3))
    b = _inst((0.3, 0.1, 0.5, 0.3))
    (m,) = merge_overlapping_instances([a, b])
    assert m.rect == (0.1, 0.1, 0.5, 0.3)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_merge_repeats_until_no_rects_touch(order):
    # the third rect touches neither of the others, only their bounding
    # rect: it fuses with them whatever the order
    rects = [(0.0, 0.0, 1.0, 2.0), (1.0, 0.0, 2.0, 1.0), (1.5, 1.5, 1.9, 1.9)]
    (m,) = merge_overlapping_instances([_inst(rects[i]) for i in order])
    assert m.rect == (0.0, 0.0, 2.0, 2.0)


def test_merged_split_window_cuts():
    # a window extracted as three rects, two of them sharing the edge
    # u = 6.6; the merged rects cut a watertight model
    solid = box_solid("b", (0.0, 0.0, 0.0), (16.0, 6.0, 10.0))
    parts = [(6.6, 2.0, 7.2, 2.4), (6.0, 2.1, 6.6, 3.0), (6.7, 2.5, 7.1, 2.9)]
    merged = merge_overlapping_instances(
        [_inst(r, face="wall_front") for r in parts])
    assert [m.rect for m in merged] == [(6.0, 2.0, 7.2, 3.0)]
    model = reconstruct_model(solid, merged)
    assert geom.closed_surface_violations(list(model.loops())) == []


def test_merge_overlap_unions_bbox():
    a = _inst((0.1, 0.1, 0.4, 0.4))
    b = _inst((0.3, 0.2, 0.6, 0.5))
    (m,) = merge_overlapping_instances([a, b])
    assert m.rect == (0.1, 0.1, 0.6, 0.5)


def test_merge_label_from_largest_member():
    small = _inst((0.1, 0.1, 0.3, 0.3), label="window")
    big = _inst((0.2, 0.2, 0.8, 0.8), label="door")
    (m,) = merge_overlapping_instances([small, big])
    assert m.label == "door"


def test_merge_label_tie_prefers_window():
    a = _inst((0.1, 0.1, 0.3, 0.3), label="door")
    b = _inst((0.2, 0.2, 0.4, 0.4), label="window")
    (m,) = merge_overlapping_instances([a, b])
    assert m.label == "window"


def test_merge_confidence_area_weighted():
    a = _inst((0.0, 0.0, 1.0, 1.0), conf=0.9)          # area 1.0
    b = _inst((0.5, 0.5, 1.5, 2.0), conf=0.6)          # area 1.5
    (m,) = merge_overlapping_instances([a, b])
    assert m.confidence == pytest.approx((0.9 * 1.0 + 0.6 * 1.5) / 2.5)


def test_merge_transitive_chain_collapses():
    a = _inst((0.0, 0.0, 0.2, 0.2))
    b = _inst((0.15, 0.0, 0.35, 0.2))
    c = _inst((0.3, 0.0, 0.5, 0.2))
    (m,) = merge_overlapping_instances([a, b, c])
    assert m.rect == (0.0, 0.0, 0.5, 0.2)


def test_merge_bridging_instance_fuses_two_groups():
    # a and c are disjoint until b arrives overlapping both
    a = _inst((0.0, 0.0, 0.2, 0.2))
    c = _inst((0.4, 0.0, 0.6, 0.2))
    b = _inst((0.1, 0.0, 0.5, 0.2))
    (m,) = merge_overlapping_instances([a, c, b])
    assert m.rect == (0.0, 0.0, 0.6, 0.2)


def test_merge_same_rect_other_face_kept_apart():
    a = _inst((0.1, 0.1, 0.4, 0.4), face="wall_right")
    b = _inst((0.1, 0.1, 0.4, 0.4), face="wall_left")
    assert len(merge_overlapping_instances([a, b])) == 2


# ---------------------------------------------------------------------------
# cutting preconditions

def test_cut_rejects_nonpositive_depth():
    with pytest.raises(DomainError):
        reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))], depth=0.0)


def test_cut_rejects_unknown_face():
    with pytest.raises(ValidationError, match="unknown face"):
        reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6), face="nope")])


def test_cut_rejects_protruding_rect():
    with pytest.raises(OpeningOutsideFace):
        reconstruct_model(_cube(), [_inst((0.8, 0.4, 1.2, 0.6))])


def test_cut_rejects_rect_fully_outside():
    with pytest.raises(OpeningOutsideFace):
        reconstruct_model(_cube(), [_inst((1.5, 1.5, 1.8, 1.8))])


def test_cut_rejects_exact_boundary_touch():
    with pytest.raises(OpeningTouchesBoundary):
        reconstruct_model(_cube(), [_inst((0.0, 0.4, 0.3, 0.6))])


def test_cut_enforces_margin():
    inst = _inst((0.05, 0.4, 0.3, 0.6))
    reconstruct_model(_cube(), [inst])  # fine without margin
    with pytest.raises(OpeningTouchesBoundary):
        reconstruct_model(_cube(), [inst], margin=0.1)


def test_cut_rejects_rect_inside_existing_hole():
    once = reconstruct_model(_cube(), [_inst((0.2, 0.2, 0.8, 0.8))]).solid
    with pytest.raises(OpeningOutsideFace):
        reconstruct_model(once, [_inst((0.4, 0.4, 0.6, 0.6))], depth=0.05)


def test_cut_rejects_rect_swallowing_existing_hole():
    once = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))]).solid
    with pytest.raises(OpeningOutsideFace):
        reconstruct_model(once, [_inst((0.2, 0.2, 0.8, 0.8))], depth=0.05)


def test_rect_error_comes_before_template_error():
    # the door has no template and comes first, but every rect is checked
    # before any template is looked up
    insts = [_inst((0.4, 0.2, 0.6, 0.8), label="door", face="wall_front"),
             _inst((0.8, 0.4, 1.2, 0.6))]
    with pytest.raises(OpeningOutsideFace):
        reconstruct_model(_cube(), insts, {"w": _flat_window()})


def _outer_ring(shape, w, h, k):
    """A 2-D outer ring of `w` by `h` grid steps of 0.1 m: a rectangle, a
    gable `k` steps high over it, or a rectangle with a notch `k` steps
    deep cut into the middle of its top."""
    w, h, k = w * 0.1, h * 0.1, k * 0.1
    if shape == "gable":
        return [(0.0, 0.0), (w, 0.0), (w, h), (w / 2.0, h + k), (0.0, h)]
    if shape == "notched":
        a, b = w / 3.0, 2.0 * w / 3.0
        return [(0.0, 0.0), (w, 0.0), (w, h), (b, h), (b, h - k), (a, h - k),
                (a, h), (0.0, h)]
    return [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]


def _grid_rect(draw, w, h):
    """A rect on the 0.1 m grid around a `w` by `h` step face."""
    u0, v0 = draw(st.integers(-1, w)), draw(st.integers(-1, h))
    return (u0 * 0.1, v0 * 0.1, (u0 + draw(st.integers(1, w // 3))) * 0.1,
            (v0 + draw(st.integers(1, h // 3))) * 0.1)


@st.composite
def _faces_with_rects(draw):
    w, h = draw(st.integers(4, 40)), draw(st.integers(4, 30))
    outer = _outer_ring(draw(st.sampled_from(["rectangle", "gable", "notched"])),
                        w, h, draw(st.integers(1, h - 2)))
    holes = []
    if draw(st.booleans()):
        u0, v0, u1, v1 = _grid_rect(draw, w, h)
        holes = [[(u0, v0), (u0, v1), (u1, v1), (u1, v0)]]
    if draw(st.booleans()):
        # the float jitter of charting a face in 3-D; without it, rects
        # meet hole vertices and lie exactly the margin off a ring
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        outer, *holes = [[tuple(p) for p in np.asarray(r)
                          + rng.uniform(-1e-15, 1e-15, (len(r), 2))]
                         for r in [outer, *holes]]
    rects = [_grid_rect(draw, w, h) for _ in range(draw(st.integers(1, 4)))]
    return rects, outer, holes, draw(st.sampled_from([0.0, 0.05, 0.1, 0.2]))


_SQUARE = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]


@settings(max_examples=400, deadline=None)
@given(_faces_with_rects())
# a hole vertex on a rect's edge touches it, and does not overlap it
@example(([(1.0, 0.5, 2.0, 1.5)], _SQUARE,
          [[(0.0, 1.0), (0.0, 2.0), (1.0, 2.0), (1.0, 1.0)]], 0.0))
# a rect exactly the margin off the outer ring touches it
@example(([(0.1, 1.0, 2.0, 2.0)], _SQUARE, [], 0.1))
def test_rect_checks_give_the_first_error_of_the_scalar_checks(case):
    rects, outer, holes, margin = case
    try:
        reconstruct._check_rects(rects, [outer, *holes], margin, "f")
        got = None
    except (OpeningOutsideFace, OpeningTouchesBoundary) as exc:
        got = type(exc).__name__, str(exc)
    assert got == oracles.rect_check_error(rects, outer, holes, margin, "f")


# ---------------------------------------------------------------------------
# cutting geometry

def test_cut_adds_inner_ring_and_four_side_walls():
    cut = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))]).solid
    face = cut.face("wall_right")
    assert len(face.inner) == 1
    sides = [f for f in cut.faces if f.face_id.startswith("wall_right_cut1_")]
    assert [f.face_id for f in sides] == [
        f"wall_right_cut1_side{j}" for j in (1, 2, 3, 4)]
    assert all(f.label == "wall" for f in sides)
    assert len(cut.faces) == len(_cube().faces) + 4


def test_cut_inner_ring_winds_opposite_to_outer():
    cut = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))]).solid
    face = cut.face("wall_right")
    n_outer = geom.newell_area_vector(face.outer.points)
    n_inner = geom.newell_area_vector(face.inner[0].points)
    assert float(n_outer @ n_inner) < 0.0


def test_cut_ring_vertices_on_rect_corners():
    cut = reconstruct_model(_cube(), [_inst((0.4, 0.3, 0.6, 0.7))]).solid
    got = {tuple(np.round(p, 12)) for p in cut.face("wall_right").inner[0].points}
    # +x face: u runs along +y, v along +z
    want = {(1.0, 0.4, 0.3), (1.0, 0.4, 0.7), (1.0, 0.6, 0.7), (1.0, 0.6, 0.3)}
    assert got == want


def test_cut_side_walls_reach_recess_depth():
    cut = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))],
                            depth=0.25).solid
    sides = [f for f in cut.faces if "cut1_side" in f.face_id]
    xs = np.concatenate([f.outer.as_array()[:, 0] for f in sides])
    assert set(np.round(xs, 12)) == {0.75, 1.0}


def test_cut_preserves_other_faces():
    solid = _cube()
    cut = reconstruct_model(solid, [_inst((0.4, 0.4, 0.6, 0.6))]).solid
    for f in solid.faces:
        if f.face_id == "wall_right":
            continue
        assert cut.face(f.face_id) == f


def test_cut_two_openings_same_face():
    insts = [_inst((0.1, 0.4, 0.3, 0.6)), _inst((0.6, 0.4, 0.8, 0.6))]
    cut = reconstruct_model(_cube(), insts).solid
    assert len(cut.face("wall_right").inner) == 2
    assert sum("cut" in f.face_id for f in cut.faces) == 8


def test_opening_ids_in_merged_order_side_walls_in_face_order():
    # the third instance touches the first: merging moves their group
    # last, so wall_left's opening is the first, while wall_right comes
    # before wall_left among the faces
    insts = [_inst((0.2, 0.2, 0.4, 0.4)), _inst((0.4, 0.4, 0.6, 0.6), face="wall_left"),
             _inst((0.4, 0.2, 0.6, 0.4))]
    model = reconstruct_model(_cube(), insts)
    assert [(p.opening_id, p.face_id) for p in model.placements] == [
        ("opening_001", "wall_left"), ("opening_002", "wall_right")]
    assert model.placements[1].instance.rect == (0.2, 0.2, 0.6, 0.4)
    sides = [f.face_id for f in model.solid.faces if "_cut" in f.face_id]
    assert sides == [f"{face}_cut1_side{j}" for face in ("wall_right", "wall_left")
                     for j in (1, 2, 3, 4)]


# ---------------------------------------------------------------------------
# template fitting

def test_fit_flat_template_lands_on_recess_floor():
    model = reconstruct_model(_cube(), [_inst((0.25, 0.1, 0.75, 0.9))],
                              {"w": _flat_window()}, depth=0.1)
    pts = np.asarray([p for tri in model.placements[0].mesh for p in tri])
    assert np.allclose(pts[:, 0], 0.9, atol=1e-12)
    corners = {tuple(np.round(p, 12)) for p in pts}
    assert (0.9, 0.25, 0.1) in corners and (0.9, 0.75, 0.9) in corners


def test_fit_anchor_matches_cut_ring_shifted_inward():
    # 0.5 x 1.0 recess centered in a 2 x 2 face
    rect = (0.75, 0.5, 1.25, 1.5)
    solid = box_solid("box", (0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
    model = reconstruct_model(solid, [_inst(rect)], {"w": _flat_window()},
                              depth=0.1)
    frame = facade_frame(solid.face("wall_right"), 1.0)
    ring = model.solid.face("wall_right").inner[0].as_array()
    floor = ring - np.asarray(frame.normal) * 0.1
    pts = np.asarray([p for tri in model.placements[0].mesh for p in tri])
    for corner in floor:
        assert np.min(np.linalg.norm(pts - corner, axis=1)) < 1e-9


def test_fit_scales_template_depth_to_cut_depth():
    # the built-in pane is 0.1 deep with its pane at 0.05: a 0.2 cut
    # doubles every z, so the pane sits 0.1 above the recess floor
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))], depth=0.2)
    xs = np.asarray([p[0] for tri in model.placements[0].mesh for p in tri])
    assert set(np.round(xs, 12)) == {0.8, 0.9}


def test_pick_template_matches_label():
    # the first template of the opening's label, in library order
    insts = [_inst((0.1, 0.2, 0.3, 0.8), label="door"), _inst((0.6, 0.4, 0.8, 0.6))]
    for lib, window in [({"flat_win": _flat_window(), **default_template_library()},
                         "flat_win"),
                        ({**default_template_library(), "flat_win": _flat_window()},
                         "mid_pane")]:
        model = reconstruct_model(_cube(), insts, lib)
        assert [p.template for p in model.placements] == ["flat_panel", window]
    with pytest.raises(ConfigError):
        reconstruct_model(_cube(), insts, {"flat_win": _flat_window()})


# ---------------------------------------------------------------------------
# assembly and volumes

def test_reconstruct_flat_window_volume_exact():
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))],
                              {"w": _flat_window()}, depth=0.1)
    assert model.volume() == pytest.approx(1.0 - 0.2 * 0.2 * 0.1, abs=1e-9)
    assert model.solid.lod == 3
    assert [p.opening_id for p in model.placements] == ["opening_001"]


def test_reconstruct_mid_pane_bulges_half_cut():
    # pane sits halfway down the recess, so half the cut volume returns
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))],
                              depth=0.1)
    assert model.volume() == pytest.approx(1.0 - 0.004 + 0.002, abs=1e-9)


def test_reconstruct_two_openings_volume_adds_up():
    insts = [_inst((0.1, 0.4, 0.3, 0.6)), _inst((0.6, 0.4, 0.8, 0.6))]
    model = reconstruct_model(_cube(), insts, {"w": _flat_window()}, depth=0.1)
    assert model.volume() == pytest.approx(1.0 - 2 * 0.2 * 0.2 * 0.1, abs=1e-9)
    assert len(model.placements) == 2


def test_reconstruct_is_watertight():
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))],
                              depth=0.1)
    assert geom.closed_surface_violations(list(model.loops())) == []


def test_reconstruct_no_instances_upgrades_lod_only():
    model = reconstruct_model(_cube(), [])
    assert model.solid.lod == 3
    assert model.placements == ()
    assert model.volume() == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_merges_overlapping_detections():
    insts = [_inst((0.2, 0.2, 0.5, 0.5)), _inst((0.4, 0.4, 0.7, 0.7))]
    model = reconstruct_model(_cube(), insts, {"w": _flat_window()}, depth=0.1)
    assert len(model.placements) == 1
    assert model.placements[0].instance.rect == (0.2, 0.2, 0.7, 0.7)


def test_reconstruct_missing_template_label():
    with pytest.raises(ConfigError):
        reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6), label="door")],
                          {"w": _flat_window()})


def test_reconstruct_door_uses_door_template():
    model = reconstruct_model(_cube(), [_inst((0.4, 0.2, 0.6, 0.8),
                                              label="door")], depth=0.1)
    assert model.placements[0].template == "flat_panel"
    assert model.placements[0].label == "door"


def test_assemble_rejects_leaky_mesh():
    # a template whose triangles no longer close against its anchor
    leaky = _flat_window()
    object.__setattr__(leaky, "triangles", leaky.triangles[:1])
    with pytest.raises(ValidationError, match="watertight"):
        reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))], {"w": leaky})


def test_model_attributes_map_ids_to_confidence():
    insts = [_inst((0.1, 0.4, 0.3, 0.6), conf=0.75),
             _inst((0.6, 0.4, 0.8, 0.6), conf=0.5)]
    model = reconstruct_model(_cube(), insts, {"w": _flat_window()}, depth=0.1)
    assert {p.opening_id: p.confidence for p in model.placements} == {
        "opening_001": 0.75, "opening_002": 0.5}


# ---------------------------------------------------------------------------
# model text round trip

def test_model_text_round_trip(tmp_path):
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6), conf=0.77)],
                              depth=0.1)
    path = tmp_path / "model.txt"
    write_model(model, path)
    back = read_model(path)
    assert back.solid.solid_id == "cube"
    assert back.solid.lod == 3
    assert len(back.placements) == 1
    p = back.placements[0]
    assert p.opening_id == "opening_001"
    assert p.template == "mid_pane"
    assert p.instance.rect == (0.4, 0.4, 0.6, 0.6)
    assert p.confidence == 0.77
    assert p.mesh == model.placements[0].mesh
    assert back.volume() == pytest.approx(model.volume(), abs=1e-12)


def test_read_model_rejects_stray_tri(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("solid s lod=3\nface f label=wall\n"
                    "outer 0 0 0  1 0 0  1 1 0  0 1 0\nend\nend\n"
                    "tri 0 0 0 1 0 0 1 1 0\n")
    with pytest.raises(ParseError, match="outside a placement"):
        read_model(path)


def test_read_model_rejects_unclosed_placement(tmp_path):
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))],
                              depth=0.1)
    path = tmp_path / "model.txt"
    write_model(model, path)
    text = path.read_text()
    path.write_text(text[:text.rstrip().rfind("\nend")] + "\n")
    with pytest.raises(ParseError):
        read_model(path)


def test_read_model_validates_closure(tmp_path):
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))],
                              depth=0.1)
    path = tmp_path / "model.txt"
    write_model(model, path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("tri")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="not closed"):
        read_model(path)


# ---------------------------------------------------------------------------
# CityGML subset

GML_ID = "{http://www.opengis.net/gml}id"
SURFACE_LABELS = {"WallSurface": "wall", "RoofSurface": "roof",
                  "GroundSurface": "ground", "ClosureSurface": "closure"}


def _pos_list(element):
    vals = [float(t) for t in element.text.split()]
    # a posList ring repeats its first point at the end
    return tuple(tuple(vals[i:i + 3]) for i in range(0, len(vals) - 3, 3))


def read_citygml(path) -> Lod3Model:
    """The model in a file `write_citygml` wrote, to the 3 decimals of
    posList. Rects come from the mesh footprint in the host face frame;
    template names are not in the XML and come back empty."""
    building = ET.parse(path).getroot().find("cityObjectMember/Building")
    if building is None:
        raise ParseError(f"{path}: no Building element")
    faces, placements = [], []
    for surface in building.findall("boundedBy/*"):
        polygon = surface.find("lod3MultiSurface/Polygon")
        face = Face(surface.get(GML_ID), SURFACE_LABELS[surface.tag],
                    Ring(_pos_list(polygon.find("exterior/posList"))),
                    tuple(Ring(_pos_list(el))
                          for el in polygon.findall("interior/posList")))
        faces.append(face)
        for el in surface.findall("opening/*"):
            mesh = tuple(_pos_list(p) for p in el.findall(
                "lod3MultiSurface/Polygon/exterior/posList"))
            uv = facade_frame(face, 1.0).to_uv([pt for tri in mesh for pt in tri])
            inst = OpeningInstance(face.face_id, (*uv.min(axis=0), *uv.max(axis=0)),
                                   el.tag.lower(), float(el.findtext("confidence")))
            placements.append(Placement(el.get(GML_ID), inst, "", mesh))
    return Lod3Model(BuildingSolid(building.get(GML_ID), 3, tuple(faces)),
                     tuple(placements))


def _gml(tmp_path, model):
    path = tmp_path / "model.gml"
    write_citygml(model, path)
    return path


def test_citygml_single_window_with_confidence(tmp_path):
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6), conf=0.9)],
                              {"w": _flat_window()}, depth=0.1)
    path = _gml(tmp_path, model)
    root = ET.parse(path).getroot()
    windows = root.findall(".//Window")
    assert len(windows) == 1
    assert root.findall(".//Door") == []
    assert windows[0].findtext("confidence") == "0.9000"
    host = root.find(".//WallSurface[@{http://www.opengis.net/gml}id='wall_right']")
    assert host.find("opening/Window") is not None


def test_citygml_surface_elements_by_label(tmp_path):
    model = reconstruct_model(_cube(), [])
    root = ET.parse(_gml(tmp_path, model)).getroot()
    assert len(root.findall(".//WallSurface")) == 4
    assert len(root.findall(".//RoofSurface")) == 1
    assert len(root.findall(".//GroundSurface")) == 1
    building = root.find(".//Building")
    assert building.get("{http://www.opengis.net/gml}id") == "cube"
    assert building.get("lod") == "3"


def test_citygml_cut_face_has_interior_ring(tmp_path):
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))],
                              depth=0.1)
    root = ET.parse(_gml(tmp_path, model)).getroot()
    wall = root.find(".//WallSurface[@{http://www.opengis.net/gml}id='wall_right']")
    assert wall.find(".//Polygon/interior/posList") is not None
    # four recess side walls carry WallSurface members of their own
    assert len(root.findall(".//WallSurface")) == 4 + 4


def test_citygml_writes_are_byte_stable(tmp_path):
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6))],
                              depth=0.1)
    a = tmp_path / "a.gml"
    b = tmp_path / "b.gml"
    write_citygml(model, a)
    write_citygml(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_citygml_round_trip_geometry(tmp_path):
    model = reconstruct_model(_cube(), [_inst((0.4, 0.4, 0.6, 0.6), conf=0.85)],
                              {"w": _flat_window()}, depth=0.1)
    back = read_citygml(_gml(tmp_path, model))
    assert back.solid.solid_id == "cube"
    assert {f.face_id for f in back.solid.faces} == {
        f.face_id for f in model.solid.faces}
    assert back.volume() == pytest.approx(model.volume(), abs=1e-3)
    p = back.placements[0]
    assert p.opening_id == "opening_001"
    assert p.label == "window"
    assert p.confidence == pytest.approx(0.85, abs=1e-4)
    assert p.instance.rect == pytest.approx((0.4, 0.4, 0.6, 0.6), abs=1e-3)


def test_citygml_rejects_empty_building_id(tmp_path):
    model = Lod3Model(box_solid("", (0, 0, 0), (1, 1, 1)), ())
    with pytest.raises(ParseError):
        write_citygml(model, tmp_path / "x.gml")


def test_citygml_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.gml"
    path.write_text("<CityModel><oops/></CityModel>")
    with pytest.raises(ParseError):
        read_citygml(path)
