import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import oracles
from lod3recon import geom


# ---------------------------------------------------------------------------
# volumes: oracle is the tetrahedron determinant formula

UNIT_TETRA_FACES = (
    ((0, 0, 0), (0, 1, 0), (1, 0, 0)),
    ((0, 0, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
)


def test_enclosed_volume_unit_tetra():
    assert geom.enclosed_volume(UNIT_TETRA_FACES) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_enclosed_volume_affine_tetra_matches_determinant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.normal(size=(3, 3))
        if np.linalg.det(m) < 0.1:
            continue
        shift = rng.normal(size=3)
        faces = [[m @ np.asarray(p, float) + shift for p in f] for f in UNIT_TETRA_FACES]
        expect = np.linalg.det(m) / 6.0
        assert geom.enclosed_volume(faces) == pytest.approx(expect, rel=1e-10)


def test_enclosed_volume_box_with_hole_and_plug():
    # a hole ring subtracts area; adding the same loop back as a separate
    # face restores the closed volume
    top = ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
    bottom = ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0))
    sides = (
        ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
        ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
        ((1, 1, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
        ((0, 1, 0), (0, 0, 0), (0, 0, 1), (0, 1, 1)),
    )
    hole = ((0.2, 0.2, 1), (0.2, 0.6, 1), (0.6, 0.6, 1), (0.6, 0.2, 1))  # clockwise
    plug = tuple(reversed(hole))
    loops = [top, bottom, *sides, hole, plug]
    assert geom.enclosed_volume(loops) == pytest.approx(1.0, rel=1e-12)


def test_newell_matches_cross_product_for_triangle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = rng.normal(size=(3, 3))
        expect = 0.5 * np.cross(b - a, c - a)
        got = geom.newell_area_vector((a, b, c))
        np.testing.assert_allclose(got, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# 2D polygon helpers

def test_polygon_area_sign():
    sq = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert oracles.polygon_area_2d(sq) == pytest.approx(4.0)
    assert oracles.polygon_area_2d(list(reversed(sq))) == pytest.approx(-4.0)


def test_point_in_polygon_concave():
    # L-shape, then the same with a square hole: all points in one call,
    # each ring's edges counted toward the same parity
    poly = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)]
    points = [(0.5, 2.5), (2.5, 0.5), (2.5, 2.5), (-0.5, 0.5), (0.5, 0.5)]
    got = geom.points_in_polygon(points, [poly])
    assert got.dtype == bool and got.tolist() == [True, True, False, False, True]
    hole = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.75), (0.75, 0.25)]
    got = geom.points_in_polygon(points, [poly, hole])
    assert got.tolist() == [True, True, False, False, False]
    assert geom.points_in_polygon(np.zeros((0, 2)), [poly]).shape == (0,)


def test_clip_polygon_box():
    big = [(-0.5, -0.5), (1.5, -0.5), (1.5, 1.5), (-0.5, 1.5)]
    out = oracles.clip_polygon_box_2d(big, 0, 0, 1, 1)
    assert oracles.polygon_area_2d(out) == pytest.approx(1.0)
    inside = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.9)]
    out = oracles.clip_polygon_box_2d(inside, 0, 0, 1, 1)
    assert oracles.polygon_area_2d(out) == pytest.approx(oracles.polygon_area_2d(inside))
    outside = [(2, 2), (3, 2), (3, 3)]
    assert oracles.clip_polygon_box_2d(outside, 0, 0, 1, 1) == []


def test_segment_distance_2d():
    assert geom.segment_distance_2d((0, 0), (2, 2), (0, 2), (2, 0)) == 0.0
    assert geom.segment_distance_2d((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)
    assert geom.segment_distance_2d((0, 0), (1, 0), (3, 0), (4, 0)) == pytest.approx(2.0)
    # touching endpoints count as intersecting
    assert geom.segment_distance_2d((0, 0), (1, 1), (1, 1), (2, 0)) == 0.0


# ---------------------------------------------------------------------------
# triangulation: area conservation + hole avoidance

def _check_triangulation(outer, holes, rot=np.eye(3), shift=np.zeros(3)):
    # the face of 2-D rings in the plane z = 0, turned by `rot` and moved
    # by `shift`: its triangles face the outer ring's normal, cover its
    # area, and each centroid lies in the face and off every hole
    lift = lambda ring: [tuple(rot @ np.array([p[0], p[1], 0.0]) + shift) for p in ring]
    tris = geom.triangulate_face(lift(outer), [lift(h) for h in holes])
    assert tris.dtype == float and tris.shape[1:] == (3, 3)
    n = geom.ring_normal(lift(outer))
    assert (geom.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]) @ n > 0.0).all()
    expect = abs(oracles.polygon_area_2d(outer)) - sum(
        abs(oracles.polygon_area_2d(h)) for h in holes)
    assert float(geom.triangle_areas(tris).sum()) == pytest.approx(expect, rel=1e-9)
    # a centroid closer to a ring than rounding reaches, the one of a
    # sliver between two vertices at almost one height, is not tested
    centroids = ((tris.mean(axis=1) - shift) @ rot)[:, :2]
    reach = 1e-9 + 1e-12 * float(np.abs(shift).max())
    clear = [min(geom.point_segment_distance_2d(c, ring[m - 1], ring[m])
                 for ring in [outer, *holes] for m in range(len(ring))) > reach
             for c in centroids]
    assert geom.points_in_polygon(centroids[clear], [outer]).all()
    for h in holes:
        assert not geom.points_in_polygon(centroids[clear], [h]).any()


def test_triangulate_simple_shapes():
    _check_triangulation([(0, 0), (4, 0), (4, 3), (0, 3)], [])
    _check_triangulation([(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)], [])  # concave
    _check_triangulation(
        [(0, 0), (4, 0), (5, 2), (2, 4), (-1, 2)],
        [[(1.8, 1.6), (2.6, 2.0), (2.2, 2.8), (1.4, 2.4)]])  # rotated hole


def test_triangulate_hole_occlusion():
    # the holes share rows, so slabs cross several of them
    outer = [(0, 0), (10, 0), (10, 4), (0, 4)]
    holes = [
        [(1, 1), (2, 1), (2, 2), (1, 2)],
        [(4, 1.25), (5, 1.25), (5, 2.25), (4, 2.25)],
        [(7, 1.25), (8, 1.25), (8, 2.25), (7, 2.25)],
    ]
    _check_triangulation(outer, holes)


@pytest.mark.parametrize("holes", [
    # two holes meeting at (2, 2) along either diagonal, and a third
    # touching the second at (3, 3)
    [[(1, 1), (2, 1), (2, 2), (1, 2)], [(2, 2), (3, 2), (3, 3), (2, 3)]],
    [[(1, 2), (2, 2), (2, 3), (1, 3)], [(2, 1), (3, 1), (3, 2), (2, 2)]],
    [[(1, 1), (2, 1), (2, 2), (1, 2)], [(2, 2), (3, 2), (3, 3), (2, 3)],
     [(3, 3), (3.5, 3), (3.5, 3.5), (3, 3.5)]],
])
def test_triangulate_holes_touching_at_a_vertex(holes):
    _check_triangulation([(0, 0), (4, 0), (4, 4), (0, 4)], holes)


def test_triangulate_takes_each_vertex_exactly():
    # a corner at the end of an edge is that vertex, bit for bit, although
    # a + (b - a) rounds off b along these slanted edges
    outer = [(2.2, 0.1, 3.3), (7.7, 0.1, 3.3), (5.5, 2.1, 2.3), (0.3, 2.1, 2.3)]
    hole = [(4.4, 0.6, 3.05), (5.5, 1.1, 2.8), (3.3, 1.6, 2.55)]
    corners = {tuple(p) for p in geom.triangulate_face(outer, [hole]).reshape(-1, 3)}
    assert set(outer + hole) <= corners


@st.composite
def _rect_scene(draw):
    w = draw(st.integers(8, 40)) * 0.5
    h = draw(st.integers(8, 40)) * 0.5
    outer = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
    holes = []
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        hw = draw(st.integers(1, 6)) * 0.25
        hh = draw(st.integers(1, 6)) * 0.25
        x0 = draw(st.integers(1, 150)) * 0.25
        y0 = draw(st.integers(1, 150)) * 0.25
        assume(x0 + hw <= w - 0.25 and y0 + hh <= h - 0.25)
        box = (x0 - 0.25, y0 - 0.25, x0 + hw + 0.25, y0 + hh + 0.25)
        for other in boxes:
            assume(box[2] <= other[0] or box[0] >= other[2]
                   or box[3] <= other[1] or box[1] >= other[3])
        boxes.append(box)
        holes.append([(x0, y0), (x0 + hw, y0), (x0 + hw, y0 + hh), (x0, y0 + hh)])
    return outer, holes


@settings(max_examples=120, deadline=None)
@given(_rect_scene())
def test_triangulate_random_hole_layouts(scene):
    outer, holes = scene
    _check_triangulation(outer, holes)


def _random_plane(outer, holes, flip_outer, flip_holes, seed, reach):
    """The rings in either winding, and a random turn and a shift of up
    to `reach` that take the plane z = 0 into a random plane."""
    if flip_outer:
        outer = outer[::-1]
    if flip_holes:
        holes = [h[::-1] for h in holes]
    rng = np.random.default_rng(seed)
    rot = Rotation.random(random_state=rng).as_matrix()
    return outer, holes, rot, rng.normal(size=3) * 10.0 ** rng.integers(0, reach + 1)


@settings(max_examples=120, deadline=None)
@given(_rect_scene(), st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(([(0, 0), (6, 0), (6, 4), (0, 4)], [[(2, 1), (4, 1), (4, 3), (2, 3)]]),
         False, True, 11)
def test_triangulate_loop_3d_orientation(scene, flip_outer, flip_holes, seed):
    # the hole layouts of the 2D test, each ring in either winding, lifted
    # into a random plane
    _check_triangulation(*_random_plane(*scene, flip_outer, flip_holes, seed, 0))


@st.composite
def _touching_scene(draw):
    """A `_rect_scene` whose first hole may gain a neighbour meeting it
    at one corner, diagonally."""
    outer, holes = draw(_rect_scene())
    if holes and draw(st.booleans()):
        (x0, y0), _, (x1, y1), _ = holes[0]
        w, h = outer[2]
        dw, dh = draw(st.integers(1, 4)) * 0.25, draw(st.integers(1, 4)) * 0.25
        if draw(st.booleans()):     # up and right
            hole = [(x1, y1), (x1 + dw, y1), (x1 + dw, y1 + dh), (x1, y1 + dh)]
        else:                       # down and right, meeting at (x1, y0)
            hole = [(x1, y0 - dh), (x1 + dw, y0 - dh), (x1 + dw, y0), (x1, y0)]
        xs, ys = [p[0] for p in hole], [p[1] for p in hole]
        assume(min(xs) > 0.0 and min(ys) > 0.0 and max(xs) < w and max(ys) < h)
        for other in holes[1:]:
            ox, oy = [p[0] for p in other], [p[1] for p in other]
            assume(max(xs) < min(ox) or min(xs) > max(ox)
                   or max(ys) < min(oy) or min(ys) > max(oy))
        holes = holes + [hole]
    return outer, holes


@settings(max_examples=150, deadline=None)
@given(_touching_scene(), st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(([(0, 0), (4, 0), (4, 4), (0, 4)],
          [[(1, 1), (2, 1), (2, 2), (1, 2)], [(2, 2), (3, 2), (3, 3), (2, 3)]]),
         False, False, 3)
# the last hole meets both earlier ones
@example(([(0, 0), (5, 0), (5, 5), (0, 5)],
          [[(2, 3), (2, 4), (1, 4), (1, 3)], [(2, 0.5), (2, 1), (1, 1), (1, 0.5)],
           [(3, 1), (3, 3), (2, 3), (2, 1)]]), False, False, 3)
# hole edges on one line
@example(([(0, 0), (8, 0), (8, 6), (0, 6)],
          [[(4, 1), (6, 1), (6, 2), (4, 2)], [(2, 5), (4, 5), (4, 3), (2, 3)]]),
         False, False, 3)
def test_triangulate_touching_holes_in_random_planes(scene, flip_outer, flip_holes,
                                                     seed):
    # holes meeting at a vertex, in either winding, in a random plane up
    # to 1e6 m from the origin
    _check_triangulation(*_random_plane(*scene, flip_outer, flip_holes, seed, 6))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=4, max_size=30), st.booleans())
def test_triangulate_star_polygons(radii, snap):
    # star-shaped rings with many reflex corners; snapped to a grid,
    # vertices fall on one slab cut and on lines through other corners
    angles = np.linspace(0.0, 2 * np.pi, len(radii), endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)]) * np.array(radii)[:, None]
    if snap:
        ring = np.round(ring * 2) / 2
    ring = [tuple(p) for p in ring.tolist()]
    assume(len(set(ring)) == len(ring) and oracles.polygon_area_2d(ring) > 0.0)
    _check_triangulation(ring, [])


def test_cross_is_numpys_bit_for_bit():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-8, 8, size=(500, 1))
    b = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-8, 8, size=(500, 1))
    a[:50] = np.round(a[:50])       # exact cancellations, signed zeros
    b[:50] = np.round(b[:50])
    assert geom.cross(a, b).tobytes() == np.cross(a, b).tobytes()
    assert geom.cross(a[0], b).tobytes() == np.cross(a[0], b).tobytes()
    assert geom.cross(np.eye(3)[1], b).tobytes() == np.cross(np.eye(3)[1], b).tobytes()


# ---------------------------------------------------------------------------
# point/triangle distance: oracle is the closest-point region walk

def _oracle_point_tri(p, a, b, c):
    p, a, b, c = (np.asarray(v, float) for v in (p, a, b, c))
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = float(ab @ ap), float(ac @ ap)
    if d1 <= 0 and d2 <= 0:
        return float(np.linalg.norm(p - a))
    bp = p - b
    d3, d4 = float(ab @ bp), float(ac @ bp)
    if d3 >= 0 and d4 <= d3:
        return float(np.linalg.norm(p - b))
    vc = d1 * d4 - d3 * d2
    if vc <= 0 <= d1 and d3 <= 0:
        t = d1 / (d1 - d3)
        return float(np.linalg.norm(p - (a + t * ab)))
    cp = p - c
    d5, d6 = float(ab @ cp), float(ac @ cp)
    if d6 >= 0 and d5 <= d6:
        return float(np.linalg.norm(p - c))
    vb = d5 * d2 - d1 * d6
    if vb <= 0 <= d2 and d6 <= 0:
        t = d2 / (d2 - d6)
        return float(np.linalg.norm(p - (a + t * ac)))
    va = d3 * d6 - d5 * d4
    if va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return float(np.linalg.norm(p - (b + t * (c - b))))
    denom = 1.0 / (va + vb + vc)
    q = a + ab * (vb * denom) + ac * (vc * denom)
    return float(np.linalg.norm(p - q))


def test_points_triangle_distance_against_region_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        tri = rng.normal(size=(3, 3)) * 2.0
        if geom.triangle_areas([tri])[0] < 1e-3:
            continue
        pts = rng.normal(size=(40, 3)) * 3.0
        got = oracles.points_triangle_distance(pts, tri)
        want = [_oracle_point_tri(p, *tri) for p in pts]
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_points_triangle_distance_degenerate():
    tri = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]  # collinear
    pts = np.array([[0.5, 1.0, 0.0], [3.0, 0.0, 0.0]])
    got = oracles.points_triangle_distance(pts, tri)
    np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-12)


def test_sample_on_triangles_stays_on_surface():
    tris = np.array([
        [(0, 0, 0), (2, 0, 0), (0, 2, 0)],
        [(0, 0, 1), (1, 0, 1), (0, 1, 1)],
    ], dtype=float)
    pts = geom.sample_on_triangles(tris, 500)
    assert pts.shape == (500, 3)
    # each point on its own triangle, the one at its height
    low = pts[:, 2] < 0.5
    assert float(oracles.points_triangle_distance(pts[low], tris[0]).max()) < 1e-12
    assert float(oracles.points_triangle_distance(pts[~low], tris[1]).max()) < 1e-12
    # area weighting: the big triangle has 4x the area, 400 of 500 samples
    assert abs(int(low.sum()) - 400) <= 8.5


# ---------------------------------------------------------------------------
# closed surface check

BOX_LOOPS = (
    ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
    ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
    ((1, 1, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
    ((0, 1, 0), (0, 0, 0), (0, 0, 1), (0, 1, 1)),
    ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),
    ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)),
)


def test_closed_surface_box():
    assert geom.closed_surface_violations(BOX_LOOPS) == []


def test_closed_surface_detects_missing_and_flipped_faces():
    assert geom.closed_surface_violations(BOX_LOOPS[:-1])
    flipped = list(BOX_LOOPS[:-1]) + [tuple(reversed(BOX_LOOPS[-1]))]
    assert geom.closed_surface_violations(flipped)


def test_closed_surface_welds_near_coincident_vertices():
    loops = [list(map(list, loop)) for loop in BOX_LOOPS]
    loops[0][0][0] += 1e-9
    assert geom.closed_surface_violations(loops) == []
