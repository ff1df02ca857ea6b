import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import oracles
import rigid
import scenes
from lod3recon import rasters, visibility
from lod3recon.cli import PipelineConfig, run_pipeline
from lod3recon.errors import DomainError
from lod3recon.model_io import Face, Ring, box_solid, read_solid, write_solid
from lod3recon import occupancy
from lod3recon.occupancy import OccupancyConfig, build_occupancy, grid_index
from lod3recon.synth import SceneSpec, scene_solid, synth_scene
from lod3recon.visibility import (UncertaintyConfig, joint_state_probability,
                                  positioning_confidence,
                                  positioning_probability, surface_voxels)


# ---------------------------------------------------------------------------
# positioning model

def test_positioning_probability_reference_value():
    # centered slab of one voxel width under sigma = 3 voxels; the erf
    # identity gives the same mass through a different route
    expect = math.erf(1.0 / (6.0 * math.sqrt(2.0)))
    got = positioning_probability(0.0, 3.0, 0.1)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(0.1323676652, abs=1e-9)
    # independent of the voxel size at fixed sigma-in-voxels
    assert positioning_probability(0.0, 3.0, 0.5) == pytest.approx(got, rel=1e-12)


def test_positioning_probability_symmetry():
    for d in (0.05, 0.2, 1.0):
        assert positioning_probability(d, 3.0, 0.1) == pytest.approx(
            positioning_probability(-d, 3.0, 0.1), rel=1e-12)


@given(st.floats(0, 5), st.floats(0, 5))
def test_positioning_probability_decreases_with_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    assert positioning_probability(hi, 3.0, 0.1) <= \
        positioning_probability(lo, 3.0, 0.1) + 1e-15


@given(st.floats(0, 10))
def test_positioning_confidence_normalized(d):
    c = positioning_confidence(d, 2.85, 0.1)
    assert 0.0 <= c <= 1.0
    assert positioning_confidence(0.0, 2.85, 0.1) == 1.0


def test_positioning_domain_errors():
    with pytest.raises(DomainError):
        positioning_probability(0.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        positioning_probability(0.0, 3.0, -0.1)


def test_joint_state_probability():
    conf, confl = joint_state_probability(0.9, 0.8)
    assert conf == pytest.approx(0.72)
    assert confl == pytest.approx(0.28)
    assert conf + confl == pytest.approx(1.0)
    with pytest.raises(DomainError):
        joint_state_probability(1.2, 0.5)


@given(st.floats(0, 1), st.floats(0, 1))
def test_joint_state_probability_complement(pa, pb):
    conf, confl = joint_state_probability(pa, pb)
    assert conf + confl == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= conf <= 1.0


def test_uncertainty_config_validation():
    with pytest.raises(DomainError):
        UncertaintyConfig(sigma_position=0.0)
    with pytest.raises(DomainError):
        UncertaintyConfig(sigma_state=-1.0)
    with pytest.raises(DomainError):
        UncertaintyConfig(occupied_threshold=1.0)


# ---------------------------------------------------------------------------
# surface voxels

def wall_face(inner=()):
    return Face("w", "wall", Ring((
        (0, 0, 0), (1, 0, 0), (1, 0, 0.4), (0, 0, 0.4))), inner)


def _assert_keys(keys, want):
    """`keys` are (m, 3) int64 rows, strictly ascending, listing `want`."""
    assert keys.dtype == np.int64 and keys.shape == (len(want), 3)
    rows = [tuple(k) for k in keys.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert rows == sorted(want)


def test_surface_voxels_grid_aligned_wall():
    keys = surface_voxels(wall_face(), 0.1)
    expect = sorted((ix, 0, iz) for ix in range(10) for iz in range(4))
    _assert_keys(keys, expect)


def test_surface_voxels_positive_normal_takes_lower_layer():
    # outward +y at y = 0.3: inner side is below the plane, layer 2
    face = Face("w", "wall", Ring((
        (0, 0.3, 0), (0, 0.3, 0.2), (0.2, 0.3, 0.2), (0.2, 0.3, 0))))
    n, _ = face.plane()
    np.testing.assert_allclose(n, [0, 1, 0], atol=1e-12)
    keys = surface_voxels(face, 0.1)
    _assert_keys(keys, sorted((ix, 2, iz) for ix in range(2) for iz in range(2)))


def test_surface_voxels_aligned_hole_removes_cells():
    inner = Ring(((0.3, 0, 0.1), (0.3, 0, 0.3), (0.5, 0, 0.3), (0.5, 0, 0.1)))
    keys = surface_voxels(wall_face((inner,)), 0.1)
    removed = {(ix, 0, iz) for ix in (3, 4) for iz in (1, 2)}
    expect = sorted({(ix, 0, iz) for ix in range(10) for iz in range(4)} - removed)
    _assert_keys(keys, expect)


def test_surface_voxels_partially_covered_hole_cells_stay():
    # a cell the hole covers in part stays while its centre lies on the
    # wall: x in (0.36, 0.44) misses the centres 0.35 and 0.45
    inner = Ring(((0.36, 0, 0.1), (0.36, 0, 0.3), (0.44, 0, 0.3), (0.44, 0, 0.1)))
    keys = surface_voxels(wall_face((inner,)), 0.1)
    _assert_keys(keys, [(ix, 0, iz) for ix in range(10) for iz in range(4)])
    # x in (0.32, 0.48) holds them: cells 3 and 4 keep slivers of wall,
    # but they leave
    inner = Ring(((0.32, 0, 0.1), (0.32, 0, 0.3), (0.48, 0, 0.3), (0.48, 0, 0.1)))
    keys = surface_voxels(wall_face((inner,)), 0.1)
    removed = {(ix, 0, iz) for ix in (3, 4) for iz in (1, 2)}
    _assert_keys(keys, sorted({(ix, 0, iz) for ix in range(10) for iz in range(4)}
                              - removed))


def test_surface_voxels_off_grid_plane_reads_both_layers():
    # the plane y = 0.03 lies in layer 0; its samples half a voxel to
    # either side of it reach layer -1 too
    face = Face("w", "wall", Ring((
        (0, 0.03, 0), (1, 0.03, 0), (1, 0.03, 0.4), (0, 0.03, 0.4))))
    keys = surface_voxels(face, 0.1)
    _assert_keys(keys, sorted((ix, iy, iz) for ix in range(10) for iy in (-1, 0)
                              for iz in range(4)))


# ---------------------------------------------------------------------------
# grid-plane faces against the area oracle

# the front scene's defaults and the block scene's 16 x 10 x 6 m box
SYNTH_SPECS = {"front": SceneSpec(),
               "block": SceneSpec(width=16.0, height=6.0, depth=10.0, pitch=0.1)}
SYNTH_PRIORS = tuple(scene_solid(spec) for spec in SYNTH_SPECS.values())
FAR = (5e5, 5.4e6, 0.0)


def _assert_matches_area_oracle(face, vs):
    want = oracles.aligned_face_voxels(face, vs)
    assert want is not None, "face must lie in a grid plane"
    _assert_keys(surface_voxels(face, vs), want)


@pytest.mark.parametrize("vs", [0.1, 0.2, 0.25])
@pytest.mark.parametrize("solid", SYNTH_PRIORS, ids=["front", "block"])
def test_synth_prior_faces_match_area_oracle(solid, vs):
    for face in solid.faces:
        _assert_matches_area_oracle(face, vs)


@pytest.mark.parametrize("origin", [FAR, (-5e5, -5.4e6, 0.0), (123.4, -77.7, 3.3)])
def test_offset_box_faces_match_area_oracle(origin):
    for face in box_solid("b", origin, (3.3, 2.2, 1.1)).faces:
        _assert_matches_area_oracle(face, 0.1)


@pytest.mark.parametrize("origin", [FAR, (-5e5, -5.4e6, 0.0)], ids=["ne", "sw"])
def test_far_box_faces_end_at_their_edges(origin):
    # the south-west box's edges lie within a float step of grid lines;
    # a cell they enter by less is not the face's
    solid = box_solid("b", origin, (3.3, 2.2, 1.1))
    roof = surface_voxels(solid.face("roof"), 0.1)
    assert len({k[1] for k in roof}) == 22
    for face_id in ("wall_left", "wall_right"):
        assert len(surface_voxels(solid.face(face_id), 0.1)) == 242


def test_far_grid_plane_face_takes_the_inner_layer():
    # -5399997.8 lies one float step above the grid line 53999978 * 0.1,
    # in the voxel layer outside the box
    face = box_solid("b", (-5e5, -5.4e6, 0.0), (3.3, 2.2, 1.1)).face("wall_back")
    assert {k[1] for k in surface_voxels(face, 0.1)} == {-53999979}


def _grid_wall(rng, vs, offset, touching):
    """A wall lying in a grid plane, with a hole in some of the cells of a
    3 x 3 split of its rectangle. With `touching`, two of the holes meet
    diagonally at a single vertex. Corners are either grid products
    k * vs, so that edges lie on grid lines, or arbitrary. Both windings,
    every normal axis."""
    ax = int(rng.integers(3))
    i, j = rng.permutation([a for a in range(3) if a != ax])
    snap = bool(rng.integers(2))
    slot = rng.integers(3, 6, size=2)          # cells per third
    size = 3 * slot

    def corner(lo, hi):
        # a coordinate strictly inside (lo, hi), in cells
        return float(rng.integers(lo + 1, hi)) if snap else rng.uniform(lo + 0.1, hi - 0.1)

    holes = []
    if touching:
        # both holes end at the node (slot, slot), along either diagonal
        du = [slot[0] - corner(0, slot[0]), corner(0, slot[0])]
        dv = [slot[1] - corner(0, slot[1]), corner(0, slot[1])]
        s = 1 if rng.integers(2) else -1
        holes.append((slot[0] - du[0], slot[1] - s * dv[0], slot[0], slot[1]))
        holes.append((slot[0], slot[1], slot[0] + du[1], slot[1] + s * dv[1]))
    for k in rng.permutation(9)[:int(rng.integers(0, 3 if touching else 4))]:
        a, b = divmod(int(k), 3)
        if touching and a < 2 and b < 2:
            continue  # keep clear of the touching pair
        u = sorted(corner(a * slot[0], (a + 1) * slot[0]) for _ in range(2))
        v = sorted(corner(b * slot[1], (b + 1) * slot[1]) for _ in range(2))
        if u[0] < u[1] and v[0] < v[1]:
            holes.append((u[0], v[0], u[1], v[1]))
    base = [round(o / vs) + int(rng.integers(-20, 20)) for o in offset]
    ccw = bool(rng.integers(2))

    def ring(rect, ccw):
        u0, v0, u1, v1 = (min(rect[0], rect[2]), min(rect[1], rect[3]),
                          max(rect[0], rect[2]), max(rect[1], rect[3]))
        uv = [(u0, v0), (u1, v0), (u1, v1), (u0, v1)]
        pts = []
        for u, v in (uv if ccw else uv[::-1]):
            p = [0.0, 0.0, 0.0]
            p[ax] = base[ax] * vs
            p[i], p[j] = (base[i] + u) * vs, (base[j] + v) * vs
            pts.append(tuple(p))
        return Ring(tuple(pts))

    return Face("w", "wall", ring((0, 0, size[0], size[1]), ccw),
                tuple(ring(h, not ccw) for h in holes))


@pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), FAR], ids=["near", "far"])
@pytest.mark.parametrize("touching", [False, True], ids=["apart", "touching"])
def test_random_grid_walls_match_area_oracle(offset, touching):
    # the area oracle's cells, less those a hole covers in part with the
    # cell's centre inside it
    rng = np.random.default_rng(41)
    for _ in range(40):
        vs = float(rng.choice([0.05, 0.1, 0.2, 0.25]))
        face = _grid_wall(rng, vs, offset, touching)
        ax, _ = oracles.grid_layer(*face.plane(), vs)
        i, j = [a for a in range(3) if a != ax]
        holes = [[(p[i], p[j]) for p in ring.points] for ring in face.inner]
        want = [k for k in oracles.aligned_face_voxels(face, vs)
                if not oracles.in_rings((k[i] + 0.5) * vs, (k[j] + 0.5) * vs, holes)]
        _assert_keys(surface_voxels(face, vs), want)


CELLS = (0.05, 0.1, 0.25, 0.4)


def _assert_samples_equal_the_oracle(face, vs, cell):
    """`pixel_voxels` on the face's frame of `cell` gives the per-sample
    oracle's (pixel, key) pairs, and `surface_voxels` the keys they read
    at a cell of one voxel."""
    frame = rasters.facade_frame(face, cell)
    pixel, keys = visibility.pixel_voxels(face, frame, vs)
    assert keys.dtype == np.int64 and keys.shape == (len(pixel), 3)
    got = sorted(zip(pixel.tolist(), map(tuple, keys.tolist())))
    assert got == oracles.pixel_samples(face, frame, vs)
    want = {key for _, key in oracles.pixel_samples(
        face, rasters.facade_frame(face, vs), vs)}
    assert len(want) > 0
    _assert_keys(surface_voxels(face, vs), sorted(want))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.1, 0.25]),
       st.sampled_from(["random", "yaw", "grid"]),
       st.sampled_from([(0.0, 0.0, 0.0), FAR, (-5e5, -5.4e6, 0.0)]),
       st.sampled_from(CELLS))
def test_surface_voxels_equal_the_per_sample_oracle(seed, vs, turn, origin, cell):
    # a rectangle, maybe under a gable, with up to two holes, turned at
    # random, about z, or onto a grid plane, then moved
    rng = np.random.default_rng(seed)
    # on a grid plane every corner is a grid node, so that diagonals and
    # edges run through voxel corners and along voxel faces
    snap = (lambda x: np.round(x / vs) * vs) if turn == "grid" else (lambda x: x)
    w, h = 2 * snap(rng.uniform(0.3, 1.5)), snap(rng.uniform(0.6, 3.0))
    outer2d = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
    if rng.integers(2):
        # a gable, its edges at 45 degrees
        outer2d.insert(3, (w / 2, h + w / 2))
    holes2d = []
    for i in range(int(rng.integers(0, 3))):
        # hole i lies in the i-th half of the rectangle
        u0, v0 = snap((i / 2 + rng.uniform(0.05, 0.3)) * w), snap(rng.uniform(0.1, 0.6) * h)
        u1, v1 = u0 + max(snap(w / 8), vs), v0 + max(snap(h / 4), vs)
        # a hole one voxel wide can leave a narrow face
        if u1 < w and v1 < h:
            holes2d.append([(u0, v0), (u0, v1), (u1, v1), (u1, v0)])
    if turn == "random":
        rot = Rotation.random(random_state=rng).as_matrix()
    elif turn == "yaw":
        rot = Rotation.from_euler("xz", [90, rng.uniform(0, 360)], degrees=True).as_matrix()
    else:
        rot = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0])
    shift = np.asarray(origin) + (np.round(rng.uniform(-5, 5, 3) / vs) * vs
                                  if turn == "grid" else rng.uniform(-5, 5, 3))
    lift = lambda ring: tuple(tuple(rot @ np.array([p[0], p[1], 0.0]) + shift)
                              for p in ring)
    face = Face("f", "wall", Ring(lift(outer2d)),
                tuple(Ring(lift(h)) for h in holes2d))
    _assert_samples_equal_the_oracle(face, vs, cell)


@pytest.mark.parametrize("vs", [0.1, 0.25])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("power", [19, 22, 23])
def test_box_across_a_power_of_two_keys_equal_the_oracle(power, axis, vs):
    # the box straddles 2**power m along the axis, where the float step
    # doubles, so a row of samples holds samples of either step
    size = (3.3, 2.2, 1.1)
    origin = [0.0, 0.0, 0.0]
    origin[axis] = 2.0 ** power - size[axis] / 2
    for face in box_solid("b", origin, size).faces:
        _assert_samples_equal_the_oracle(face, vs, 0.4)


@pytest.mark.parametrize("yaw, shift", [(yaw, (0.03, 0.07, 0.0)) for yaw in range(0, 91, 5)]
                         + [(45, (0.0, 0.0, 0.0))])
def test_turned_front_wall_keys_equal_the_oracle(yaw, shift):
    # the front wall turned about z and moved off the voxel edges, and at
    # 45 degrees about the origin, where its plane runs along voxel edges;
    # each yaw on one of the cells in turn
    solid = rigid.move_solid(SYNTH_PRIORS[0], rigid.motion(yaw, shift))
    cell = CELLS[(yaw // 5 + (shift[0] == 0.0)) % len(CELLS)]
    _assert_samples_equal_the_oracle(solid.face("wall_front"), 0.1, cell)


# ---------------------------------------------------------------------------
# classification and conflict projection

def _mini_scene():
    face = wall_face()
    rays = []
    window = {(3, 1), (4, 1)}
    untouched = {(9, 3)}
    for ix in range(10):
        for iz in range(4):
            x = 0.05 + 0.1 * ix
            z = 0.05 + 0.1 * iz
            if (ix, iz) in untouched:
                continue
            if (ix, iz) in window:
                # ray passes through the facade and lands far inside
                rays.append((x, -2.0, z, x, 1.5, z, 1.0))
            else:
                rays.extend([(x, -2.0, z, x, 0.02, z, 1.0)] * 3)
    tree = build_occupancy([rays], {"f": surface_voxels(face, 0.1)}, OccupancyConfig())
    return face, tree, window, untouched


def test_classify_surface_voxels_states():
    face, tree, window, untouched = _mini_scene()
    keys = surface_voxels(face, 0.1)
    columns = visibility.classify_surface_voxels(tree, face, keys, UncertaintyConfig())
    assert [len(c) for c in columns] == [40, 40, 40]
    by_key = {key: SimpleNamespace(state=s, p_confirmed=c, p_conflicted=x)
              for key, s, c, x in zip(map(tuple, keys.tolist()), *columns)}
    assert len(by_key) == 40
    sv = by_key[(0, 0, 0)]
    assert sv.state == "occupied"
    assert sv.p_confirmed > 0.9
    sv = by_key[(3, 0, 1)]
    assert sv.state == "empty"
    assert sv.p_conflicted > 0.99
    sv = by_key[(9, 0, 3)]
    assert sv.state == "unknown"
    assert sv.p_confirmed == 0.0 and sv.p_conflicted == 0.0


def test_conflict_map_channels():
    face, tree, window, untouched = _mini_scene()
    frame = rasters.facade_frame(face, 0.1)
    r = visibility.project_conflict_map(tree, face, UncertaintyConfig(), frame)
    assert r.channels == ("conflicted", "confirmed", "unknown")
    assert (r.frame.width, r.frame.height) == (10, 4)
    # rows sum to one everywhere
    np.testing.assert_allclose(r.data.sum(axis=2), 1.0, atol=1e-6)
    assert r.data[1, 3, 0] > 0.99          # window pixel: conflicted
    assert r.data[0, 0, 1] > 0.9           # wall pixel: confirmed
    np.testing.assert_allclose(r.data[3, 9], [0, 0, 1], atol=1e-6)  # untouched


def test_conflict_map_takes_the_most_conflicted_voxel():
    face, tree, window, untouched = _mini_scene()
    frame = rasters.facade_frame(face, 0.2)  # two voxels per pixel edge
    r = visibility.project_conflict_map(tree, face, UncertaintyConfig(), frame)
    # pixel (0, 1) covers voxels ix in {2,3}, iz in {0,1}: one conflicted
    # window voxel among confirmed wall voxels
    assert r.data[0, 1, 0] > 0.99
    assert r.data[0, 0, 1] > 0.9           # wall voxels only: confirmed
    np.testing.assert_allclose(r.data.sum(axis=2), 1.0, atol=1e-6)


def test_conflict_map_unknown_only_pixel():
    face = wall_face()
    keys = surface_voxels(face, 0.1)
    tree = build_occupancy([], {"f": keys}, OccupancyConfig())  # no rays at all
    r = visibility.project_conflict_map(tree, face, UncertaintyConfig(),
                                        rasters.facade_frame(face, 0.1))
    np.testing.assert_allclose(r.data[:, :, 2], 1.0)


def _reached_keys(rays, vs):
    """Every voxel a ray passes or ends in, a hundred rays at a time."""
    parts = []
    for a in range(0, len(rays), 100):
        o, e = rays[a:a + 100, :3], rays[a:a + 100, 3:6]
        parts += [occupancy.traverse(o, e, vs)[1], grid_index(e, vs)]
    return np.unique(np.vstack(parts), axis=0)


@pytest.mark.parametrize("spec", [
    replace(SYNTH_SPECS["front"], seed=7), replace(SYNTH_SPECS["block"], seed=7)],
    ids=["front", "block"])
def test_surface_tree_gives_the_full_trees_conflict_maps(spec):
    rays = scenes.scan(spec)[0]
    cfg = OccupancyConfig()
    assert (np.linalg.norm(rays[:, 3:6] - rays[:, :3], axis=1) < cfg.max_range).all()
    walls = [f for f in scene_solid(spec).faces if f.label == "wall"]
    surface = {f.face_id: surface_voxels(f, cfg.voxel_size) for f in walls}
    tree = build_occupancy([rays], surface, cfg)
    full = build_occupancy([rays], {"all": _reached_keys(rays, cfg.voxel_size)}, cfg)
    assert len(tree) < len(full) / 20
    measured = 0
    for face in walls:
        args = face, UncertaintyConfig(), rasters.facade_frame(face, cfg.voxel_size)
        got = visibility.project_conflict_map(tree, *args)
        want = visibility.project_conflict_map(full, *args)
        assert got.data.tobytes() == want.data.tobytes()
        measured += int((got.data[:, :, 2] == 0.0).sum())
    assert measured > 0


def _far_front():
    """The front scene's scan and prior moved to (5e5, 5.4e6, 0) m."""
    spec = SceneSpec(seed=7)
    rays = scenes.scan(spec)[0].copy()
    rays[:, [0, 3]] += FAR[0]
    rays[:, [1, 4]] += FAR[1]
    return rays, box_solid("b", FAR, (spec.width, spec.depth, spec.height))


@pytest.mark.parametrize("scene", [
    ("front", 7), ("front", 101), ("block", 7), ("block", 101), ("far", 7),
    ("turned", 7)], ids=lambda s: f"{s[0]}-{s[1]}")
def test_conflict_maps_match_scalar_oracle(scene):
    # every wall, one to four voxels per pixel edge (a pixel takes the
    # first most conflicted of 16 voxels at cell 0.4), and the front
    # turned by 45 degrees, where each sample reads three voxels; scores
    # compare in float64
    name, seed = scene
    if name == "far":
        rays, solid = _far_front()
    elif name == "turned":
        rays = scenes.scan(SceneSpec(seed=seed))[0].copy()
        move = rigid.motion(45)
        rays[:, :3], rays[:, 3:6] = move(rays[:, :3]), move(rays[:, 3:6])
        solid = rigid.move_solid(scene_solid(SceneSpec(seed=seed)), move)
    else:
        spec = replace(SYNTH_SPECS[name], seed=seed)
        rays, solid = scenes.scan(spec)[0], scene_solid(spec)
    walls = [f for f in solid.faces if f.label == "wall"]
    surface = {f.face_id: surface_voxels(f, 0.1) for f in walls}
    tree = build_occupancy([rays], surface, OccupancyConfig())
    measured = 0
    for face in walls:
        frames = [rasters.facade_frame(face, cell) for cell in (0.1, 0.2, 0.4)]
        samples = [oracles.pixel_samples(face, frame, 0.1) for frame in frames]
        keys = np.asarray(sorted({key for pairs in samples for _, key in pairs}
                                 | set(map(tuple, surface[face.face_id].tolist()))))
        want = oracles.scalar_classify(tree, face, keys, UncertaintyConfig())
        state, p_conf, p_confl = visibility.classify_surface_voxels(
            tree, face, keys, UncertaintyConfig())
        assert state.tolist() == [v[1] for v in want]
        assert p_conf.tobytes() == np.asarray([v[2] for v in want]).tobytes()
        assert p_confl.tobytes() == np.asarray([v[3] for v in want]).tobytes()
        measured += int((state != "unknown").sum())
        for frame, pairs in zip(frames, samples):
            got = visibility.project_conflict_map(tree, face, UncertaintyConfig(),
                                                  frame)
            assert got.data.tobytes() == oracles.scalar_conflict_map(
                pairs, want, frame).tobytes()
    assert measured > 1000


# ---------------------------------------------------------------------------
# whole front scenes whose pixels miss the voxel centres

def _front_metrics(tmp_path, motion=None, prior=None, points=True, cell=None):
    """The pipeline's metrics on the front scene of seed 7, its files
    moved by the rigid `motion`, or only its prior by `prior`."""
    paths = synth_scene(SceneSpec(seed=7), tmp_path / "scene")
    if motion is not None:
        rigid.move_scene(tmp_path / "scene", tmp_path / "moved", motion)
        paths = {key: tmp_path / "moved" / Path(path).name
                 for key, path in paths.items()}
    if prior is not None:
        write_solid(rigid.move_solid(read_solid(paths["solid"]), prior),
                    paths["solid"])
    config = PipelineConfig(
        rays=str(paths["rays"]), solid=str(paths["solid"]),
        points=str(paths["points"]) if points else None,
        image=str(paths["image"]), correspondences=str(paths["correspondences"]),
        gt_instances=str(paths["gt_instances"]),
        gt_measured=str(paths["gt_measured"]), faces=("wall_front",),
        cell=cell, out_dir=str(tmp_path / "out"))
    return run_pipeline(config)["metrics"]


@pytest.mark.parametrize("points", [True, False], ids=["points", "no-points"])
def test_front_turned_45_degrees_finds_every_opening(tmp_path, points):
    # the wall's plane runs along voxel edges; fed one pixel per voxel
    # centre, it read TP 0 with FP 7, and without points FP 4
    metrics = _front_metrics(tmp_path, motion=rigid.motion(45), points=points)
    assert (metrics["TP"], metrics["FP"]) == (3, 0)


def test_front_at_half_a_voxel_cell_finds_every_opening(tmp_path):
    # a 0.05 m cell on 0.1 m voxels: fed one pixel per voxel centre,
    # three pixels in four stayed unknown and nothing was detected
    metrics = _front_metrics(tmp_path, cell=0.05)
    assert (metrics["TP"], metrics["FP"]) == (3, 0)


def test_prior_a_millimetre_toward_the_scanner_finds_every_opening(tmp_path):
    # off the grid plane, the wall reads the layers on both sides of it;
    # from the layer in front of the scanned wall alone it read FP 5
    metrics = _front_metrics(tmp_path, prior=rigid.motion(0, (0.0, -0.001, 0.0)),
                             points=False)
    assert (metrics["TP"], metrics["FP"]) == (3, 0)
