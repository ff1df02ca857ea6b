"""Synthetic scene generator: determinism, geometry, and file round trips."""

import filecmp
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lod3recon import synth
from lod3recon.errors import SpecError
from lod3recon.model_io import read_solid
from lod3recon.extraction import read_instances
from lod3recon.rasters import (read_correspondences, read_pixel_grid,
                               POINT_LABELS)
from lod3recon.synth import SceneSpec, SynthOpening

import oracles
import scenes


SMALL = dict(width=4.0, height=2.0, depth=2.0, pitch=0.1,
             openings=(SynthOpening((1.0, 0.8, 2.0, 1.6), "window"),))


def test_default_spec_is_valid():
    spec = SceneSpec()
    assert len(spec.openings) == 3
    assert [o.label for o in spec.openings] == ["window", "window", "door"]


def test_opening_tuples_are_coerced():
    spec = SceneSpec(**SMALL)
    assert isinstance(spec.openings[0], SynthOpening)
    assert spec.openings[0].covered is False


@pytest.mark.parametrize("kwargs", [
    dict(width=0.0),
    dict(height=-1.0),
    dict(pitch=0.0),
    dict(noise_sigma=-0.1),
    dict(frame_fraction=1.5),
    dict(opening_prob=0.0),
    dict(wall_prob=1.2),
    dict(pitch=float("nan")),
    dict(width=float("inf")),
    # steps that leave no scan or image cell across the wall
    dict(image_cell=30.0),
    dict(image_cell=8.0),
    dict(pitch=9.0),
    dict(width=0.2, height=0.2, pitch=0.5, openings=()),
    dict(noise_sigma=float("nan")),
    dict(noise_sigma=float("inf")),
    # a spacing that leaves no station along the wall
    dict(station_spacing=20.0),
    # numpy's SeedSequence takes no negative seed
    dict(seed=-1),
])
def test_bad_numbers_rejected(kwargs):
    with pytest.raises(SpecError):
        SceneSpec(**kwargs)


def test_one_station_is_enough():
    # the first station stands half a spacing in: 9.995 < 10
    spec = SceneSpec(station_spacing=19.99)
    assert synth.stations(spec) == [9.995]
    rays, points, _ = scenes.scan(spec)
    assert (rays[:, 0] == 9.995).all() and np.isfinite(points).all()


def test_one_cell_each_way_is_enough():
    spec = SceneSpec(width=10.0, height=4.0, pitch=7.99, image_cell=7.99,
                     openings=())
    rays, _, _ = scenes.scan(spec)
    assert len(rays) == 1
    assert synth.generate_image(spec).shape == (1, 1, 2)


def test_opening_on_wall_edge_rejected():
    with pytest.raises(SpecError, match="interior"):
        SceneSpec(width=4.0, height=2.0,
                  openings=(SynthOpening((0.0, 0.5, 1.0, 1.5), "window"),))


def test_overlapping_openings_rejected():
    with pytest.raises(SpecError, match="overlap"):
        SceneSpec(width=4.0, height=2.0,
                  openings=(SynthOpening((1.0, 0.5, 2.0, 1.5), "window"),
                            SynthOpening((1.5, 0.5, 2.5, 1.5), "window")))


def test_degenerate_rect_rejected():
    with pytest.raises(SpecError, match="degenerate"):
        SynthOpening((1.0, 1.0, 1.0, 2.0), "window")


def test_unknown_label_rejected():
    with pytest.raises(SpecError, match="label"):
        SynthOpening((1.0, 1.0, 2.0, 2.0), "skylight")


def test_stations_cover_the_wall():
    assert synth.stations(SceneSpec()) == [1.0, 3.0, 5.0, 7.0, 9.0]
    assert synth.stations(SceneSpec(**SMALL)) == [1.0, 3.0]


def test_scene_solid_dimensions():
    solid = synth.scene_solid(SceneSpec(**SMALL))
    xs = [p.x for f in solid.faces for p in f.outer.points]
    ys = [p.y for f in solid.faces for p in f.outer.points]
    zs = [p.z for f in solid.faces for p in f.outer.points]
    assert (min(xs), max(xs)) == (0.0, 4.0)
    assert (min(ys), max(ys)) == (0.0, 2.0)
    assert (min(zs), max(zs)) == (0.0, 2.0)
    assert solid.face(synth.FRONT_FACE).label == "wall"


def _target_grid(spec):
    """Scan targets in generation order (u outer loop, v inner)."""
    nx = int(round(spec.width / spec.pitch))
    nz = int(round(spec.height / spec.pitch))
    us = np.repeat((np.arange(nx) + 0.5) * spec.pitch, nz)
    vs = np.tile((np.arange(nz) + 0.5) * spec.pitch, nx)
    return us, vs


def _inside_rect(us, vs, rect):
    return (us > rect[0]) & (us < rect[2]) & (vs > rect[1]) & (vs < rect[3])


def test_scan_ray_count_and_hits():
    spec = SceneSpec(**SMALL)
    rays, points, probs = scenes.scan(spec)
    assert rays.shape == (40 * 20, 7)
    assert (rays[:, 6] == 1.0).all()
    assert points.shape == (800, 3)
    assert probs.shape == (800, len(POINT_LABELS))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_wall_returns_sit_on_facade_plane():
    spec = SceneSpec(**SMALL, noise_sigma=0.0)
    _, points, _ = scenes.scan(spec)
    us, vs = _target_grid(spec)
    outside = ~_inside_rect(us, vs, (1.0, 0.8, 2.0, 1.6))
    np.testing.assert_allclose(points[outside, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(points[outside, 0], us[outside], atol=1e-12)
    np.testing.assert_allclose(points[outside, 2], vs[outside], atol=1e-12)


def test_opening_rays_reflect_at_backplane():
    spec = SceneSpec(**SMALL, noise_sigma=0.0, frame_fraction=0.0)
    _, points, probs = scenes.scan(spec)
    us, vs = _target_grid(spec)
    inside = _inside_rect(us, vs, (1.0, 0.8, 2.0, 1.6))
    assert inside.sum() == 10 * 8
    np.testing.assert_allclose(points[inside, 1], spec.depth, atol=1e-9)
    # pass-through returns read as unlabeled background
    other = POINT_LABELS.index("other")
    assert (probs[inside].argmax(axis=1) == other).all()


def test_frame_fraction_one_returns_everything_from_the_wall():
    spec = SceneSpec(**SMALL, noise_sigma=0.0, frame_fraction=1.0)
    _, points, probs = scenes.scan(spec)
    np.testing.assert_allclose(points[:, 1], 0.0, atol=1e-12)
    us, vs = _target_grid(spec)
    inside = _inside_rect(us, vs, (1.0, 0.8, 2.0, 1.6))
    window = POINT_LABELS.index("window")
    assert (probs[inside].argmax(axis=1) == window).all()


def test_covered_opening_returns_from_facade_with_semantics():
    spec = SceneSpec(width=4.0, height=2.0, depth=2.0, pitch=0.1,
                     noise_sigma=0.0, frame_fraction=0.0,
                     openings=(SynthOpening((1.0, 0.8, 2.0, 1.6), "window",
                                            covered=True),))
    _, points, probs = scenes.scan(spec)
    us, vs = _target_grid(spec)
    inside = _inside_rect(us, vs, (1.0, 0.8, 2.0, 1.6))
    np.testing.assert_allclose(points[inside, 1], 0.0, atol=1e-12)
    window = POINT_LABELS.index("window")
    assert (probs[inside].argmax(axis=1) == window).all()


def test_noise_moves_endpoint_along_the_ray():
    spec = SceneSpec(**SMALL, seed=3)
    quiet = SceneSpec(**SMALL, seed=3, noise_sigma=0.0)
    noisy_rays, _, _ = scenes.scan(spec)
    quiet_rays, _, _ = scenes.scan(quiet)
    moved = 0
    for a, b in zip(noisy_rays, quiet_rays):
        assert a[:3].tolist() == b[:3].tolist()
        ea = a[3:6] - a[:3]
        eb = b[3:6] - b[:3]
        cross = np.linalg.norm(np.cross(ea, eb))
        assert cross < 1e-9 * np.linalg.norm(ea) * np.linalg.norm(eb) + 1e-12
        moved += float(np.linalg.norm(ea - eb)) > 1e-6
    assert moved > len(noisy_rays) * 0.9


def test_image_marks_openings_in_their_channel():
    spec = SceneSpec(**SMALL)
    image = synth.generate_image(spec)
    assert image.shape == (40, 80, 2)
    window = image[:, :, synth.IMAGE_CHANNELS.index("window")]
    rows, cols = np.nonzero(window)
    # row 0 is the top of the image
    us = (cols + 0.5) * spec.image_cell
    vs = spec.height - (rows + 0.5) * spec.image_cell
    assert us.min() > 1.0 and us.max() < 2.0
    assert vs.min() > 0.8 and vs.max() < 1.6
    assert len(rows) == 16 * 20
    assert not image[:, :, synth.IMAGE_CHANNELS.index("door")].any()


def test_correspondences_pin_the_four_corners():
    spec = SceneSpec(**SMALL)
    pairs = synth.image_correspondences(spec)
    assert ((0.0, 0.0), (0.0, 40.0)) in pairs
    assert ((4.0, 0.0), (80.0, 40.0)) in pairs
    assert ((4.0, 2.0), (80.0, 0.0)) in pairs
    assert ((0.0, 2.0), (0.0, 0.0)) in pairs


def test_measured_instances_exclude_covered_openings():
    spec = SceneSpec(width=6.0, height=2.0,
                     openings=(SynthOpening((1.0, 0.5, 2.0, 1.5), "window"),
                               SynthOpening((3.0, 0.5, 4.0, 1.5), "window",
                                            covered=True)))
    assert len(synth.ground_truth_instances(spec)) == 2
    measured = synth.measured_instances(spec)
    assert len(measured) == 1
    assert measured[0].rect == (1.0, 0.5, 2.0, 1.5)


def test_scene_files_round_trip(tmp_path):
    spec = SceneSpec(**SMALL, seed=7)
    paths = synth.synth_scene(spec, tmp_path)
    solid = read_solid(paths["solid"])
    assert solid.face(synth.FRONT_FACE) is not None
    assert len(scenes.read_all_rays(paths["rays"])) == 800
    points, probs = scenes.read_all_points(paths["points"])
    assert points.shape == (800, 3) and probs.shape[1] == len(POINT_LABELS)
    image, channels = read_pixel_grid(paths["image"])
    assert channels == synth.IMAGE_CHANNELS and image.shape == (40, 80, 2)
    assert len(read_correspondences(paths["correspondences"])) == 4
    assert len(read_instances(paths["gt_instances"])) == 1
    assert len(read_instances(paths["gt_measured"])) == 1


def test_same_seed_reproduces_every_file_byte_for_byte(tmp_path):
    spec = SceneSpec(**SMALL, seed=9)
    first = synth.synth_scene(spec, tmp_path / "a")
    second = synth.synth_scene(spec, tmp_path / "b")
    for key in first:
        assert filecmp.cmp(first[key], second[key], shallow=False), key


@pytest.mark.parametrize("chunk", [1, 25, 41, 1 << 20])
def test_scan_chunks_do_not_change_a_byte(tmp_path, monkeypatch, chunk):
    # chunks of one column of 20 rays, of one, of two and of every column
    spec = SceneSpec(**SMALL, seed=9)
    want = synth.synth_scene(spec, tmp_path / "whole")
    monkeypatch.setattr(synth, "SCAN_RAYS", chunk)
    got = synth.synth_scene(spec, tmp_path / "chunked")
    columns = [len(rays) // 20 for rays, _, _ in synth.generate_scan(spec)]
    assert sum(columns) == 40 and max(columns) == max(1, min(40, chunk // 20))
    for key in want:
        assert filecmp.cmp(want[key], got[key], shallow=False), key


def test_different_seed_changes_the_scan(tmp_path):
    a = synth.synth_scene(SceneSpec(**SMALL, seed=1), tmp_path / "a")
    b = synth.synth_scene(SceneSpec(**SMALL, seed=2), tmp_path / "b")
    assert not filecmp.cmp(a["rays"], b["rays"], shallow=False)
    # deterministic artifacts do not depend on the seed
    assert filecmp.cmp(a["solid"], b["solid"], shallow=False)
    assert filecmp.cmp(a["gt_instances"], b["gt_instances"], shallow=False)


# ---------------------------------------------------------------------------
# the array scan against the ray-by-ray reference

@st.composite
def scan_specs(draw):
    """Small scenes: up to 1,600 rays, zero to three openings in
    columns of their own, any of them covered, noise zero or not, every
    ray or none clipping the frame, and station rows of any spacing,
    distance and height."""
    width = draw(st.floats(1.0, 20.0))
    height = draw(st.floats(1.0, 8.0))
    pitch = draw(st.floats(max(width, height) / 40.0, min(width, height)))
    openings = []
    slots = draw(st.integers(0, 3))
    for k in range(slots):
        a, b = width * k / slots, width * (k + 1) / slots
        u0 = draw(st.floats(a + 0.01 * width, a + 0.4 * (b - a)))
        u1 = draw(st.floats(u0 + 0.1 * (b - a), b - 0.01 * width))
        v0 = draw(st.floats(0.01 * height, 0.5 * height))
        v1 = draw(st.floats(v0 + 0.05 * height, 0.99 * height))
        openings.append(SynthOpening((u0, v0, u1, v1),
                                     draw(st.sampled_from(["window", "door"])),
                                     draw(st.booleans())))
    return SceneSpec(
        width=width, height=height, depth=draw(st.floats(0.1, 20.0)),
        openings=tuple(openings), pitch=pitch,
        noise_sigma=draw(st.just(0.0) | st.floats(0.0, 0.2)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        frame_fraction=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        opening_prob=draw(st.floats(0.01, 1.0)),
        wall_prob=draw(st.floats(0.01, 1.0)),
        station_height=draw(st.floats(-5.0, 20.0)),
        station_distance=draw(st.floats(0.1, 50.0)),
        station_spacing=draw(st.floats(0.1, 2.0 * width, exclude_max=True)))


def _assert_scan_is_the_references(spec):
    got = scenes.scan(spec)
    want = oracles.scalar_scan(spec, POINT_LABELS)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=120, deadline=None)
@given(spec=scan_specs())
def test_scan_equals_the_ray_by_ray_reference(spec):
    _assert_scan_is_the_references(spec)


def test_scan_breaks_station_ties_to_the_smaller_station():
    # u = 2.5 * 0.8 = 2.0 lies midway between the stations at 1 and 3
    spec = SceneSpec(pitch=0.8, seed=5)
    rays, _, _ = scenes.scan(spec)
    nz = round(spec.height / spec.pitch)
    assert (2 + 0.5) * spec.pitch == 2.0
    assert synth.stations(spec)[:2] == [1.0, 3.0]
    assert (rays[2 * nz:3 * nz, 0] == 1.0).all()
    _assert_scan_is_the_references(spec)


# sha256 of every file of two seed-7 scenes, as the ray-by-ray generator
# and the number-by-number writer wrote them
SCENE_DIGESTS = {
    "front": (SceneSpec(seed=7), {
        "correspondences": "6a5562cab3d898ad62e3e6003f965f24bd3796eb9cae0f92118013de1be9e394",
        "gt_instances": "d5fb55aec95d40e3f28e5102e84390bc8ca365839359c793177d2bccca30d12c",
        "gt_measured": "d5fb55aec95d40e3f28e5102e84390bc8ca365839359c793177d2bccca30d12c",
        "image": "46b1258cb932b054c897db4e62c90f9843054ec8a6f2ed7e5841aaa3021a2b22",
        "points": "79c0e8ba293b490630012831cbd959d3e6dd6d8f24ce714750a410d04d82dd6a",
        "rays": "ad69f8c50db53c8a9d09d13d0cfdb9ca06169e7ee4dc3f329368db53145a2330",
        "solid": "089a57bd599c858e171a324fcf6fc8c7c3cb176129296ee7e557516e367ad194",
    }),
    "block": (scenes.block_spec(7), {
        "correspondences": "889140543ed67eb4d8f9b4397516944b02b665fcc7d0a070070bb7dc64f9b3c5",
        "gt_instances": "dbabe7eb14bbe7e5a2a6fd2d092f2a4c6979efd5dc560915ebb1fe754a7bd2a9",
        "gt_measured": "b43a620bc587451e1081f623b02ecb7025bda601bb7498790f86ad8f4c840be3",
        "image": "102d308f3ed5ca8df9404c50ebe1f4faf980b61d2bb3fa8e0aa2397cfc327f68",
        "points": "973814fd1b2419bb337f5b293d545bde39dd2e1fcbd897888a78eccf5b9ded5f",
        "rays": "73b00599f142f049b20d0d08e172c7715366ce313cd1d2d27c358841d4a03337",
        "solid": "ec4f81eec476211e59080ccba0e722c159e4c41878fd42ca1ea9f323d0befb66",
    }),
}


@pytest.mark.parametrize("scene", sorted(SCENE_DIGESTS))
def test_scene_files_keep_their_digests(tmp_path, scene):
    spec, digests = SCENE_DIGESTS[scene]
    paths = synth.synth_scene(spec, tmp_path)
    got = {key: hashlib.sha256(open(path, "rb").read()).hexdigest()
           for key, path in paths.items()}
    assert got == digests
