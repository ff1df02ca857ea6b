import math
import tracemalloc

import numpy as np
import pytest

from lod3recon import model_io, rasters
from lod3recon.errors import DegenerateCorrespondence, DomainError, ParseError
from lod3recon.model_io import Face, Ring

import scenes


def wall_face(width=1.0, height=0.4):
    # y = 0 plane, outward normal -y
    return Face("w", "wall", Ring((
        (0, 0, 0), (width, 0, 0), (width, 0, height), (0, 0, height))))


def test_facade_frame_axes_and_dims():
    f = rasters.facade_frame(wall_face(), 0.1)
    np.testing.assert_allclose(f.u_axis, [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(f.v_axis, [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(f.normal, [0, -1, 0], atol=1e-12)
    np.testing.assert_allclose(f.origin, [0, 0, 0], atol=1e-12)
    assert (f.width, f.height) == (10, 4)


def test_facade_frame_covers_fractional_extent():
    f = rasters.facade_frame(wall_face(width=1.03), 0.1)
    assert f.width == 11
    f = rasters.facade_frame(wall_face(width=1.0000000001), 0.1)
    assert f.width == 10  # within rounding slack of an exact multiple


def test_facade_frame_horizontal_face_uses_y_up():
    roof = Face("r", "roof", Ring((
        (0, 0, 2), (2, 0, 2), (2, 1, 2), (0, 1, 2))))
    f = rasters.facade_frame(roof, 0.5)
    np.testing.assert_allclose(f.normal, [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(f.v_axis, [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(f.u_axis, [1, 0, 0], atol=1e-12)


def _pixel(frame, point, band=None):
    rows, cols, inside = frame.to_pixels([point], band)
    return (int(rows[0]), int(cols[0])) if inside[0] else None


def test_world_to_pixel_and_band():
    f = rasters.facade_frame(wall_face(), 0.1)
    assert _pixel(f, (0.35, 0.0, 0.15)) == (1, 3)
    assert _pixel(f, (0.05, 0.0, 0.05)) == (0, 0)  # row 0 at the bottom
    assert _pixel(f, (0.35, -0.25, 0.15)) == (1, 3)   # inside default band
    assert _pixel(f, (0.35, -0.31, 0.15)) is None     # beyond 3 cells
    assert _pixel(f, (1.25, 0.0, 0.15)) is None       # outside bounds
    assert _pixel(f, (0.35, -0.05, 0.15), band=0.01) is None


def test_to_pixels_matches_scalar():
    f = rasters.facade_frame(wall_face(), 0.1)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 1.5, size=(100, 3))
    rows, cols, inside = f.to_pixels(pts)
    origin, u, v, n = map(np.asarray, (f.origin, f.u_axis, f.v_axis, f.normal))
    for p, r, c, ok in zip(pts, rows, cols, inside):
        rel = p - origin
        col = math.floor(float(rel @ u) / f.cell)
        row = math.floor(float(rel @ v) / f.cell)
        assert ok == (abs(float(rel @ n)) <= 3 * f.cell
                      and 0 <= col < f.width and 0 <= row < f.height)
        if ok:
            assert (int(r), int(c)) == (row, col)


def test_frame_matches_tolerance():
    f = rasters.facade_frame(wall_face(), 0.1)
    near = rasters.FacadeFrame(
        (f.origin[0] + 1e-12, *f.origin[1:]), f.u_axis, f.v_axis,
        f.cell, f.width, f.height)
    far = rasters.FacadeFrame(
        (f.origin[0] + 1e-7, *f.origin[1:]), f.u_axis, f.v_axis,
        f.cell, f.width, f.height)
    assert f.matches(near)
    assert not f.matches(far)
    other_dims = rasters.FacadeFrame(f.origin, f.u_axis, f.v_axis, f.cell,
                                     f.width + 1, f.height)
    assert not f.matches(other_dims)


# ---------------------------------------------------------------------------
# point projection

def test_project_point_probabilities_max_aggregation():
    f = rasters.facade_frame(wall_face(), 0.1)
    pts = [(0.05, 0.0, 0.05), (0.06, 0.01, 0.04), (0.35, 0.0, 0.15)]
    probs = np.zeros((3, 8))
    probs[0, rasters.POINT_LABELS.index("window")] = 0.4
    probs[1, rasters.POINT_LABELS.index("window")] = 0.7
    probs[1, rasters.POINT_LABELS.index("wall")] = 0.2
    probs[2, rasters.POINT_LABELS.index("door")] = 0.9
    r = rasters.project_point_probabilities(pts, probs, f)
    # the raster keeps the opening classes only
    assert r.channels == model_io.OPENING_LABELS == ("window", "door")
    assert "wall" not in r.channels
    assert r.channel("window")[0, 0] == pytest.approx(0.7)   # max of the two
    assert r.channel("door")[1, 3] == pytest.approx(0.9)
    assert r.channel("door")[0, 0] == 0.0
    assert float(r.data.sum()) == pytest.approx(0.7 + 0.9)


def test_project_point_probabilities_into_any_point_labels():
    # `out` may hold any point labels, in any order: each is taken from
    # its own column of the probabilities
    f = rasters.facade_frame(wall_face(), 0.1)
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0, 1, 50), np.zeros(50), rng.uniform(0, 0.4, 50)])
    probs = rng.random((50, len(rasters.POINT_LABELS)))
    every = rasters.project_point_probabilities(
        pts, probs, f, out=rasters.FacadeRaster.zeros(f, rasters.POINT_LABELS))
    opening = rasters.project_point_probabilities(pts, probs, f)
    some = rasters.project_point_probabilities(
        pts, probs, f, out=rasters.FacadeRaster.zeros(f, ("wall", "door")))
    for raster in (opening, some):
        for name in raster.channels:
            assert np.array_equal(raster.channel(name), every.channel(name))


def test_project_point_probabilities_drops_far_points():
    f = rasters.facade_frame(wall_face(), 0.1)
    pts = [(0.05, -5.0, 0.05)]
    probs = np.full((1, 8), 0.5)
    r = rasters.project_point_probabilities(pts, probs, f)
    assert float(r.data.sum()) == 0.0


def test_project_point_probabilities_shape_check():
    f = rasters.facade_frame(wall_face(), 0.1)
    with pytest.raises(DomainError):
        rasters.project_point_probabilities([(0, 0, 0)], np.zeros((1, 3)), f)


def test_labeled_points_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (10, 3))
    probs = rng.uniform(0, 1, (10, 8))
    path = tmp_path / "points.txt"
    with rasters.point_writer(path) as write:   # in two blocks
        write(pts[:4], probs[:4])
        write(pts[4:], probs[4:])
    pts2, probs2 = scenes.read_all_points(path)
    np.testing.assert_array_equal(pts, pts2)
    np.testing.assert_array_equal(probs, probs2)


def test_labeled_points_column_check(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("1 2 3 0.5\n")
    with pytest.raises(ParseError, match="11 columns"):
        scenes.read_all_points(path)


OUTSIDE = r"probability outside \[0, 1\]"


@pytest.mark.parametrize("values, fragment", [
    (["nan", "0", "0"] + ["0.5"] * 8, "non-finite"),
    (["0", "inf", "0"] + ["0.5"] * 8, "non-finite"),
    (["0", "0", "0"] + ["nan"] + ["0.5"] * 7, OUTSIDE),
    (["0", "0", "0"] + ["0.5"] * 7 + ["1.5"], OUTSIDE),
    (["0", "0", "0"] + ["-0.1"] + ["0.5"] * 7, OUTSIDE),
], ids=["nan-x", "inf-y", "nan-p", "p-above-1", "p-below-0"])
def test_labeled_points_reject_bad_values(tmp_path, values, fragment):
    path = tmp_path / "points.txt"
    path.write_text("# header\n" + " ".join(values) + "\n")
    with pytest.raises(ParseError, match="points.txt:2: " + fragment):
        scenes.read_all_points(path)


# ---------------------------------------------------------------------------
# homography

def test_homography_recovers_known_mapping():
    h_true = np.array([[1.2, 0.1, 3.0],
                       [-0.05, 0.9, 1.0],
                       [0.001, 0.002, 1.0]])
    uv = np.array([(0, 0), (2, 0), (2, 1), (0, 1), (1, 0.5), (0.7, 0.33)], float)
    xy = rasters.apply_homography(h_true, uv)
    est = rasters.estimate_homography(list(zip(uv, xy)))
    np.testing.assert_allclose(est / est[2, 2], h_true / h_true[2, 2], atol=1e-8)


def test_homography_exact_with_four_points():
    h_true = np.array([[10.0, 0.0, 0.0], [0.0, -10.0, 40.0], [0.0, 0.0, 1.0]])
    uv = np.array([(0, 0), (4, 0), (4, 2), (0, 2)], float)
    xy = rasters.apply_homography(h_true, uv)
    est = rasters.estimate_homography(list(zip(uv, xy)))
    np.testing.assert_allclose(est / est[2, 2], h_true / h_true[2, 2], atol=1e-9)


def test_homography_rejects_degenerate_input():
    with pytest.raises(DegenerateCorrespondence, match="at least 4"):
        rasters.estimate_homography([((0, 0), (0, 0))] * 3)
    # three collinear facade points
    uv = [(0, 0), (1, 1), (2, 2), (0, 1)]
    xy = [(0, 0), (1, 1), (2, 2), (0, 1)]
    with pytest.raises(DegenerateCorrespondence):
        rasters.estimate_homography(list(zip(uv, xy)))
    with pytest.raises(DegenerateCorrespondence):
        rasters.estimate_homography([((0, 0), (1, 1))] * 4)


def test_project_image_probabilities_nearest_neighbour():
    face = Face("w", "wall", Ring(((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1))))
    frame = rasters.facade_frame(face, 0.5)
    image = np.zeros((4, 4, 1), dtype=np.float32)
    for r in range(4):
        for c in range(4):
            image[r, c, 0] = 10 * r + c
    # facade (u,v) -> image (4u, 4-4v): v up maps to y down
    h = np.array([[4.0, 0, 0], [0, -4.0, 4.0], [0, 0, 1.0]])
    out = rasters.project_image_probabilities(image, ("window",), h, frame)
    np.testing.assert_allclose(out.data[0, :, 0], [31, 33])
    np.testing.assert_allclose(out.data[1, :, 0], [11, 13])


def test_project_image_probabilities_outside_is_zero():
    face = Face("w", "wall", Ring(((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1))))
    frame = rasters.facade_frame(face, 0.5)
    image = np.ones((2, 2, 1), dtype=np.float32)
    h = np.array([[4.0, 0, 100.0], [0, -4.0, 4.0], [0, 0, 1.0]])  # off-image shift
    out = rasters.project_image_probabilities(image, ("window",), h, frame)
    assert float(out.data.sum()) == 0.0


def test_project_image_probabilities_keeps_the_opening_channels():
    face = Face("w", "wall", Ring(((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1))))
    frame = rasters.facade_frame(face, 0.5)
    h = np.array([[4.0, 0, 0], [0, -4.0, 4.0], [0, 0, 1.0]])
    image = np.random.default_rng(4).random((4, 4, 4)).astype(np.float32)
    names = ("sky", "door", "wall", "window")
    out = rasters.project_image_probabilities(image, names, h, frame)
    assert out.channels == ("door", "window")
    for name in out.channels:
        alone = rasters.project_image_probabilities(
            image[:, :, [names.index(name)]], (name,), h, frame)
        assert np.array_equal(out.channel(name), alone.data[:, :, 0])
    with pytest.raises(DomainError, match="no opening channel"):
        rasters.project_image_probabilities(image[:, :, [0, 2]], ("sky", "wall"),
                                            h, frame)


# ---------------------------------------------------------------------------
# files

def test_raster_round_trip(tmp_path):
    f = rasters.facade_frame(wall_face(), 0.1)
    r = rasters.FacadeRaster.zeros(f, rasters.CONFLICT_CHANNELS)
    rng = np.random.default_rng(11)
    r.data[:] = rng.random(r.data.shape, dtype=np.float32)
    path = tmp_path / "raster.txt"
    rasters.write_raster(r, path)
    back = rasters.read_raster(path)
    assert back.frame == r.frame
    assert back.channels == r.channels
    np.testing.assert_array_equal(back.data, r.data)


def test_raster_parse_errors(tmp_path):
    path = tmp_path / "raster.txt"
    path.write_text("not_a_raster\n")
    with pytest.raises(ParseError):
        rasters.read_raster(path)
    path.write_text(
        "facade_raster cell=0.5 width=2 height=1\n"
        "origin 0 0 0\nu 1 0 0\nv 0 0 1\nchannels a\n0.5\n")
    with pytest.raises(ParseError, match="pixel lines"):
        rasters.read_raster(path)


@pytest.mark.parametrize("read, head", [
    (rasters.read_raster, "facade_raster cell=0.5 width=-1 height=-1\n"
                          "origin 0 0 0\nu 1 0 0\nv 0 0 1\n"),
    (rasters.read_pixel_grid, "pixel_grid width=-1 height=-1\n"),
], ids=["raster", "grid"])
def test_pixel_files_reject_empty_dimensions(tmp_path, read, head):
    path = tmp_path / "grid.txt"
    path.write_text(head + "channels a\n0.5\n")
    with pytest.raises(ParseError, match="grid.txt:1: dimensions"):
        read(path)


@pytest.mark.parametrize("read, head", [
    (rasters.read_raster, "facade_raster cell=0.5 width=1000000 height=1000000\n"
                          "origin 0 0 0\nu 1 0 0\nv 0 0 1\n"),
    (rasters.read_pixel_grid, "pixel_grid width=1000000 height=1000000\n"),
], ids=["raster", "grid"])
def test_a_header_promising_more_pixels_allocates_nothing_large(tmp_path, read, head):
    # 10^12 pixels promised, two given: the pixels are read as the file
    # holds them, so nothing is sized from the header
    path = tmp_path / "grid.txt"
    path.write_text(head + "channels a\n0.5\n0.25\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}: expected 1000000000000 pixel lines, got 2"
    assert peak < 1e6


def test_pixel_grid_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    data = rng.random((5, 7, 2)).astype(np.float32)
    path = tmp_path / "grid.txt"
    rasters.write_pixel_grid(data, ("window", "door"), path)
    back, channels = rasters.read_pixel_grid(path)
    assert channels == ("window", "door")
    np.testing.assert_array_equal(back, data)


def test_raster_shape_validation():
    f = rasters.facade_frame(wall_face(), 0.1)
    with pytest.raises(DomainError):
        rasters.FacadeRaster(f, ("a",), np.zeros((2, 2, 1)))


def test_write_raster_peaks_at_a_few_megabytes(tmp_path):
    # 60 x 160 pixels of 8 distinct float32 channels: no row repeats
    frame = rasters.FacadeFrame((0, 0, 0), (1, 0, 0), (0, 0, 1), 0.1, 160, 60)
    data = np.random.default_rng(1).random((60, 160, 8)).astype(np.float32)
    raster = rasters.FacadeRaster(frame, tuple("abcdefgh"), data)
    tracemalloc.start()
    try:
        rasters.write_raster(raster, tmp_path / "r.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert np.array_equal(rasters.read_raster(tmp_path / "r.txt").data, data)


def test_a_lone_point_lands_on_its_pixel_among_all_points():
    # a row of a one-row product (k, 3) @ (3,) may differ in the last bit
    # from the same row among two or more; near pixel edges of an oblique
    # frame the difference moves a point to the next pixel, unless a block
    # of one point is projected as a row of two
    u = np.array([0.6, 0.8, 0.0])
    frame = rasters.FacadeFrame((0.3, -0.7, 0.1), u, (0, 0, 1), 0.1, 60, 60)
    rng = np.random.default_rng(3)
    n = 400
    along = rng.integers(1, 60, n) * 0.1 + rng.normal(0.0, 1e-15, n)
    off = rng.uniform(-0.2, 0.2, n)
    points = (np.asarray(frame.origin) + along[:, None] * u + [0, 0, 0.05]
              + off[:, None] * np.asarray(frame.normal))
    probs = rng.random((n, len(rasters.POINT_LABELS)))
    want = rasters.project_point_probabilities(points, probs, frame)
    got = rasters.FacadeRaster.zeros(frame, want.channels)
    for point, prob in zip(points, probs):
        rasters.project_point_probabilities(point[None], prob[None], frame, out=got)
    assert np.array_equal(got.data, want.data)
