import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from lod3recon import extraction
from lod3recon.cli import PipelineConfig, run_pipeline
from lod3recon.errors import DomainError, ParseError, ValidationError
from lod3recon.extraction import (ExtractionConfig, OpeningInstance,
                                  filter_instances, label_components,
                                  mask_clusters, morphological_opening,
                                  read_instances, rectangularity)
from lod3recon.rasters import FacadeFrame, FacadeRaster
from lod3recon.synth import SceneSpec, synth_scene

import oracles
import rigid
import scenes


def _frame(width, height, cell=0.1) -> FacadeFrame:
    return FacadeFrame((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                       cell, width, height)


def _rect_cluster(r0, c0, h, w, skip=()):
    px = [(r, c) for r in range(r0, r0 + h) for c in range(c0, c0 + w)
          if (r, c) not in skip]
    return np.asarray(px, dtype=int)


def _serpentine(h, w):
    """One path: full rows every other row, joined at alternating ends."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def _spiral(n):
    """One inward square spiral with a one-pixel gap between its turns."""
    mask = np.zeros((n, n), dtype=bool)
    r, c, dr, dc, turns = 0, 0, 0, 1, 0
    mask[r, c] = True
    while turns < 2:
        nr, nc, ar, ac = r + dr, c + dc, r + 2 * dr, c + 2 * dc
        if (0 <= nr < n and 0 <= nc < n and not mask[nr, nc]
                and not (0 <= ar < n and 0 <= ac < n and mask[ar, ac])):
            r, c, turns = nr, nc, 0
            mask[r, c] = True
        else:
            dr, dc, turns = dc, -dr, turns + 1
    return mask


EIGHT = np.ones((3, 3), dtype=bool)

# long single components that a pixel-by-pixel propagation walks slowly
ADVERSARIAL = {
    "serpentine-rows": _serpentine(100, 312),
    "serpentine-cols": np.ascontiguousarray(_serpentine(312, 100).T),
    "spiral": _spiral(101),
    "checkerboard": np.indices((100, 312)).sum(axis=0) % 2 == 0,
    "full": np.ones((100, 312), dtype=bool),
}


@st.composite
def _masks(draw):
    """A boolean mask 0-40 px a side at any density."""
    shape = (draw(st.integers(0, 40)), draw(st.integers(0, 40)))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < density


# ---------------------------------------------------------------------------
# config

def test_config_defaults_valid():
    cfg = ExtractionConfig()
    assert cfg.p_high == 0.7 and cfg.kernel == 3
    assert cfg.min_pixels == 4


@pytest.mark.parametrize("kwargs", [
    {"p_high": 0.0}, {"p_high": 1.0}, {"kernel": 2}, {"kernel": 0},
    {"p_high": float("nan")}, {"kernel": -1}, {"min_pixels": 0},
    {"min_pixels": -1},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        ExtractionConfig(**kwargs)


# ---------------------------------------------------------------------------
# clustering

def test_diagonal_pixels_form_one_cluster():
    post = np.zeros((4, 4))
    post[1, 1] = post[2, 2] = 0.9
    clusters = mask_clusters(post > 0.7)
    assert len(clusters) == 1
    assert sorted(map(tuple, clusters[0])) == [(1, 1), (2, 2)]


def test_four_connectivity_would_split_the_diagonal():
    # the same mask under a 4-connected labeling gives two components,
    # which is why the extraction explicitly asks for eight directions
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = mask[2, 2] = True
    _, n4 = ndimage.label(mask)
    assert n4 == 2
    assert len(extraction.mask_clusters(mask)) == 1


@settings(max_examples=300, deadline=None)
@given(_masks())
def test_labels_match_scipy(mask):
    labels, count = label_components(mask)
    want, want_count = ndimage.label(mask, structure=EIGHT)
    assert count == want_count
    assert labels.dtype == want.dtype and np.array_equal(labels, want)
    assert len(mask_clusters(mask)) == count


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_labels_match_scipy_on_long_components(name):
    mask = ADVERSARIAL[name]
    labels, count = label_components(mask)
    want, want_count = ndimage.label(mask, structure=EIGHT)
    assert count == want_count == 1
    assert np.array_equal(labels, want)
    for kernel in (3, 5):
        assert np.array_equal(
            morphological_opening(mask, kernel),
            ndimage.binary_opening(mask, structure=np.ones((kernel, kernel))))


def test_labelling_does_not_walk_pixel_by_pixel():
    # a per-pixel propagation needs one round per pixel of this path and
    # took over 100 ms; the run-length labelling takes about one
    mask = ADVERSARIAL["serpentine-rows"]
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        label_components(mask)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05


def test_all_below_threshold_gives_no_clusters():
    assert mask_clusters(np.full((5, 5), 0.7) > 0.7) == []


def test_clusters_ordered_by_min_row_then_col():
    post = np.zeros((10, 10))
    post[6:8, 1:3] = 0.9
    post[1:3, 5:7] = 0.9
    post[1:3, 0:2] = 0.9
    clusters = mask_clusters(post > 0.7)
    starts = [(int(c[:, 0].min()), int(c[:, 1].min())) for c in clusters]
    assert starts == [(1, 0), (1, 5), (6, 1)]


def test_threshold_is_strict():
    # 0.75 is exact in the float32 raster, so pixels sit on the threshold
    config = ExtractionConfig(p_high=0.75, kernel=1, min_pixels=1)
    raster = FacadeRaster.zeros(_frame(3, 3), ("opening",))
    raster.data[:, :, 0] = 0.75
    assert extraction.extract_openings(raster, config, face_id="f") == []
    raster.data[1, 1, 0] = np.nextafter(np.float32(0.75), np.float32(1.0))
    (inst,) = extraction.extract_openings(raster, config, face_id="f")
    assert inst.rect == pytest.approx((0.1, 0.1, 0.2, 0.2))


# ---------------------------------------------------------------------------
# morphology

def test_opening_keeps_fat_square():
    mask = np.zeros((9, 9), dtype=bool)
    mask[2:7, 2:7] = True
    assert (morphological_opening(mask, 3) == mask).all()


def test_opening_removes_isolated_pixel():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    assert not morphological_opening(mask, 3).any()


def test_opening_cuts_thin_bridge():
    mask = np.zeros((7, 13), dtype=bool)
    mask[1:6, 1:6] = True
    mask[1:6, 7:12] = True
    mask[3, 6] = True
    opened = morphological_opening(mask, 3)
    assert not opened[3, 6]
    assert opened[1:6, 1:6].all() and opened[1:6, 7:12].all()


@settings(max_examples=150, deadline=None)
@given(_masks())
def test_opening_matches_brute_force_oracle(mask):
    for kernel in (1, 3, 5):
        got = morphological_opening(mask, kernel)
        assert np.array_equal(got, oracles.brute_binary_opening(mask, kernel))
        want = ndimage.binary_opening(mask, structure=np.ones((kernel, kernel)))
        assert np.array_equal(got, want)


def test_opening_never_adds_pixels():
    rng = np.random.default_rng(9)
    for _ in range(25):
        mask = rng.random((20, 20)) < 0.5
        opened = morphological_opening(mask, 3)
        assert not (opened & ~mask).any()


def test_opening_rejects_even_kernel():
    with pytest.raises(ValidationError):
        morphological_opening(np.zeros((3, 3), dtype=bool), 4)


# ---------------------------------------------------------------------------
# rectangularity and filtering

def test_rectangularity_examples():
    assert rectangularity(_rect_cluster(0, 0, 4, 6)) == 1.0
    # L-shape covering half of its 2x4 bounding box
    l_shape = np.asarray([(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)])[[0, 1, 2, 4]]
    assert rectangularity(l_shape) == 0.5
    assert rectangularity(np.asarray([(0, 0), (1, 1)])) == 0.5
    assert rectangularity(_rect_cluster(3, 3, 1, 20)) == 1.0


def test_rectangularity_rejects_empty():
    with pytest.raises(DomainError):
        rectangularity(np.empty((0, 2), dtype=int))


def test_rectangularity_floor_rejects_only_planted_outlier():
    # indices {0.9 x8, 0.2, 0.95}: only the 0.2 plant lies below the floor
    clusters = []
    for k in range(8):
        clusters.append(_rect_cluster(k * 6, 0, 4, 5, skip={(k * 6, 0), (k * 6, 1)}))
    low = _rect_cluster(50, 0, 4, 5)[:4]
    low[3] = (53, 4)   # stretch bbox to 4x5 with only 4 pixels: index 0.2
    high = _rect_cluster(56, 0, 4, 5, skip={(56, 0)})
    clusters.append(low)
    clusters.append(high)
    idx = sorted(rectangularity(c) for c in clusters)
    assert idx[0] == pytest.approx(0.2) and idx[-1] == pytest.approx(0.95)
    kept = filter_instances(clusters, ExtractionConfig())
    assert len(kept) == 9 and not any(c is low for c in kept)
    assert kept[-1] is high


def test_rectangularity_floor_judges_each_cluster_alone():
    # one or two clusters are judged as any other number: a lone diagonal
    # falls below the floor, and a two-row step filling half of its
    # bounding box stands on it
    diagonal = np.asarray([(i, i) for i in range(4)])
    assert filter_instances([diagonal], ExtractionConfig()) == []
    step = np.asarray([(0, 0), (0, 1), (1, 2), (1, 3)])
    square = _rect_cluster(5, 0, 2, 5)
    assert rectangularity(step) == extraction.MIN_RECTANGULARITY
    kept = filter_instances([step, square, diagonal], ExtractionConfig())
    assert len(kept) == 2 and kept[0] is step and kept[1] is square


def test_min_pixels_drops_runts():
    runt = _rect_cluster(0, 0, 1, 2)
    keep = [_rect_cluster(5 + 4 * k, 0, 3, 3) for k in range(3)]
    out = filter_instances([runt] + keep, ExtractionConfig())
    assert all(len(c) == 9 for c in out) and len(out) == 3


def _scene_metrics(paths, faces, out_dir) -> dict:
    """The pipeline's metrics and instances on a synth scene's files."""
    config = PipelineConfig(
        rays=str(paths["rays"]), solid=str(paths["solid"]),
        points=str(paths["points"]), image=str(paths["image"]),
        correspondences=str(paths["correspondences"]),
        gt_instances=str(paths["gt_instances"]),
        gt_measured=str(paths["gt_measured"]), faces=faces,
        out_dir=str(out_dir))
    artifacts = run_pipeline(config)
    return artifacts["metrics"], read_instances(artifacts["instances"])


def test_block_window_with_a_one_pixel_hole_is_found(tmp_path):
    # a scan point pushed into the next pixel leaves a hole in the covered
    # window (13.0, 3.8) of this seed; the other nine score 1.0
    paths = synth_scene(scenes.block_spec(648341672), tmp_path / "scene")
    metrics, found = _scene_metrics(paths, (), tmp_path / "out")
    assert (metrics["TP"], metrics["FP"], metrics["DA"]) == (10, 0, 100)
    assert any(inst.rect[:2] == pytest.approx((13.0, 3.8)) for inst in found)


@pytest.mark.parametrize("yaw", [10, 30])
def test_turned_front_finds_every_opening(tmp_path, yaw):
    # the three clusters score 0.896, 0.775 and 0.989 at 10 degrees, and
    # 0.955, 0.917 and 0.833 at 30: none is an outlier
    paths = synth_scene(SceneSpec(seed=7), tmp_path / "scene")
    rigid.move_scene(tmp_path / "scene", tmp_path / "turned", rigid.motion(yaw))
    turned = {key: tmp_path / "turned" / Path(path).name
              for key, path in paths.items()}
    metrics, _ = _scene_metrics(turned, ("wall_front",), tmp_path / "out")
    assert (metrics["TP"], metrics["FP"], metrics["FN"]) == (3, 0, 0)


# ---------------------------------------------------------------------------
# instances

def test_instance_confidence_means_member_pixels():
    post = np.zeros((4, 4))
    post[0, 0], post[0, 1] = 0.7, 0.9
    cluster = np.asarray([(0, 0), (0, 1)])
    assert extraction.instance_confidence(cluster, post) == pytest.approx(0.8)
    assert extraction.instance_confidence(np.asarray([(1, 1)]), post + 1.0) \
        == pytest.approx(1.0)


def test_cluster_to_opening_rect_arithmetic():
    frame = _frame(40, 40)
    cluster = _rect_cluster(5, 5, 20, 10)
    inst = extraction.cluster_to_opening(cluster, frame, "window", 0.8, "f")
    assert inst.rect == pytest.approx((0.5, 0.5, 1.5, 2.5))
    assert inst.face_id == "f"


def test_opening_instance_validation():
    with pytest.raises(ValidationError):
        OpeningInstance("f", (1.0, 0.0, 0.5, 1.0), "window", 0.8)
    with pytest.raises(ValidationError):
        OpeningInstance("f", (0.0, 0.0, 1.0, 1.0), "porthole", 0.8)
    with pytest.raises(ValidationError):
        OpeningInstance("f", (0.0, 0.0, 1.0, 1.0), "door", 1.4)


def test_extract_openings_end_to_end():
    frame = _frame(30, 22)
    post = FacadeRaster.zeros(frame, ("opening",))
    post.data[3:9, 4:10, 0] = 0.9      # clean window block
    post.data[3:9, 15:21, 0] = 0.85    # second block
    post.data[6, 10:15, 0] = 0.95      # thin bridge between them
    post.data[18, 2, 0] = 0.99         # speckle
    pc = FacadeRaster.zeros(frame, ("window", "door"))
    pc.data[:, :, 0] = 0.6
    pc.data[3:9, 15:21, 1] = 0.9       # second block votes door

    got = extraction.extract_openings(post, ExtractionConfig(), pc, None,
                                      face_id="wall_a")
    assert len(got) == 2
    first, second = got
    assert first.rect == pytest.approx((0.4, 0.3, 1.0, 0.9))
    assert first.label == "window"
    assert first.confidence == pytest.approx(0.9, abs=1e-6)
    assert second.rect == pytest.approx((1.5, 0.3, 2.1, 0.9))
    assert second.label == "door"
    for inst in got:
        assert inst.confidence > 0.7
        assert inst.face_id == "wall_a"


# pixel values with exact float32 sums, so window/door ties occur
LEVELS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def _facade_evidence(draw):
    """A small posterior raster plus a point-cloud and a texture raster,
    each absent or with any of the window/door channels."""
    frame = _frame(draw(st.integers(1, 9)), draw(st.integers(1, 9)))

    def raster(channels):
        r = FacadeRaster.zeros(frame, channels)
        r.data[:] = draw(hnp.arrays(np.float32, r.data.shape, elements=LEVELS))
        return r

    post = raster(("opening",))
    pc, tex = (draw(st.none() | st.sampled_from([
        ("wall",), ("window",), ("door",), ("window", "door"),
        ("door", "wall", "window")]).map(raster)) for _ in range(2))
    config = ExtractionConfig(p_high=draw(st.sampled_from([0.3, 0.6, 0.7])),
                              kernel=draw(st.sampled_from([1, 1, 3])),
                              min_pixels=draw(st.sampled_from([1, 2])))
    return post, pc, tex, config


@settings(max_examples=300, deadline=None)
@given(_facade_evidence())
def test_extract_openings_matches_per_pixel_oracles(evidence):
    post, pc, tex, config = evidence
    p = post.channel("opening").astype(float)
    mask = morphological_opening(p > config.p_high, config.kernel)
    clusters = mask_clusters(mask)
    want_clusters = oracles.mask_clusters(mask)
    assert len(clusters) == len(want_clusters)
    for got, want in zip(clusters, want_clusters):
        assert np.array_equal(got, want)
    want = []
    for cluster in filter_instances(want_clusters, config):
        votes = [oracles.disambiguate_label(pc, tex, px) for px in cluster]
        label = "door" if votes.count("door") > votes.count("window") else "window"
        want.append(extraction.cluster_to_opening(
            cluster, post.frame, label,
            extraction.instance_confidence(cluster, p), "f"))
    assert extraction.extract_openings(post, config, pc, tex, face_id="f") == want


def test_label_is_the_pixel_majority_not_the_summed_channels():
    # two pixels at door 0.51 / window 0.49 and one at 0 / 1: the pixels
    # vote door 2 to 1, while the summed channels favour window
    post = FacadeRaster.zeros(_frame(3, 1), ("opening",))
    post.data[:] = 0.9
    pc = FacadeRaster.zeros(post.frame, ("window", "door"))
    pc.data[0, :, 0] = (0.49, 0.49, 1.0)
    pc.data[0, :, 1] = (0.51, 0.51, 0.0)
    config = ExtractionConfig(kernel=1, min_pixels=1)
    (inst,) = extraction.extract_openings(post, config, pc, None, face_id="f")
    assert inst.label == "door"
    # one door pixel against one window pixel is a tie
    post.data[0, 0] = 0.0
    (inst,) = extraction.extract_openings(post, config, pc, None, face_id="f")
    assert inst.label == "window"


def test_extract_openings_empty_raster():
    frame = _frame(8, 8)
    post = FacadeRaster.zeros(frame, ("opening",))
    assert extraction.extract_openings(post, ExtractionConfig(), face_id="f") == []


def test_extract_openings_needs_a_face_id():
    post = FacadeRaster.zeros(_frame(8, 8), ("opening",))
    with pytest.raises(TypeError):
        extraction.extract_openings(post, ExtractionConfig())


# ---------------------------------------------------------------------------
# file format

def test_instances_round_trip(tmp_path):
    path = tmp_path / "openings.txt"
    inst = [
        OpeningInstance("wall_a", (0.4, 0.3, 1.0, 0.9), "window", 0.875),
        OpeningInstance("wall_a", (1.5, 0.3, 2.1, 0.9), "door", 0.8125),
    ]
    extraction.write_instances(inst, path)
    back = extraction.read_instances(path)
    assert len(back) == 2
    for a, b in zip(inst, back):
        assert a.face_id == b.face_id and a.label == b.label
        assert a.rect == b.rect and a.confidence == b.confidence


@pytest.mark.parametrize("line", [
    "opening face=a label=window conf=0.8 rect=0 0 1",
    "window face=a label=window conf=0.8 rect=0 0 1 1",
    "opening face=a label=window conf=high rect=0 0 1 1",
    "opening face=a label=slit conf=0.8 rect=0 0 1 1",
    "opening face=a label=window conf=0.8 rect=1 1 0 0",
    "opening name=a label=window conf=0.8 rect=0 0 1 1",
    "opening face= label=window conf=0.8 rect=0 0 1 1",
])
def test_instances_parse_errors(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(line + "\n")
    with pytest.raises(ParseError):
        extraction.read_instances(path)
