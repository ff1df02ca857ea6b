import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lod3recon import evaluate, geom
from lod3recon.errors import DomainError, ParseError, ValidationError
from lod3recon.evaluate import (DetectionCounts, detection_rates,
                                format_report, match_instances,
                                median_instance_iou, mesh_deviation,
                                read_metrics, rect_iou, sample_model_points,
                                triangulate_model, watertight, write_metrics)
from lod3recon.extraction import OpeningInstance
from lod3recon.model_io import box_solid
from lod3recon.reconstruct import reconstruct_model
from lod3recon.synth import ground_truth_instances, scene_solid

import oracles
import scenes


def _inst(rect, face="f", label="window", conf=0.9):
    return OpeningInstance(face, rect, label, conf)


# ---------------------------------------------------------------------------
# counts and rates

def test_counts_reject_negatives():
    with pytest.raises(ValidationError):
        DetectionCounts(10, 10, 5, 5, -1, 5)


def test_counts_reject_fractions():
    with pytest.raises(ValidationError):
        DetectionCounts(10, 10, 5, 4.5, 0, 5)


def test_counts_from_matching_fills_derived_fields():
    c = DetectionCounts.from_matching(ao=10, mo=8, tp=6, fp=2)
    assert (c.D, c.FN) == (8, 4)


def test_rates_benchmark_facade_cell():
    got = detection_rates(DetectionCounts(66, 60, 60, 60, 0, 6))
    assert got == (91, 0, 100)


def test_rates_benchmark_totals_cell():
    got = detection_rates(DetectionCounts.from_matching(103, 87, 76, 3))
    assert got == (74, 4, 87)


def test_rates_zero_detections():
    assert detection_rates(DetectionCounts(10, 10, 0, 0, 0, 10)) == (0, 0, 0)


def test_rates_round_half_to_even():
    # 12.5 lands on 12, 37.5 on 38
    assert detection_rates(DetectionCounts(8, 8, 8, 1, 1, 7))[0] == 12
    assert detection_rates(DetectionCounts(8, 8, 8, 3, 1, 5))[0] == 38
    assert detection_rates(DetectionCounts(8, 8, 8, 1, 1, 7))[1] == 12


def test_rates_leave_da_out_without_openings():
    # no opening exists, so DA has no denominator; FA still has one
    assert detection_rates(DetectionCounts(0, 0, 2, 0, 2, 0)) == (None, 100, None)
    assert detection_rates(DetectionCounts(0, 0, 0, 0, 0, 0)) == (None, 0, None)


def test_rates_leave_dm_out_without_measured_openings():
    # only covered openings: none was measured, so DM has no denominator
    assert detection_rates(DetectionCounts(5, 0, 1, 1, 0, 4)) == (20, 0, None)


# ---------------------------------------------------------------------------
# rect IoU

def test_iou_identical_rects():
    assert rect_iou((0, 0, 1, 1), (0, 0, 1, 1)) == 1.0


def test_iou_offset_unit_squares():
    assert rect_iou((0, 0, 1, 1), (0.5, 0, 1.5, 1)) == pytest.approx(1 / 3)


def test_iou_disjoint_and_touching():
    assert rect_iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0
    assert rect_iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0


def test_iou_contained_rect():
    assert rect_iou((0, 0, 2, 2), (0.5, 0.5, 1.5, 1.5)) == pytest.approx(0.25)


@given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
def test_iou_symmetric_and_bounded(vals):
    def rect(x0, y0, x1, y1):
        return (min(x0, x1), min(y0, y1),
                max(x0, x1) + 0.5, max(y0, y1) + 0.5)
    a = rect(*vals[:4])
    b = rect(*vals[4:])
    assert rect_iou(a, b) == rect_iou(b, a)
    assert 0.0 <= rect_iou(a, b) <= 1.0


# ---------------------------------------------------------------------------
# matching

def test_match_identical_lists():
    rects = [(0, 0, 1, 1), (2, 0, 3, 1), (4, 0, 5, 1)]
    pred = [_inst(r) for r in rects]
    gt = [_inst(r) for r in rects]
    tp, fp, fn, matches = match_instances(pred, gt)
    assert (tp, fp, fn) == (3, 0, 0)
    assert all(iou == 1.0 for _, _, iou in matches)


def test_match_below_threshold_counts_both_ways():
    # unit squares offset by 3/7 have IoU (4/7)/(10/7) = 0.4
    pred = [_inst((3 / 7, 0, 1 + 3 / 7, 1))]
    gt = [_inst((0, 0, 1, 1))]
    tp, fp, fn, matches = match_instances(pred, gt, iou_min=0.5)
    assert (tp, fp, fn) == (0, 1, 1)
    assert matches == ()


def test_match_greedy_prefers_higher_iou():
    gt = [_inst((0, 0, 1, 1))]
    pred = [_inst((0.25, 0, 1.25, 1)),     # IoU 0.6
            _inst((1 / 9, 0, 1 + 1 / 9, 1))]   # IoU 0.8
    tp, fp, fn, matches = match_instances(pred, gt)
    assert (tp, fp, fn) == (1, 1, 0)
    assert matches[0][0] == 1
    assert matches[0][2] == pytest.approx(0.8)


def test_match_respects_face_ids():
    pred = [_inst((0, 0, 1, 1), face="a")]
    gt = [_inst((0, 0, 1, 1), face="b")]
    assert match_instances(pred, gt)[:3] == (0, 1, 1)


def test_match_is_one_to_one():
    gt = [_inst((0, 0, 1, 1)), _inst((0.1, 0, 1.1, 1))]
    pred = [_inst((0, 0, 1, 1))]
    tp, fp, fn, matches = match_instances(pred, gt)
    assert (tp, fp, fn) == (1, 0, 1)
    assert matches[0][1] == 0


# ---------------------------------------------------------------------------
# median IoU

def test_median_iou_counts_unmatched_gt_as_zero():
    gt = [_inst((0, 0, 1, 1)), _inst((2, 0, 3, 1)), _inst((4, 0, 5, 1))]
    matches = ((0, 1, 0.6), (1, 2, 0.8))
    assert median_instance_iou([], gt, matches) == pytest.approx(60.0)


def test_median_iou_matched_only_variant():
    gt = [_inst((0, 0, 1, 1)), _inst((2, 0, 3, 1)), _inst((4, 0, 5, 1))]
    matches = ((0, 1, 0.6), (1, 2, 0.8))
    got = median_instance_iou([], gt, matches, matched_only=True)
    assert got == pytest.approx(70.0)


def test_median_iou_perfect_detection():
    gt = [_inst((0, 0, 1, 1))]
    assert median_instance_iou(gt, gt, ((0, 0, 1.0),)) == 100.0


def test_median_iou_empty_gt_rejected():
    with pytest.raises(DomainError):
        median_instance_iou([], [], ())
    with pytest.raises(DomainError):
        median_instance_iou([], [_inst((0, 0, 1, 1))], (), matched_only=True)


def test_full_pipeline_counts_and_median():
    gt = [_inst((0, 0, 1, 1)), _inst((2, 0, 3, 1))]
    pred = [_inst((0, 0, 1, 1)), _inst((5, 0, 6, 1))]
    tp, fp, fn, matches = match_instances(pred, gt)
    counts = DetectionCounts.from_matching(len(gt), len(gt), tp, fp)
    assert detection_rates(counts) == (50, 50, 50)
    assert median_instance_iou(pred, gt, matches) == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# mesh deviation

def _unit_tri():
    return ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_deviation_on_mesh_is_zero():
    pts = [(0.2, 0.2, 0.0), (0.5, 0.0, 0.0)]
    assert mesh_deviation(pts, [_unit_tri()]) == (0.0, 0.0)


def test_deviation_closed_form():
    pts = [(0.2, 0.2, 1.0), (0.2, 0.2, -3.0)]
    mean, rms = mesh_deviation(pts, [_unit_tri()])
    assert mean == pytest.approx(2.0)
    assert rms == pytest.approx(math.sqrt(5.0))


def test_deviation_mean_never_exceeds_rms():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 3))
    mean, rms = mesh_deviation(pts, [_unit_tri()])
    assert mean <= rms + 1e-12


def test_deviation_matches_closest_point_oracle():
    rng = np.random.default_rng(21)
    tris = rng.normal(size=(6, 3, 3))
    pts = rng.normal(size=(40, 3)) * 2.0
    for p in pts:
        want = min(oracles.point_triangle_distance(p, *tri) for tri in tris)
        got_mean, got_rms = mesh_deviation([p], tris)
        assert got_mean == pytest.approx(want, abs=1e-9)
        assert got_rms == pytest.approx(want, abs=1e-9)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


@st.composite
def deviation_cases(draw):
    """(points, triangles) of soups with collinear triangles, repeated
    vertices, slivers and pairs sharing an edge. Points lie on the
    triangles, a millimetre off them, around them, a kilometre away, or
    on a shared edge; everything optionally near 5e6 m."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offset = draw(st.sampled_from([0.0, 5e6])) * rng.uniform(0.9, 1.1, 3)
    tris, edges = [], []
    for kind in draw(st.lists(st.sampled_from(
            ["plain", "collinear", "repeated", "point", "shared", "sliver"]),
            min_size=1, max_size=10)):
        size = rng.choice([0.05, 1.0, 8.0])
        a, b, c = rng.normal(size=3) * 5.0 + rng.normal(size=(3, 3)) * size
        if kind == "collinear":
            c = a + rng.uniform(-1.0, 2.0) * (b - a)
        elif kind == "repeated":
            c = a
        elif kind == "point":
            b = c = a
        elif kind == "sliver":
            c = a + 0.5 * (b - a) + 1e-5 * rng.normal(size=3)
        elif kind == "shared":
            tris.append((b + offset, a + offset, rng.normal(size=3) + offset))
            edges.append((a + offset, b + offset))
        tris.append((a + offset, b + offset, c + offset))
    tris = np.array(tris)
    count = draw(st.sampled_from([1, 2, 3, 40, 300]))
    where = rng.integers(0, 4, count)
    w = rng.dirichlet(np.ones(3), count)
    on = np.einsum("ij,ijk->ik", w, tris[rng.integers(0, len(tris), count)])
    spread = np.choose(where, [0.0, 1e-3, 1e3, 6.0])[:, None]
    pts = on + rng.normal(size=(count, 3)) * spread
    for i in np.flatnonzero(where == 3) if edges else ():
        a, b = edges[rng.integers(len(edges))]
        pts[i] = a + rng.uniform() * (b - a)
    return pts, tris


@settings(max_examples=300, deadline=None)
@given(case=deviation_cases())
def test_deviation_equals_the_per_triangle_reference(case):
    pts, tris = case
    got = evaluate._nearest_distances(pts, tris)
    with np.errstate(divide="ignore", invalid="ignore"):   # slivers
        want = oracles.mesh_distances(pts, tris)
        assert mesh_deviation(pts, tris) == oracles.mesh_deviation(pts, tris)
    assert _bits(got) == _bits(want)


def test_deviation_of_one_point_takes_one_row_products():
    # a one-row product (np.dot) can differ in the last bit from a row of
    # a larger product; the reference takes it for a single sample point
    rng = np.random.default_rng(4)
    tris = rng.normal(size=(30, 3, 3)) * 3.0
    for p in rng.normal(size=(200, 3)) * 4.0:
        assert mesh_deviation([p], tris) == oracles.mesh_deviation([p], tris)


def _block_model():
    """Ground-truth model of a 16 x 6 x 10 m block with ten openings on
    its front: 224 triangles."""
    spec = scenes.block_spec(0)
    return reconstruct_model(scene_solid(spec), ground_truth_instances(spec),
                             margin=0.0)


def test_deviation_on_a_block_equals_the_reference_in_a_few_megabytes():
    model = _block_model()
    tris = triangulate_model(model)
    # 0.3 m off the surface, so that few distances are zero
    pts = sample_model_points(model, 2000) + np.array([0.0, 0.3, 0.0])
    assert tris.shape == (224, 3, 3)
    tracemalloc.start()
    try:
        got = evaluate._nearest_distances(pts, tris)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (point, triangle) bounds are taken a chunk of points at a time;
    # all at once they would take tens of megabytes
    assert peak < 5e6
    assert _bits(got) == _bits(oracles.mesh_distances(pts, tris))


def test_deviation_requires_inputs():
    with pytest.raises(DomainError):
        mesh_deviation(np.empty((0, 3)), [_unit_tri()])
    with pytest.raises(DomainError):
        mesh_deviation([(0, 0, 0)], [])


# ---------------------------------------------------------------------------
# watertightness and model sampling

def test_watertight_closed_cube():
    cube = box_solid("c", (0, 0, 0), (1, 1, 1))
    assert watertight(cube.loops())


def test_watertight_missing_face():
    cube = box_solid("c", (0, 0, 0), (1, 1, 1))
    loops = [f.outer.points for f in cube.faces[:-1]]
    assert not watertight(loops)


def test_watertight_rejects_nonmanifold_shared_face():
    a = box_solid("a", (0, 0, 0), (1, 1, 1))
    b = box_solid("b", (1, 0, 0), (1, 1, 1))
    assert not watertight(list(a.loops()) + list(b.loops()))


def test_triangulated_model_preserves_area():
    model = reconstruct_model(box_solid("c", (0, 0, 0), (1, 1, 1)),
                              [_inst((0.4, 0.4, 0.6, 0.6), face="wall_right")],
                              depth=0.1)
    tris = triangulate_model(model)
    area = float(geom.triangle_areas(tris).sum())
    # cube shell minus the hole, plus 4 side walls, pane and skirt
    assert area > 6.0 - 0.04
    samples = sample_model_points(model, 500)
    mean, rms = mesh_deviation(samples, tris)
    assert rms < 1e-9


def test_sample_model_points_deterministic():
    solid = box_solid("c", (0, 0, 0), (1, 1, 1))
    assert np.array_equal(sample_model_points(solid, 64),
                          sample_model_points(solid, 64))
    with pytest.raises(DomainError):
        sample_model_points(solid, 0)


def _soup(seed):
    """A few random triangles, about a third of them without area."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 30))
    tris = rng.normal(size=(k, 3, 3)) * rng.uniform(0.1, 10.0)
    flat = rng.random(k) < 0.3
    tris[flat, 2] = tris[flat, int(rng.integers(2))]
    return tris


# Up to 10,000 samples, no interval of [0, 1) holds more than 8.42 of the
# lattice's first coordinates more or fewer than its length times the
# count; a random stream of 2,000 misses a triangle by about 20.
LATTICE_SLACK = 8.5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2 ** 32 - 1))
def test_samples_lie_on_their_triangles_in_proportion_to_area(count, soup_seed):
    # each triangle moved 1 km further along x, so a point names its own
    tris = _soup(soup_seed)
    tris[:, :, 0] += 1000.0 * np.arange(len(tris))[:, None]
    pts = geom.sample_on_triangles(tris, count)
    areas = geom.triangle_areas(tris)
    if count == 0 or areas.sum() == 0.0:
        assert pts.shape == (0, 3)
        return
    assert np.array_equal(pts, geom.sample_on_triangles(tris, count))
    which = np.rint(pts[:, 0] / 1000.0).astype(int)
    counts = np.bincount(which, minlength=len(tris))
    assert np.all(np.abs(counts - count * areas / areas.sum()) <= LATTICE_SLACK)
    assert np.all(counts[areas == 0.0] == 0)
    for i in np.flatnonzero(counts):
        d = oracles.points_triangle_distance(pts[which == i], tris[i])
        assert float(d.max()) <= 1e-9 * (1.0 + np.abs(tris[i]).max())


def test_sampling_needs_a_finite_area():
    huge = box_solid("b", (0.0, 0.0, 0.0), (1e160, 2e160, 3e160))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="triangle areas sum to"):
            sample_model_points(huge, 10)


# ---------------------------------------------------------------------------
# reporting

def test_report_formats_types():
    text = format_report({"DA": 91, "median_iou": 88.25, "watertight": True,
                          "building": "cube"})
    assert "evaluation summary" in text
    assert "DA" in text and "91" in text
    assert "88.2500" in text
    assert "yes" in text
    with pytest.raises(DomainError):
        format_report({})


def test_metrics_file_round_trip(tmp_path):
    metrics = {"DA": 91, "FA": 0, "median_iou": 88.25, "rms": 0.0125,
               "watertight": True, "flag": False, "name": "facade_a"}
    path = tmp_path / "metrics.txt"
    write_metrics(metrics, path)
    assert read_metrics(path) == metrics


def test_metrics_reader_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("DA 91\n")
    with pytest.raises(ParseError):
        read_metrics(path)
    path.write_text("= 91\n")
    with pytest.raises(ParseError):
        read_metrics(path)


def test_metrics_reader_strips_comments_and_rejects_duplicates(tmp_path):
    path = tmp_path / "metrics.txt"
    path.write_text("# run 7\nDA = 91  # detection\nwatertight = true\n")
    assert read_metrics(path) == {"DA": 91, "watertight": True}
    path.write_text("DA = 91\nDA = 92\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_metrics(path)
