"""Acceptance suite: one test per criterion, pinned tolerances.

Each test prints a PASS line with its measured numbers; oracles live in
tests/oracles.py and are independent reimplementations, not wrappers.
"""

import itertools
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import oracles
import scenes
from lod3recon.cli import PipelineConfig, run_pipeline
from lod3recon.evaluate import (DetectionCounts, detection_rates,
                                match_instances, watertight)
from lod3recon.extraction import (ExtractionConfig, OpeningInstance,
                                  filter_instances, morphological_opening,
                                  read_instances, rectangularity)
from lod3recon.fusion import COMBINATIONS, Cpt, default_cpt, posterior
from lod3recon.model_io import OpeningTemplate, box_solid
from lod3recon.occupancy import OccupancyConfig, clamped_sums, \
    traverse
from lod3recon.rasters import read_raster
from lod3recon.reconstruct import reconstruct_model, write_citygml
from lod3recon.synth import SceneSpec, SynthOpening, synth_scene
from lod3recon.visibility import joint_state_probability


# ---------------------------------------------------------------------------
# 1. detection-rate arithmetic against the frozen reference table

# Frozen per-facade counts (AO, MO, D, TP, FP) with the integer rates
# (DA, FA, DM) they must produce. Two counts are reconciled against
# their own row totals before freezing: one MO total (87 -> 89, the
# column sum, which its DM cell already assumes) and one FP cell
# (0 -> 2 = D - TP, which its FA and FP-total cells already assume).
# One published FA cell contradicts its own counts (FP=3, D=15 admit
# only 20) and is frozen at the arithmetic value.
REFERENCE_TABLE = [
    ("ref1_A", (66, 60, 60, 60, 0), (91, 0, 100)),
    ("ref1_B", (17, 17, 15, 12, 3), (71, 20, 71)),
    ("ref1_C", (20, 10, 4, 4, 0), (20, 0, 40)),
    ("ref1_total", (103, 87, 75, 76, 3), (74, 4, 87)),
    ("ref2_A", (66, 60, 60, 60, 0), (91, 0, 100)),
    ("ref2_B", (17, 17, 15, 15, 0), (88, 0, 88)),
    ("ref2_C", (20, 12, 6, 5, 1), (25, 17, 42)),
    ("ref2_total", (103, 89, 81, 80, 1), (78, 1, 90)),
    ("ref3_A", (66, 60, 60, 60, 0), (91, 0, 100)),
    ("ref3_B", (17, 17, 16, 16, 0), (94, 0, 94)),
    ("ref3_C", (20, 12, 11, 11, 0), (55, 0, 92)),
    ("ref3_total", (103, 89, 87, 87, 0), (84, 0, 98)),
    ("ref4_A", (66, 66, 65, 65, 0), (98, 0, 98)),
    ("ref4_B", (17, 12, 16, 14, 2), (82, 12, 117)),
    ("ref4_C", (20, 18, 16, 15, 1), (75, 6, 83)),
    ("ref4_total", (103, 96, 97, 94, 3), (91, 3, 98)),
]


def test_01_detection_table_arithmetic():
    start = time.perf_counter()
    for name, (ao, mo, d, tp, fp), expected in REFERENCE_TABLE:
        counts = DetectionCounts(AO=ao, MO=mo, D=d, TP=tp, FP=fp, FN=ao - tp)
        assert detection_rates(counts) == expected, name
    # spot examples: TP=60/AO=66 -> DA=91, FP=1/D=6 -> FA=17,
    # TP=76/MO=87 -> DM=87
    assert detection_rates(DetectionCounts(66, 60, 60, 60, 0, 6))[0] == 91
    assert detection_rates(DetectionCounts(20, 12, 6, 5, 1, 15))[1] == 17
    assert detection_rates(DetectionCounts(103, 87, 75, 76, 3, 27))[2] == 87
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS 1: all {len(REFERENCE_TABLE)} reference columns reproduced "
          f"exactly in {elapsed:.3f} s")


# ---------------------------------------------------------------------------
# 2. voxel traversal against the slab-clipping oracle

def test_02_ray_traversal_matches_slab_oracle():
    rng = np.random.default_rng(2024)
    vs = 0.1
    segments = rng.uniform(0.0, 16 * vs, size=(1000, 2, 3))
    start = time.perf_counter()
    ray, keys = traverse(segments[:, 0], segments[:, 1], vs)
    for i, (origin, endpoint) in enumerate(segments):
        got = [tuple(k) for k in keys[ray == i].tolist()]
        want = oracles.slab_traverse(origin, endpoint, vs)
        assert got == want
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS 2: 1000/1000 rays match the slab oracle in membership "
          f"and order ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 3. clamped log-odds updates

def _prefix_values(sequences, cfg):
    """Log-odds after every prefix of every hit/miss sequence, the empty
    prefix first; each prefix is its own voxel group in one call of the
    production clamp."""
    prefixes = []
    for kinds in sequences:
        steps = [cfg.log_odds_hit if hit else cfg.log_odds_miss for hit in kinds]
        prefixes.extend(steps[:n] for n in range(len(steps) + 1))
    group = np.repeat(np.arange(len(prefixes)), [len(p) for p in prefixes])
    deltas = np.array([d for p in prefixes for d in p], dtype=float)
    values = clamped_sums(group, deltas, np.zeros(len(prefixes)),
                          cfg.log_odds_min, cfg.log_odds_max)
    bounds = np.cumsum([0] + [len(kinds) + 1 for kinds in sequences])
    return [values[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]


def test_03_log_odds_clamp_and_permutation():
    cfg = OccupancyConfig()
    rng = np.random.default_rng(3)

    sequences = [rng.random(rng.integers(1, 25)) < 0.5 for _ in range(10_000)]
    for prefixes in _prefix_values(sequences, cfg):
        # every prefix after the first update (the empty one holds no cell)
        for l in prefixes[1:]:
            assert cfg.log_odds_min <= l <= cfg.log_odds_max

    # sequences of at most four hits and four misses keep every prefix of
    # every ordering strictly inside (l_min, l_max), so the clamp never
    # engages and the sum is order independent
    orderings = []
    for _ in range(3000):
        updates = ["hit"] * rng.integers(0, 5) + ["miss"] * rng.integers(0, 5)
        for _ in range(2):
            rng.shuffle(updates)
            orderings.append([kind == "hit" for kind in updates])
    values = _prefix_values(orderings, cfg)
    checked = 0
    for first, second in zip(values[0::2], values[1::2]):
        finals = []
        for prefixes in (first, second):
            for l in prefixes[1:]:
                assert cfg.log_odds_min < l < cfg.log_odds_max
            # no update at all leaves log-odds 0
            finals.append(prefixes[-1])
        assert abs(finals[0] - finals[1]) <= 1e-9
        checked += 1
    print(f"PASS 3: clamp held over 10000 sequences; permutation "
          f"invariance held on {checked} strictly interior sequences")


# ---------------------------------------------------------------------------
# 4. joint surface-state probability laws

def test_04_joint_state_probability_laws():
    grid = np.linspace(0.0, 1.0, 100)
    for pa in grid:
        for pb in grid:
            p_conf, p_confl = joint_state_probability(pa, pb)
            assert abs(p_conf + p_confl - 1.0) <= 1e-12
            assert abs(p_conf - pa * pb) <= 1e-12
    print("PASS 4: complement identity and product law hold on the "
          "100x100 grid (tol 1e-12)")


# ---------------------------------------------------------------------------
# 5. fusion posterior against the 12-term oracle, plus the corner grid

def _entries(cpt: Cpt) -> dict:
    return dict(zip(COMBINATIONS, cpt.table.ravel().tolist()))


def test_05_posterior_oracle_and_corner_grid():
    rng = np.random.default_rng(5)
    for k in range(500):
        cpt = default_cpt() if k % 2 else Cpt(rng.random((3, 2, 2)))
        conflict = rng.dirichlet((1.0, 1.0, 1.0))
        pc, tex = rng.random(2)
        got = float(posterior(conflict, pc, tex, cpt))
        want = oracles.cpt_marginal(conflict, pc, tex, _entries(cpt))
        assert abs(got - want) <= 1e-12

    # corner grid: each modality votes for an opening, abstains, or
    # opposes. Two votes always clear 0.7. With at most one vote and no
    # abstentions the posterior stays at or below 0.5; an abstention can
    # only soften that bound to "below 0.7" (not detected), except that a
    # laser conflict against pure abstention must still reach 0.7, or
    # laser-only runs would never detect anything.
    cpt = default_cpt()
    laser = {"for": (1.0, 0.0, 0.0), "against": (0.0, 1.0, 0.0),
             "abstain": (0.0, 0.0, 1.0)}
    level = {"for": 0.95, "abstain": 0.5, "against": 0.05}
    corners = 0
    for lv, pv, tv in itertools.product(("for", "abstain", "against"),
                                        repeat=3):
        post = float(posterior(np.asarray(laser[lv]), level[pv], level[tv],
                               cpt))
        votes = [lv, pv, tv].count("for")
        abstained = [lv, pv, tv].count("abstain")
        if votes >= 2:
            assert post >= 0.7, (lv, pv, tv, post)
        elif (lv, pv, tv) == ("for", "abstain", "abstain"):
            assert post >= 0.7, post
        elif abstained == 0 or votes == 0:
            assert post <= 0.5, (lv, pv, tv, post)
        else:
            assert post < 0.7, (lv, pv, tv, post)
        corners += 1
    assert corners == 27
    print("PASS 5: posterior matched the 12-term oracle on 500 evidence "
          "vectors (tol 1e-12); all 27 evidence corners bounded")


# ---------------------------------------------------------------------------
# 6. extraction morphology, rectangularity, percentile filter

def test_06_morphology_rectangularity_percentile():
    rng = np.random.default_rng(6)
    for k in range(100):
        mask = rng.random((64, 64)) < rng.uniform(0.3, 0.7)
        got = morphological_opening(mask, 3)
        want = oracles.brute_binary_opening(mask, 3)
        assert np.array_equal(got, want), f"mask {k}"

    for _ in range(50):
        r0, c0 = rng.integers(0, 40, 2)
        h, w = rng.integers(1, 20, 2)
        cluster = [(r, c) for r in range(r0, r0 + h)
                   for c in range(c0, c0 + w)]
        assert rectangularity(cluster) == 1.0

    # eight full squares (index 1.0) and one planted diagonal whose
    # index is 5/25 = 0.2; the MIN_RECTANGULARITY floor of 0.5 must
    # reject only the plant
    squares = [np.array([(r + 8 * k, c) for r in range(4) for c in range(4)])
               for k in range(8)]
    plant = np.array([(70 + i, i) for i in range(5)])
    assert rectangularity(plant) == pytest.approx(0.2)
    kept = filter_instances(squares + [plant], ExtractionConfig())
    assert len(kept) == 8
    assert all(rectangularity(c) == 1.0 for c in kept)
    print("PASS 6: morphology matched the brute oracle on 100 masks; "
          "exact rectangles score 1.0; the 0.2-index plant was rejected")


# ---------------------------------------------------------------------------
# 7. synthetic scene end to end

def test_07_synthetic_scene_end_to_end(tmp_path):
    start = time.perf_counter()
    spec = SceneSpec(seed=11)   # 10 m x 4 m wall, two windows and a door
    paths = synth_scene(spec, tmp_path / "scene")
    assert len(scenes.read_all_rays(paths["rays"])) / (10.0 * 4.0) >= 400.0
    assert spec.noise_sigma == 0.02

    config = PipelineConfig(
        rays=paths["rays"], solid=paths["solid"], points=paths["points"],
        image=paths["image"], correspondences=paths["correspondences"],
        gt_instances=paths["gt_instances"], gt_measured=paths["gt_measured"],
        faces=("wall_front",), out_dir=str(tmp_path / "out"))
    assert config.occupancy.voxel_size == 0.1
    artifacts = run_pipeline(config)
    elapsed = time.perf_counter() - start

    metrics = artifacts["metrics"]
    assert metrics["DA"] == 100 and metrics["FA"] == 0
    pred = read_instances(artifacts["instances"])
    gt = read_instances(paths["gt_instances"])
    tp, fp, fn, matches = match_instances(pred, gt, iou_min=0.5)
    assert (tp, fp, fn) == (3, 0, 0)
    worst_iou = min(iou for _, _, iou in matches)
    assert worst_iou >= 0.8
    assert metrics["watertight"] is True
    assert metrics["rms_deviation"] <= config.occupancy.voxel_size
    assert elapsed < 60.0
    print(f"PASS 7: 3/3 openings (DA=100, FA=0), worst IoU "
          f"{worst_iou:.3f}, watertight, RMS {metrics['rms_deviation']:.2e} "
          f"<= 0.1, in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 8. covered opening detected only with two strong semantic cues

BLIND_RECT = (1.2, 0.6, 2.2, 1.4)


def _blind_scene(tmp_path):
    spec = SceneSpec(width=4.0, height=2.0, depth=2.0, seed=13,
                     openings=(SynthOpening(BLIND_RECT, "window",
                                            covered=True),))
    return synth_scene(spec, tmp_path / "scene")


def _blind_config(paths, out_dir, with_image: bool) -> PipelineConfig:
    extra = {}
    if with_image:
        extra = dict(image=paths["image"],
                     correspondences=paths["correspondences"])
    return PipelineConfig(rays=paths["rays"], solid=paths["solid"],
                          points=paths["points"], faces=("wall_front",),
                          out_dir=str(out_dir), **extra)


def _opening_pixels(raster):
    post = raster.channel("opening")
    cell = raster.frame.cell
    r0, r1 = round(BLIND_RECT[1] / cell), round(BLIND_RECT[3] / cell)
    c0, c1 = round(BLIND_RECT[0] / cell), round(BLIND_RECT[2] / cell)
    return post[r0:r1, c0:c1]


def test_08_covered_opening_needs_two_cues(tmp_path):
    paths = _blind_scene(tmp_path)

    both = run_pipeline(_blind_config(paths, tmp_path / "both", True))
    posterior = read_raster(both["posterior_wall_front"])
    inside = _opening_pixels(posterior)
    assert inside.min() >= 0.7
    detected = read_instances(both["instances"])
    assert len(detected) == 1
    assert detected[0].label == "window"
    tp, _, _, matches = match_instances(
        detected, [OpeningInstance("wall_front", BLIND_RECT, "window", 1.0)])
    assert tp == 1 and matches[0][2] >= 0.8

    single = run_pipeline(_blind_config(paths, tmp_path / "single", False))
    posterior = read_raster(single["posterior_wall_front"])
    assert posterior.channel("opening").max() < 0.7
    assert read_instances(single["instances"]) == []
    print(f"PASS 8: covered opening detected with two strong cues "
          f"(inside posterior >= {inside.min():.3f}); with one cue the "
          f"posterior stays below 0.7 and nothing is detected")


# ---------------------------------------------------------------------------
# 9. recess geometry, volume oracle, semantic output

def test_09_recess_volume_watertight_citygml(tmp_path):
    flat_window = OpeningTemplate(
        "flat_window", "window", 0.0,
        (((0, 0, 0), (1, 0, 0), (1, 1, 0)),
         ((0, 0, 0), (1, 1, 0), (0, 1, 0))))
    cube = box_solid("cube", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    instance = OpeningInstance("wall_front", (0.4, 0.4, 0.6, 0.6),
                               "window", 0.9)
    model = reconstruct_model(cube, [instance],
                              {"flat_window": flat_window}, depth=0.1)

    # analytic oracle: unit cube minus a 0.2 x 0.2 x 0.1 recess
    assert model.volume() == pytest.approx(1.0 - 0.2 * 0.2 * 0.1, abs=1e-9)
    assert watertight(model.loops())

    gml = tmp_path / "cube.gml"
    write_citygml(model, gml)
    root = ET.parse(gml).getroot()
    windows = [el for el in root.iter() if el.tag.endswith("Window")]
    assert len(windows) == 1
    confidences = [el for el in windows[0].iter()
                   if el.tag.endswith("confidence")]
    assert len(confidences) == 1
    assert float(confidences[0].text) == pytest.approx(0.9, abs=1e-4)
    print("PASS 9: enclosed volume 0.996 +/- 1e-9, watertight, exactly one "
          "Window element carrying its confidence")
