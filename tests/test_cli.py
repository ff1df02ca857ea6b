"""CLI surface: config parsing, subcommand wiring, exit codes, pipeline."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from lod3recon import cli, textio
from lod3recon.errors import ConfigError, IoError, ParseError
from lod3recon.evaluate import read_metrics, sample_model_points, triangulate_model
from lod3recon.extraction import ExtractionConfig, OpeningInstance, \
    read_instances, write_instances
from lod3recon.model_io import BuildingSolid, Face, Ring, box_solid, \
    read_solid, write_solid
from lod3recon.occupancy import OccupancyConfig, read_tree
from lod3recon.rasters import (POINT_LABELS, FacadeRaster, facade_frame,
                               point_writer, project_point_probabilities,
                               read_raster, write_raster)
from lod3recon.reconstruct import read_model
from lod3recon.synth import FRONT_FACE, SceneSpec, scene_solid, synth_scene
from lod3recon.visibility import UncertaintyConfig

import oracles
import scenes


SCENE_ARGS = ["--width", "4", "--height", "2", "--depth", "2", "--seed", "5",
              "--opening", "1 0.8 2 1.6 window",
              "--opening", "2.4 0.2 3.2 1.6 door"]


@pytest.fixture(scope="session")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert cli.main(["synth", "--out", str(out)] + SCENE_ARGS) == 0
    return out


@pytest.fixture(scope="session")
def artifacts_dir(scene_dir):
    assert cli.main(["pipeline", "--config", str(scene_dir / "scene.cfg")]) == 0
    return scene_dir / "artifacts"


# ---------------------------------------------------------------------------
# config file handling

def test_config_reader_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nrays = r.txt  # trailing\n key = spaced \n")
    assert textio.key_values(path) == {"rays": "r.txt", "key": "spaced"}


def test_config_reader_rejects_missing_equals(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("rays r.txt\n")
    with pytest.raises(ParseError, match="expected 'key = value'"):
        textio.key_values(path)


def test_config_reader_rejects_duplicates(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("rays = a\nrays = b\n")
    with pytest.raises(ParseError, match="duplicate"):
        textio.key_values(path)


def test_config_reader_missing_file():
    with pytest.raises(IoError):
        textio.key_values("/nonexistent/config.cfg")


BASE = {"rays": "r.txt", "solid": "s.txt", "out_dir": "out"}


def test_build_config_resolves_paths_against_base_dir():
    config = cli.build_config(dict(BASE), "/data/run7")
    assert config.rays == os.path.normpath("/data/run7/r.txt")
    assert config.out_dir == os.path.normpath("/data/run7/out")
    assert config.points is None


def test_build_config_splits_faces():
    config = cli.build_config(dict(BASE, faces="wall_front wall_back"), ".")
    assert config.faces == ("wall_front", "wall_back")


def test_build_config_routes_numeric_blocks():
    raw = dict(BASE, voxel_size="0.2", sigma_state="1.5", p_high="0.8",
               depth="0.25", samples="100")
    config = cli.build_config(raw, ".")
    assert config.occupancy.voxel_size == 0.2
    assert config.uncertainty.sigma_state == 1.5
    assert config.extraction.p_high == 0.8
    assert config.depth == 0.25
    assert config.samples == 100


def test_build_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        cli.build_config(dict(BASE, banana="1"), ".")


def test_build_config_bad_number():
    with pytest.raises(ConfigError, match="bad value"):
        cli.build_config(dict(BASE, voxel_size="tiny"), ".")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_build_config_non_finite_number(value):
    with pytest.raises(ConfigError, match="must be finite"):
        cli.build_config(dict(BASE, voxel_size=value), ".")


def test_non_finite_option_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["raycast", "--rays", "r.txt", "--solid", "s.txt", "--out", "t.txt",
                  "--vs", "nan"])
    assert exc.value.code == 2
    assert "--vs" in capsys.readouterr().err


def test_build_config_wraps_module_validation():
    with pytest.raises(ConfigError, match="voxel"):
        cli.build_config(dict(BASE, voxel_size="-1"), ".")


def test_build_config_missing_required_key():
    with pytest.raises(ConfigError, match="incomplete config"):
        cli.build_config({"solid": "s.txt", "out_dir": "o"}, ".")


def test_pipeline_config_pairs_image_with_correspondences():
    with pytest.raises(ConfigError, match="together"):
        cli.PipelineConfig(rays="r", solid="s", out_dir="o", image="i.txt")


@pytest.mark.parametrize("key", ["gt_measured", "gt_model"])
def test_pipeline_config_needs_gt_instances(key):
    with pytest.raises(ConfigError, match="need gt_instances"):
        cli.PipelineConfig(rays="r", solid="s", out_dir="o", **{key: "x.txt"})


def test_pipeline_config_derived_defaults():
    config = cli.PipelineConfig(rays="r", solid="s", out_dir="o")
    assert config.raster_cell == config.occupancy.voxel_size
    assert config.cut_margin == config.raster_cell
    custom = cli.PipelineConfig(rays="r", solid="s", out_dir="o",
                                cell=0.04, margin=0.3)
    assert custom.raster_cell == 0.04
    assert custom.cut_margin == 0.3


@pytest.mark.parametrize("kwargs", [
    dict(depth=0.0),
    dict(iou_min=0.0),
    dict(iou_min=1.5),
    dict(cell=-0.1),
    dict(band=0.0),
    dict(margin=-0.5),
    dict(samples=0),
])
def test_pipeline_config_rejects_bad_numbers(kwargs):
    with pytest.raises(ConfigError):
        cli.PipelineConfig(rays="r", solid="s", out_dir="o", **kwargs)


# ---------------------------------------------------------------------------
# synth subcommand

def test_synth_writes_scene_and_config(scene_dir):
    for name in ("solid.txt", "rays.txt", "points.txt", "image.txt",
                 "correspondences.txt", "gt_instances.txt", "gt_measured.txt",
                 "scene.cfg"):
        assert (scene_dir / name).exists(), name
    gt = read_instances(scene_dir / "gt_instances.txt")
    assert sorted(i.label for i in gt) == ["door", "window"]


def test_synth_covered_opening_drops_out_of_measured(tmp_path):
    rc = cli.main(["synth", "--out", str(tmp_path), "--width", "4",
                   "--height", "2",
                   "--opening", "1 0.5 2 1.5 window covered",
                   "--opening", "2.5 0.5 3.5 1.5 window"])
    assert rc == 0
    assert len(read_instances(tmp_path / "gt_instances.txt")) == 2
    assert len(read_instances(tmp_path / "gt_measured.txt")) == 1


def test_parse_opening_accepts_commas():
    opening = cli._parse_opening("1,0.5,2,1.5,door")
    assert opening.rect == (1.0, 0.5, 2.0, 1.5)
    assert opening.label == "door" and not opening.covered


def test_parse_opening_covered_flag():
    assert cli._parse_opening("1 1 2 2 window covered").covered


@pytest.mark.parametrize("text", ["1 2 3 window", "1 2 3 4 window extra",
                                  "a b c d window", "1 2 3 4 window shut"])
def test_parse_opening_rejects_garbage(text):
    with pytest.raises(ConfigError):
        cli._parse_opening(text)


def test_synth_bad_opening_exits_2(tmp_path, capsys):
    rc = cli.main(["synth", "--out", str(tmp_path), "--opening", "nope"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["--image-cell", "30"], "image_cell 30.0 leaves no cell across the width 10.0"),
    (["--pitch", "9"], "pitch 9.0 leaves no cell across the height 4.0"),
    (["--seed", "-1"], "seed must be non-negative, got -1"),
])
def test_synth_step_leaving_no_cell_exits_2_before_writing(tmp_path, capsys,
                                                           argv, what):
    out = tmp_path / "scene"
    assert cli.main(["synth", "--out", str(out)] + argv) == 2
    assert capsys.readouterr().err == f"error: synth: {what}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, what", [
    (["--pitch", "1e-9"], "a scan of 40000000000000000000 rays and an image of "
                          "16000 pixels take 1440000000000000064000 bytes at least"),
    (["--image-cell", "1e-9"], "a scan of 16000 rays and an image of "
                               "40000000000000000000 pixels take "
                               "160000000000000576000 bytes at least"),
])
def test_synth_scene_beyond_the_free_disk_exits_2_before_writing(tmp_path, capsys,
                                                                 argv, what):
    out = tmp_path / "scene"
    assert cli.main(["synth", "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: synth: {what}; {tmp_path} has ")
    assert err.endswith(" free\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# pipeline subcommand

def test_pipeline_writes_every_artifact(artifacts_dir):
    for name in ("tree.txt", "conflict_wall_front.txt",
                 "points_wall_front.txt", "texture_wall_front.txt",
                 "posterior_wall_front.txt", "instances.txt", "model.txt",
                 "model.gml", "metrics.txt", "report.txt"):
        assert (artifacts_dir / name).exists(), name


def test_pipeline_recovers_the_scene(artifacts_dir):
    metrics = read_metrics(artifacts_dir / "metrics.txt")
    assert metrics["DA"] == 100 and metrics["FA"] == 0 and metrics["DM"] == 100
    assert metrics["median_iou"] > 95.0
    assert metrics["watertight"] is True
    assert metrics["rms_deviation"] < 0.01
    instances = read_instances(artifacts_dir / "instances.txt")
    assert sorted(i.label for i in instances) == ["door", "window"]
    model = read_model(artifacts_dir / "model.txt")
    assert len(model.placements) == 2


def test_pipeline_report_is_readable(artifacts_dir):
    text = (artifacts_dir / "report.txt").read_text()
    assert "evaluation summary" in text
    assert "watertight" in text and "yes" in text


def test_pipeline_out_dir_override(scene_dir, tmp_path):
    # a relative --out-dir resolves against the config file, as out_dir does
    raw = textio.key_values(scene_dir / "scene.cfg")
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("".join(f"{key} = {scene_dir / value}\n"
                           for key, value in raw.items()
                           if key not in ("faces", "out_dir")))
    rc = cli.main(["pipeline", "--config", str(cfg), "--out-dir", "redirected"])
    assert rc == 0
    assert (tmp_path / "redirected" / "model.gml").exists()
    assert not (scene_dir / "redirected").exists()


def test_pipeline_flag_overrides(scene_dir, tmp_path):
    rc = cli.main(["pipeline", "--config", str(scene_dir / "scene.cfg"),
                   "--out-dir", str(tmp_path / "o"),
                   "--vs", "0.2", "--p-high", "0.99999"])
    assert rc == 0
    tree = read_tree(tmp_path / "o" / "tree.txt")
    assert tree.config.voxel_size == 0.2
    # threshold set impossibly high: nothing survives extraction
    assert read_instances(tmp_path / "o" / "instances.txt") == []
    metrics = read_metrics(tmp_path / "o" / "metrics.txt")
    assert metrics["DA"] == 0 and metrics["TP"] == 0


def test_pipeline_without_points_cuts_the_demo_scene(tmp_path):
    # without points the seed-7 scene's right window is extracted as
    # rects that share an edge: merged, they cut a watertight model
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "7"]) == 0
    cfg = tmp_path / "no_points.cfg"
    cfg.write_text("".join(
        line for line in (tmp_path / "scene.cfg").read_text().splitlines(keepends=True)
        if not line.startswith("points")))
    assert cli.main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert read_metrics(tmp_path / "out" / "metrics.txt")["watertight"] is True


def test_pipeline_and_evaluate_score_the_openings_the_model_cuts(tmp_path, capsys):
    # without points the seed-7 scene's right window is extracted as three
    # touching rects, which the model cuts as the ground-truth rect; both
    # scorers count it as one detection
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "7"]) == 0
    cfg = tmp_path / "no_points.cfg"
    cfg.write_text("".join(
        line for line in (tmp_path / "scene.cfg").read_text().splitlines(keepends=True)
        if not line.startswith("points")))
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert len(read_instances(out / "instances.txt")) == 5
    metrics = read_metrics(out / "metrics.txt")
    assert [metrics[k] for k in ("D", "TP", "FP", "DA")] == [3, 3, 0, 100]
    # the pipeline's ground-truth model: the truth cut with no margin
    assert cli.main(["reconstruct", "--solid", str(tmp_path / "solid.txt"),
                     "--instances", str(tmp_path / "gt_instances.txt"),
                     "--margin", "0", "--out-model", str(tmp_path / "gt_model.txt"),
                     "--out-gml", str(tmp_path / "gt_model.gml")]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", "--pred", str(out / "instances.txt"),
                     "--gt", str(tmp_path / "gt_instances.txt"),
                     "--measured", str(tmp_path / "gt_measured.txt"),
                     "--model", str(out / "model.txt"),
                     "--gt-model", str(tmp_path / "gt_model.txt"),
                     "--out", str(tmp_path / "metrics.txt")]) == 0
    assert capsys.readouterr().out == (out / "report.txt").read_text()
    assert read_metrics(tmp_path / "metrics.txt") == metrics


def test_pipeline_with_only_covered_openings_leaves_dm_out(tmp_path):
    # no opening was measured by the laser: DM has no denominator
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "7",
                     "--opening", "2 2 3.2 3 window covered"]) == 0
    assert cli.main(["pipeline", "--config", str(tmp_path / "scene.cfg")]) == 0
    metrics = read_metrics(tmp_path / "artifacts" / "metrics.txt")
    assert (metrics["MO"], metrics["TP"], metrics["DA"]) == (0, 1, 100)
    assert "DM" not in metrics
    report = (tmp_path / "artifacts" / "report.txt").read_text().splitlines()
    assert not [line for line in report if line.split()[0] == "DM"]


def test_wall_without_openings_leaves_da_and_median_iou_out(tmp_path, capsys):
    # no opening exists: DA and the median IoU have no denominator, so
    # the pipeline and `evaluate` against the empty truth report the rest
    paths = synth_scene(SceneSpec(openings=(), seed=7), tmp_path)
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("".join(f"{key} = {path}\n" for key, path in paths.items())
                   + f"faces = {FRONT_FACE}\nout_dir = artifacts\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 0
    out = tmp_path / "artifacts"
    metrics = read_metrics(out / "metrics.txt")
    assert (metrics["AO"], metrics["MO"], metrics["TP"]) == (0, 0, 0)
    assert {"FA", "rms_deviation", "watertight"} <= set(metrics)
    assert not {"DA", "DM", "median_iou", "median_iou_matched"} & set(metrics)
    report = (out / "report.txt").read_text().splitlines()
    assert not [line for line in report if line.split()[0] in ("DA", "median_iou")]
    capsys.readouterr()
    assert cli.main(["evaluate", "--pred", str(out / "instances.txt"),
                     "--gt", paths["gt_instances"],
                     "--out", str(tmp_path / "metrics.txt")]) == 0
    scored = read_metrics(tmp_path / "metrics.txt")
    assert list(scored) == ["AO", "MO", "D", "TP", "FP", "FN", "FA"]


def test_pipeline_missing_rays_names_stage(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "gone.cfg"
    cfg.write_text(f"rays = missing.txt\nsolid = {scene_dir}/solid.txt\n"
                   f"out_dir = {tmp_path}/out\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    # the failing pipeline stage, not the subcommand, leads the line
    assert err.startswith("error: raycast: ") and "missing.txt" in err


def test_pipeline_missing_points_names_stage(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"rays = {scene_dir}/rays.txt\n"
                   f"solid = {scene_dir}/solid.txt\n"
                   f"points = nowhere.txt\nout_dir = {tmp_path}/out\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert "project-points" in capsys.readouterr().err


def test_raycast_keeps_the_surface_voxels_of_its_faces(scene_dir, artifacts_dir,
                                                      tmp_path):
    tree = tmp_path / "tree.txt"
    base = ["raycast", "--rays", str(scene_dir / "rays.txt"),
            "--solid", str(scene_dir / "solid.txt"), "--out", str(tree)]
    assert cli.main(base) == 0
    walls = read_tree(tree)
    assert walls.faces == ("wall_front", "wall_right", "wall_back", "wall_left")
    assert cli.main(base + ["--face", "wall_front", "--face", "roof"]) == 0
    both = read_tree(tree)
    assert both.faces == ("wall_front", "roof")
    assert cli.main(base + ["--face", "wall_front"]) == 0
    assert tree.read_bytes() == (artifacts_dir / "tree.txt").read_bytes()
    # each voxel reached keeps the same values whichever faces it serves
    front = read_tree(tree)
    for other in (walls, both):
        rows = other.find(front.keys)
        assert (rows >= 0).all()
        assert other.log_odds[rows].tolist() == front.log_odds.tolist()
        assert other.pass_dist[rows].tolist() == front.pass_dist.tolist()


def test_raycast_unknown_face_exits_2(scene_dir, tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    assert cli.main(["raycast", "--rays", str(scene_dir / "rays.txt"),
                     "--solid", str(scene_dir / "solid.txt"),
                     "--face", "wall_nope", "--out", str(tree)]) == 2
    assert capsys.readouterr().err == (
        "error: raycast: solid has no face 'wall_nope'\n")
    assert not tree.exists()


def test_conflicts_on_a_face_the_tree_does_not_cover_exits_2(
        scene_dir, artifacts_dir, tmp_path, capsys):
    tree, out = artifacts_dir / "tree.txt", tmp_path / "conflict.txt"
    assert cli.main(["conflicts", "--tree", str(tree),
                     "--solid", str(scene_dir / "solid.txt"),
                     "--face", "wall_back", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: conflicts: {tree}: built for faces wall_front, "
        f"not 'wall_back'\n")
    assert not out.exists()


def test_pipeline_unknown_face_exits_2(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"rays = {scene_dir}/rays.txt\n"
                   f"solid = {scene_dir}/solid.txt\n"
                   f"faces = wall_nope\nout_dir = {tmp_path}/out\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert "wall_nope" in capsys.readouterr().err


def test_pipeline_non_positive_max_range_exits_2(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"rays = {scene_dir}/rays.txt\n"
                   f"solid = {scene_dir}/solid.txt\n"
                   f"max_range = -1\nout_dir = {tmp_path}/out\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert "max_range must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["gt_measured", "gt_model"])
def test_pipeline_ground_truth_without_instances_exits_2(scene_dir, tmp_path,
                                                         capsys, key):
    # the scene's gt_measured.txt also reads as a model file name: the
    # config is rejected before any file is read
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"rays = {scene_dir}/rays.txt\n"
                   f"solid = {scene_dir}/solid.txt\n"
                   f"{key} = {scene_dir}/gt_measured.txt\n"
                   f"out_dir = {tmp_path}/out\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert "need gt_instances" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["gt_instances", "gt_measured"])
def test_pipeline_ground_truth_on_a_missing_face_exits_2(scene_dir, tmp_path,
                                                         capsys, key):
    nope = tmp_path / "nope.txt"
    nope.write_text((scene_dir / f"{key}.txt").read_text()
                    .replace("face=wall_front", "face=wall_nope"))
    gt = {k: scene_dir / f"{k}.txt" for k in ("gt_instances", "gt_measured")}
    gt[key] = nope
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"rays = {scene_dir}/rays.txt\nsolid = {scene_dir}/solid.txt\n"
                   + "".join(f"{k} = {v}\n" for k, v in gt.items())
                   + f"out_dir = {tmp_path}/out\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: evaluate: {nope}: instance references unknown face "
        "'wall_nope'\n")


def test_pipeline_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("rays = r\nsolid = s\nout_dir = o\nbogus = 1\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stage subcommands

def test_stage_chain_matches_pipeline(scene_dir, artifacts_dir, tmp_path):
    # every stage on its defaults writes what the pipeline writes
    d = str(tmp_path)
    s = str(scene_dir)
    face = ["--solid", f"{s}/solid.txt", "--face", "wall_front"]
    steps = [
        ["raycast", "--rays", f"{s}/rays.txt", *face, "--out", f"{d}/tree.txt"],
        ["conflicts", "--tree", f"{d}/tree.txt", *face,
         "--out", f"{d}/conflict_wall_front.txt"],
        ["project-points", "--points", f"{s}/points.txt", *face,
         "--out", f"{d}/points_wall_front.txt"],
        ["project-image", "--image", f"{s}/image.txt",
         "--correspondences", f"{s}/correspondences.txt", *face,
         "--out", f"{d}/texture_wall_front.txt"],
        ["fuse", "--conflict", f"{d}/conflict_wall_front.txt",
         "--pc", f"{d}/points_wall_front.txt",
         "--tex", f"{d}/texture_wall_front.txt",
         "--out", f"{d}/posterior_wall_front.txt"],
        ["extract", "--posterior", f"{d}/posterior_wall_front.txt",
         "--pc", f"{d}/points_wall_front.txt",
         "--tex", f"{d}/texture_wall_front.txt", "--face", "wall_front",
         "--out", f"{d}/instances.txt"],
        ["reconstruct", "--solid", f"{s}/solid.txt",
         "--instances", f"{d}/instances.txt",
         "--out-model", f"{d}/model.txt", "--out-gml", f"{d}/model.gml"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    for name in ("tree.txt", "conflict_wall_front.txt", "points_wall_front.txt",
                 "texture_wall_front.txt", "posterior_wall_front.txt",
                 "instances.txt", "model.txt", "model.gml"):
        assert (tmp_path / name).read_bytes() == \
            (artifacts_dir / name).read_bytes(), name


def test_evaluate_subcommand_writes_metrics(scene_dir, artifacts_dir,
                                            tmp_path, capsys):
    out = tmp_path / "m.txt"
    rc = cli.main(["evaluate", "--pred", str(artifacts_dir / "instances.txt"),
                   "--gt", str(scene_dir / "gt_instances.txt"),
                   "--measured", str(scene_dir / "gt_measured.txt"),
                   "--out", str(out)])
    assert rc == 0
    assert "evaluation summary" in capsys.readouterr().out
    metrics = read_metrics(out)
    assert metrics["DA"] == 100 and metrics["FP"] == 0


def test_evaluate_with_models_reports_surface_metrics(scene_dir,
                                                      artifacts_dir,
                                                      tmp_path):
    gt_model = tmp_path / "gt_model.txt"
    rc = cli.main(["reconstruct", "--solid", str(scene_dir / "solid.txt"),
                   "--instances", str(scene_dir / "gt_instances.txt"),
                   "--margin", "0.1",
                   "--out-model", str(gt_model),
                   "--out-gml", str(tmp_path / "gt.gml")])
    assert rc == 0
    out = tmp_path / "m.txt"
    rc = cli.main(["evaluate", "--pred", str(artifacts_dir / "instances.txt"),
                   "--gt", str(scene_dir / "gt_instances.txt"),
                   "--model", str(artifacts_dir / "model.txt"),
                   "--gt-model", str(gt_model), "--samples", "500",
                   "--out", str(out)])
    assert rc == 0
    metrics = read_metrics(out)
    assert metrics["watertight"] is True
    assert metrics["rms_deviation"] < 0.01


def test_evaluate_one_sample_equals_the_reference(scene_dir, artifacts_dir,
                                                 tmp_path):
    # a single sample point takes one-row products, as the reference does;
    # up to eight, each count's lattice points are scored alike
    gt_model = tmp_path / "gt_model.txt"
    assert cli.main(["reconstruct", "--solid", str(scene_dir / "solid.txt"),
                     "--instances", str(scene_dir / "gt_instances.txt"),
                     "--margin", "0.1", "--out-model", str(gt_model),
                     "--out-gml", str(tmp_path / "gt.gml")]) == 0
    tris = triangulate_model(read_model(artifacts_dir / "model.txt"))
    out = tmp_path / "m.txt"
    for count in range(1, 9):
        assert cli.main(["evaluate", "--pred", str(artifacts_dir / "instances.txt"),
                         "--gt", str(scene_dir / "gt_instances.txt"),
                         "--model", str(artifacts_dir / "model.txt"),
                         "--gt-model", str(gt_model), "--samples", str(count),
                         "--out", str(out)]) == 0
        metrics = read_metrics(out)
        sample = sample_model_points(read_model(gt_model), count)
        assert (metrics["mean_deviation"], metrics["rms_deviation"]) == \
            oracles.mesh_deviation(sample, tris)


# finite coordinates whose areas overflow to inf and whose sums of
# inf and -inf are nan
HUGE_BOX = ((0.0, 0.0, 0.0), (1e160, 2e160, 3e160))


@pytest.mark.filterwarnings("error")   # numpy's overflow warnings included
def test_evaluate_model_with_overflowing_areas_exits_2(scene_dir, artifacts_dir,
                                                      tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    write_solid(box_solid("b", *HUGE_BOX), huge)
    out = tmp_path / "m.txt"
    rc = cli.main(["evaluate", "--pred", str(artifacts_dir / "instances.txt"),
                   "--gt", str(scene_dir / "gt_instances.txt"),
                   "--model", str(huge), "--gt-model", str(huge),
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: evaluate: {huge}: invalid model: face wall_front: area, "
        f"normal or plane offset is not finite\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["raycast", "reconstruct", "pipeline"])
def test_prior_with_overflowing_products_exits_2(scene_dir, tmp_path, capsys,
                                                 command):
    huge = tmp_path / "huge.txt"
    write_solid(box_solid("b", *HUGE_BOX), huge)
    raw = textio.key_values(scene_dir / "scene.cfg")
    config = tmp_path / "scene.cfg"
    config.write_text("".join(
        f"{key} = {huge if key == 'solid' else scene_dir / value}\n"
        for key, value in raw.items() if key != "out_dir"))
    argv = {"raycast": ["--rays", str(scene_dir / "rays.txt"), "--solid", str(huge),
                        "--out", str(tmp_path / "tree.txt")],
            "reconstruct": ["--solid", str(huge),
                            "--instances", str(scene_dir / "gt_instances.txt"),
                            "--out-model", str(tmp_path / "m.txt"),
                            "--out-gml", str(tmp_path / "m.gml")],
            "pipeline": ["--config", str(config), "--out-dir", str(tmp_path / "out")]}
    assert cli.main([command, *argv[command]]) == 2
    stage = "prior" if command == "pipeline" else command
    assert capsys.readouterr().err == (
        f"error: {stage}: {huge}: invalid prior: face wall_front: area, "
        f"normal or plane offset is not finite\n")
    assert {p.name for p in tmp_path.rglob("*") if p.is_file()} == {"huge.txt",
                                                                    "scene.cfg"}


@pytest.mark.parametrize("flag", ["--model", "--gt-model"])
def test_evaluate_half_a_model_pair_exits_2(scene_dir, artifacts_dir,
                                            tmp_path, capsys, flag):
    out = tmp_path / "m.txt"
    rc = cli.main(["evaluate", "--pred", str(artifacts_dir / "instances.txt"),
                   "--gt", str(scene_dir / "gt_instances.txt"),
                   flag, str(artifacts_dir / "model.txt"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: evaluate: --model and --gt-model must be given together\n")
    assert not out.exists()


def test_extract_on_synthetic_posterior(tmp_path):
    solid = box_solid("b", (0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
    frame = facade_frame(solid.face("wall_front"), 0.1)
    raster = FacadeRaster.zeros(frame, ("opening",))
    raster.data[5:15, 5:15, 0] = 0.9
    write_raster(raster, tmp_path / "post.txt")
    rc = cli.main(["extract", "--posterior", str(tmp_path / "post.txt"),
                   "--face", "wall_front", "--out", str(tmp_path / "i.txt")])
    assert rc == 0
    instances = read_instances(tmp_path / "i.txt")
    assert len(instances) == 1
    assert instances[0].rect == (0.5, 0.5, 1.5, 1.5)
    assert instances[0].label == "window"


@pytest.mark.parametrize("flag, face, cell", [("--pc", "wall_front", "0.2"),
                                              ("--tex", "wall_back", "0.1")],
                         ids=["another-cell", "another-face"])
def test_extract_with_a_raster_of_another_frame_exits_1(
        scene_dir, artifacts_dir, tmp_path, capsys, flag, face, cell):
    # wall_back is as large as wall_front: its raster has the same size
    raster = tmp_path / "points.txt"
    assert cli.main(["project-points", "--points", str(scene_dir / "points.txt"),
                     "--solid", str(scene_dir / "solid.txt"), "--face", face,
                     "--cell", cell, "--out", str(raster)]) == 0
    capsys.readouterr()
    out = tmp_path / "i.txt"
    assert cli.main(["extract", "--posterior",
                     str(artifacts_dir / "posterior_wall_front.txt"),
                     flag, str(raster), "--face", "wall_front",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: extract: rasters do not share one facade frame\n")
    assert not out.exists()


def test_extract_requires_a_face(artifacts_dir, tmp_path, capsys):
    out = tmp_path / "i.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["extract", "--posterior",
                  str(artifacts_dir / "posterior_wall_front.txt"),
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "--face" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("face", ["wall_nopewall_front", ""],
                         ids=["unknown", "empty"])
def test_reconstruct_instance_on_a_missing_face_exits_2(
        scene_dir, artifacts_dir, tmp_path, capsys, face):
    instances = tmp_path / "instances.txt"
    instances.write_text((artifacts_dir / "instances.txt").read_text()
                         .replace("face=wall_front", f"face={face}"))
    model = tmp_path / "model.txt"
    rc = cli.main(["reconstruct", "--solid", str(scene_dir / "solid.txt"),
                   "--instances", str(instances), "--out-model", str(model),
                   "--out-gml", str(tmp_path / "model.gml")])
    assert rc == 2
    err = capsys.readouterr().err
    if face:
        assert err == (f"error: reconstruct: {instances}: instance references "
                       f"unknown face {face!r}\n")
    else:
        assert err == f"error: reconstruct: {instances}:2: empty face id\n"
    assert not model.exists()


def test_fuse_without_rasters_exits_2(tmp_path, capsys):
    rc = cli.main(["fuse", "--out", str(tmp_path / "x.txt")])
    assert rc == 2
    assert "at least one" in capsys.readouterr().err


# each option names a PipelineConfig field and takes its range rule
OUT_OF_RANGE = [
    ("conflicts", "--cell", "0"),
    ("conflicts", "--cell", "-1"),
    ("project-points", "--cell", "0"),
    ("project-points", "--band", "-1"),
    ("project-image", "--cell", "0"),
    ("evaluate", "--iou-min", "0"),
    ("evaluate", "--iou-min", "2"),
    ("evaluate", "--samples", "0"),
    ("reconstruct", "--depth", "0"),
    ("reconstruct", "--depth", "-1"),
    ("reconstruct", "--margin", "-1"),
]


@pytest.mark.parametrize("stage, flag, value", OUT_OF_RANGE,
                         ids=[f"{s}{f}={v}" for s, f, v in OUT_OF_RANGE])
def test_out_of_range_option_exits_2(scene_dir, artifacts_dir, tmp_path,
                                     capsys, stage, flag, value):
    out = tmp_path / "out.txt"
    face = ["--solid", str(scene_dir / "solid.txt"), "--face", "wall_front",
            "--out", str(out)]
    inputs = {
        "conflicts": ["--tree", str(artifacts_dir / "tree.txt"), *face],
        "project-points": ["--points", str(scene_dir / "points.txt"), *face],
        "project-image": ["--image", str(scene_dir / "image.txt"),
                          "--correspondences",
                          str(scene_dir / "correspondences.txt"), *face],
        # a same-face prediction that overlaps nothing
        "evaluate": ["--pred", str(tmp_path / "pred.txt"),
                     "--gt", str(scene_dir / "gt_instances.txt"),
                     "--model", str(artifacts_dir / "model.txt"),
                     "--gt-model", str(artifacts_dir / "model.txt"),
                     "--out", str(out)],
        "reconstruct": ["--solid", str(scene_dir / "solid.txt"),
                        "--instances", str(artifacts_dir / "instances.txt"),
                        "--out-model", str(out),
                        "--out-gml", str(tmp_path / "m.gml")],
    }
    write_instances([OpeningInstance("wall_front", (8.0, 0.2, 9.0, 1.0),
                                     "window", 0.9)], tmp_path / "pred.txt")
    with pytest.raises(SystemExit) as exc:
        cli.main([stage, *inputs[stage], flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_evaluate_empty_inputs_report_the_counts(tmp_path, capsys):
    # nothing to find and nothing found: only the counts and FA remain
    empty = tmp_path / "none.txt"
    write_instances([], empty)
    rc = cli.main(["evaluate", "--pred", str(empty), "--gt", str(empty)])
    assert rc == 0
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()[2:]] == [
        "AO", "MO", "D", "TP", "FP", "FN", "FA"]
    assert not err


def test_conflicts_unknown_face_exits_2(scene_dir, artifacts_dir,
                                        tmp_path, capsys):
    rc = cli.main(["conflicts", "--tree", str(artifacts_dir / "tree.txt"),
                   "--solid", str(scene_dir / "solid.txt"),
                   "--face", "wall_zzz", "--out", str(tmp_path / "c.txt")])
    assert rc == 2
    assert "wall_zzz" in capsys.readouterr().err


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_main_reuses_one_parser_without_carrying_options(scene_dir, tmp_path):
    # a repeatable option given to one call is not the next call's default
    tree = tmp_path / "tree.txt"
    base = ["raycast", "--rays", str(scene_dir / "rays.txt"),
            "--solid", str(scene_dir / "solid.txt"), "--out", str(tree)]
    assert cli.main(base + ["--face", "wall_front", "--vs", "0.2"]) == 0
    built = cli._parser.cache_info().misses
    assert read_tree(tree).faces == ("wall_front",)
    assert cli.main(base) == 0
    assert cli._parser.cache_info().misses == built == 1
    again = read_tree(tree)
    assert again.faces == ("wall_front", "wall_right", "wall_back", "wall_left")
    assert again.config.voxel_size == OccupancyConfig().voxel_size


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "lod3recon.cli",
                           "raycast", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--vs" in proc.stdout


# ---------------------------------------------------------------------------
# one definition per default: config dataclasses -> keys and options

STAGE_REQUIRED = {
    "raycast": ["--rays", "r.txt", "--solid", "s.txt", "--out", "t.txt"],
    "conflicts": ["--tree", "t.txt", "--solid", "s.txt", "--face", "f",
                  "--out", "c.txt"],
    "extract": ["--posterior", "p.txt", "--face", "f", "--out", "i.txt"],
    "evaluate": ["--pred", "p.txt", "--gt", "g.txt"],
}


@pytest.mark.parametrize("cls, block, stage", [
    (OccupancyConfig, "occupancy", "raycast"),
    (UncertaintyConfig, "uncertainty", "conflicts"),
    (ExtractionConfig, "extraction", "extract"),
])
def test_config_fields_are_keys_and_stage_options(cls, block, stage):
    args = cli.build_parser().parse_args([stage] + STAGE_REQUIRED[stage])
    for f in fields(cls):
        assert getattr(args, f.name) == f.default, f.name
        config = cli.build_config(dict(BASE, **{f.name: str(f.default)}), ".")
        assert getattr(getattr(config, block), f.name) == f.default, f.name


def test_config_key_namespace_is_flat():
    names = [f.name for cls in (cli.PipelineConfig, OccupancyConfig,
                                UncertaintyConfig, ExtractionConfig)
             for f in fields(cls)]
    assert len(names) == len(set(names))


# keys and options of the rectangularity percentile band, of the
# conflict stage's mean aggregation and sigmas in meters, and of the
# model sampler's seed, all removed
@pytest.mark.parametrize("key, value", [
    ("pe_lo", "5"), ("pe_up", "95"), ("aggregate", "max"),
    ("sigma_in_meters", "false"), ("sample_seed", "0"),
])
def test_removed_config_key_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "k.cfg"
    cfg.write_text(f"rays = r\nsolid = s\nout_dir = o\n{key} = {value}\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"unknown config key {key!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("stage, flag, value", [
    ("extract", "--pe-lo", "5"), ("extract", "--pe-up", "95"),
    ("pipeline", "--pe-lo", "5"), ("pipeline", "--pe-up", "95"),
    ("conflicts", "--aggregate", "max"),
    ("conflicts", "--sigma-in-meters", "false"),
    ("evaluate", "--seed", "0"),
])
def test_removed_option_exits_2(capsys, stage, flag, value):
    required = STAGE_REQUIRED.get(stage, ["--config", "c.cfg"])
    with pytest.raises(SystemExit) as exc:
        cli.main([stage, *required, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, flag, value", [
    ("raycast", "--vs", "-1"),
    ("raycast", "--max-range", "0"),
    ("raycast", "--max-range", "-1"),
    ("conflicts", "--sigma-position", "0"),
    ("extract", "--p-high", "2"),
])
def test_bad_stage_config_value_exits_2(scene_dir, artifacts_dir, tmp_path,
                                        capsys, stage, flag, value):
    inputs = {
        "raycast": ["--rays", str(scene_dir / "rays.txt"),
                    "--solid", str(scene_dir / "solid.txt")],
        "conflicts": ["--tree", str(artifacts_dir / "tree.txt"),
                      "--solid", str(scene_dir / "solid.txt"),
                      "--face", "wall_front"],
        "extract": ["--posterior",
                    str(artifacts_dir / "posterior_wall_front.txt"),
                    "--face", "wall_front"],
    }
    out = tmp_path / "out.txt"
    rc = cli.main([stage, *inputs[stage], "--out", str(out), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if flag == "--max-range":
        assert "max_range must be positive" in err
    assert not out.exists()


# openings at least two 0.2 m cells from every face edge, so the pipeline's
# one-cell cut margin accepts them at that voxel size
COARSE_SCENE_ARGS = ["--width", "4", "--height", "2.4", "--depth", "2",
                     "--seed", "3",
                     "--opening", "0.8 0.8 1.8 1.6 window",
                     "--opening", "2.4 0.6 3.2 1.8 window"]


def test_stage_defaults_follow_tree_voxel_size(tmp_path):
    scene = tmp_path / "scene"
    assert cli.main(["synth", "--out", str(scene)] + COARSE_SCENE_ARGS) == 0
    assert cli.main(["pipeline", "--config", str(scene / "scene.cfg"),
                     "--vs", "0.2"]) == 0
    tree, raster = tmp_path / "tree.txt", tmp_path / "conflict.txt"
    assert cli.main(["raycast", "--rays", str(scene / "rays.txt"),
                     "--solid", str(scene / "solid.txt"),
                     "--out", str(tree), "--vs", "0.2"]) == 0
    assert cli.main(["conflicts", "--tree", str(tree),
                     "--solid", str(scene / "solid.txt"),
                     "--face", "wall_front", "--out", str(raster)]) == 0
    piped = scene / "artifacts" / "conflict_wall_front.txt"
    assert raster.read_bytes() == piped.read_bytes()


def test_reconstruct_default_margin_is_one_cell(tmp_path, capsys):
    solid_path = tmp_path / "s.txt"
    write_solid(box_solid("b", (0.0, 0.0, 0.0), (2.0, 2.0, 2.0)), solid_path)
    inst_path = tmp_path / "i.txt"
    # 0.05 m from the left face edge: inside half a default cell
    write_instances([OpeningInstance("wall_front", (0.05, 0.5, 1.0, 1.5),
                                     "window", 0.9)], inst_path)
    argv = ["reconstruct", "--solid", str(solid_path),
            "--instances", str(inst_path),
            "--out-model", str(tmp_path / "m.txt"),
            "--out-gml", str(tmp_path / "m.gml")]
    assert cli.main(argv) == 1
    assert "boundary" in capsys.readouterr().err
    assert cli.main(argv + ["--margin", "0"]) == 0


# ---------------------------------------------------------------------------
# bad input files

@pytest.mark.parametrize("argv, flag", [
    (["raycast", "--solid", "s.txt", "--out", "tree.txt"], "--rays"),
    (["fuse", "--out", "post.txt"], "--conflict"),
    (["reconstruct", "--instances", "i.txt", "--out-model", "m.txt",
      "--out-gml", "m.gml"], "--solid"),
    (["pipeline"], "--config"),
])
def test_non_utf8_input_exits_2(tmp_path, capsys, argv, flag):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(Path("/bin/ls").read_bytes()[:300])
    argv = [str(tmp_path / a) if a.endswith((".txt", ".gml")) else a
            for a in argv]
    assert cli.main(argv + [flag, str(binary)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "binary.txt" in err
    assert "Traceback" not in err


def test_pipeline_non_finite_ray_exits_2(scene_dir, tmp_path, capsys):
    rays = tmp_path / "rays.txt"
    rays.write_text((scene_dir / "rays.txt").read_text()
                    + "0 0 nan 1 1 1 1\n")
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"rays = {rays}\nsolid = {scene_dir}/solid.txt\n"
                   f"out_dir = {tmp_path}/out\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert "raycast" in capsys.readouterr().err


def _inverted(solid):
    return BuildingSolid(solid.solid_id, solid.lod, tuple(
        Face(f.face_id, f.label, Ring(f.outer.points[::-1]))
        for f in solid.faces))


def _without_ground(solid):
    return BuildingSolid(solid.solid_id, solid.lod, tuple(
        f for f in solid.faces if f.label != "ground"))


def _comma_id(solid):
    # a tree built for it could not name the face in its header
    return BuildingSolid(solid.solid_id, solid.lod, tuple(
        Face(f.face_id.replace("roof", "roof,a"), f.label, f.outer)
        for f in solid.faces))


def _window_roof(solid):
    # an opening label names no surface of the prior
    return BuildingSolid(solid.solid_id, solid.lod, tuple(
        Face(f.face_id, "window" if f.face_id == "roof" else f.label, f.outer)
        for f in solid.faces))


@pytest.mark.parametrize("stage", ["pipeline", "conflicts", "project-points",
                                   "project-image", "reconstruct", "raycast"])
@pytest.mark.parametrize("broken, fragment", [
    (_inverted, "faces inward"), (_without_ground, "unmatched edge"),
    (_comma_id, "face id 'roof,a' contains ','"),
    (_window_roof, "face roof: unknown label 'window'")])
def test_invalid_prior_exits_2(scene_dir, artifacts_dir, tmp_path, capsys,
                               stage, broken, fragment):
    s = str(scene_dir)
    solid = tmp_path / "prior.txt"
    write_solid(broken(box_solid("b", (0.0, 0.0, 0.0), (4.0, 2.0, 2.0))),
                solid)
    face = ["--face", "wall_front", "--out", str(tmp_path / "out.txt")]
    if stage == "pipeline":
        cfg = tmp_path / "prior.cfg"
        cfg.write_text(f"rays = {s}/rays.txt\nsolid = {solid}\n"
                       f"out_dir = {tmp_path}/out\n")
        argv = ["pipeline", "--config", str(cfg)]
    else:
        argv = [stage, "--solid", str(solid), *{
            "raycast": ["--rays", f"{s}/rays.txt", *face],
            "conflicts": ["--tree", str(artifacts_dir / "tree.txt"), *face],
            "project-points": ["--points", f"{s}/points.txt", *face],
            "project-image": ["--image", f"{s}/image.txt",
                              "--correspondences", f"{s}/correspondences.txt",
                              *face],
            "reconstruct": ["--instances", f"{s}/gt_instances.txt",
                            "--out-model", str(tmp_path / "m.txt"),
                            "--out-gml", str(tmp_path / "m.gml")],
        }[stage]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "prior.txt: invalid prior" in err and fragment in err


# ---------------------------------------------------------------------------
# error lines name their stage

@pytest.mark.parametrize("argv, stage", [
    (["raycast", "--rays", "nope.txt", "--solid", "s.txt", "--out", "t.txt"],
     "raycast"),
    (["conflicts", "--tree", "nope.txt", "--solid", "s.txt", "--face", "f",
      "--out", "c.txt"], "conflicts"),
    (["project-points", "--points", "nope.txt", "--solid", "s.txt",
      "--face", "f", "--out", "p.txt"], "project-points"),
    (["fuse", "--conflict", "nope.txt", "--out", "post.txt"], "fuse"),
    (["extract", "--posterior", "nope.txt", "--face", "f", "--out", "i.txt"],
     "extract"),
    (["reconstruct", "--solid", "nope.txt", "--instances", "i.txt",
      "--out-model", "m.txt", "--out-gml", "m.gml"], "reconstruct"),
    (["evaluate", "--pred", "nope.txt", "--gt", "nope.txt"], "evaluate"),
    (["synth", "--out", "scene", "--width", "-1"], "synth"),
    (["pipeline", "--config", "nope.txt"], "pipeline"),
])
def test_subcommand_error_names_its_stage(tmp_path, capsys, argv, stage):
    argv = [str(tmp_path / a) if a.endswith((".txt", ".gml")) or a == "scene"
            else a for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {stage}: ")


# ---------------------------------------------------------------------------
# the occupied threshold belongs to the conflicts stage

def test_conflicts_occupied_threshold_matches_pipeline(scene_dir, artifacts_dir,
                                                       tmp_path):
    raw = textio.key_values(scene_dir / "scene.cfg")
    raw = {key: str(scene_dir / value) for key, value in raw.items()
           if key not in ("faces", "out_dir")}
    raw.update(faces="wall_front", out_dir=str(tmp_path / "out"),
               occupied_threshold="0.9")
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in raw.items()))
    assert cli.main(["pipeline", "--config", str(cfg)]) == 0
    tree, raster = tmp_path / "tree.txt", tmp_path / "conflict.txt"
    assert cli.main(["raycast", "--rays", raw["rays"], "--solid", raw["solid"],
                     "--out", str(tree)]) == 0
    assert cli.main(["conflicts", "--tree", str(tree), "--solid", raw["solid"],
                     "--face", "wall_front", "--out", str(raster),
                     "--occupied-threshold", "0.9"]) == 0
    piped = tmp_path / "out" / "conflict_wall_front.txt"
    assert raster.read_bytes() == piped.read_bytes()
    default = artifacts_dir / "conflict_wall_front.txt"
    assert raster.read_bytes() != default.read_bytes()


# ---------------------------------------------------------------------------
# non-finite numbers are input errors

TEMPLATE_TEXT = ("template pane label=window depth=0\n"
                 "tri 0 0 0  1 0 0  1 1 0\ntri 0 0 0  1 1 0  0 1 0\nend\n")


def _corrupt(source, target, line_no, column, value):
    """Copy `source` to `target` with one token of line `line_no` replaced."""
    lines = Path(source).read_text().splitlines()
    tokens = lines[line_no - 1].split()
    tokens[column] = value
    lines[line_no - 1] = " ".join(tokens)
    Path(target).write_text("\n".join(lines) + "\n")


def _first_evidence_line(tree_path, column):
    """Number of the first voxel line whose distance `column` is finite."""
    lines = Path(tree_path).read_text().splitlines()
    return next(no for no, line in enumerate(lines, 1)
                if no > 1 and line.split()[column] != "inf")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("kind", ["solid", "template", "model",
                                  "correspondences", "raster", "pixel_grid",
                                  "tree", "tree_hit_distance",
                                  "tree_pass_distance", "tree_hit_point",
                                  "tree_pass_point", "instances"])
def test_non_finite_number_exits_2(scene_dir, artifacts_dir, tmp_path, capsys,
                                   kind, value):
    s, a = scene_dir, artifacts_dir
    bad = tmp_path / f"bad_{kind}.txt"
    face = ["--face", "wall_front", "--out", str(tmp_path / "out.txt")]
    reconstruct = ["reconstruct", "--out-model", tmp_path / "m.txt",
                   "--out-gml", tmp_path / "m.gml"]
    gt = s / "gt_instances.txt"
    templates = tmp_path / "templates.txt"
    templates.write_text(TEMPLATE_TEXT)
    model_tri = next(no for no, line in enumerate(
        (a / "model.txt").read_text().splitlines(), 1) if line.startswith("tri"))
    # file to corrupt, (line, column) of the number, and the run reading it
    source, where, argv = {
        "solid": (s / "solid.txt", (3, 1), [*reconstruct, "--solid", bad,
                                            "--instances", gt]),
        "template": (templates, (2, 1), [*reconstruct, "--solid", s / "solid.txt",
                                    "--instances", gt, "--templates", bad]),
        "model": (a / "model.txt", (model_tri, 1), [
            "evaluate", "--pred", a / "instances.txt",
            "--gt", gt, "--model", bad,
            "--gt-model", a / "model.txt"]),
        "correspondences": (s / "correspondences.txt", (2, 0), [
            "project-image", "--image", s / "image.txt",
            "--correspondences", bad, "--solid", s / "solid.txt", *face]),
        "raster": (a / "conflict_wall_front.txt", (6, 0),
                   ["fuse", "--conflict", bad, "--out", tmp_path / "p.txt"]),
        "pixel_grid": (s / "image.txt", (3, 0), [
            "project-image", "--image", bad,
            "--correspondences", s / "correspondences.txt",
            "--solid", s / "solid.txt", *face]),
        "tree": (a / "tree.txt", (2, 3), [
            "conflicts", "--tree", bad, "--solid", s / "solid.txt", *face]),
        "tree_hit_distance": (a / "tree.txt", (2, 4), [
            "conflicts", "--tree", bad, "--solid", s / "solid.txt", *face]),
        "tree_pass_distance": (a / "tree.txt", (2, 8), [
            "conflicts", "--tree", bad, "--solid", s / "solid.txt", *face]),
        "tree_hit_point": (a / "tree.txt", (_first_evidence_line(
            a / "tree.txt", 4), 6), [
            "conflicts", "--tree", bad, "--solid", s / "solid.txt", *face]),
        "tree_pass_point": (a / "tree.txt", (_first_evidence_line(
            a / "tree.txt", 8), 10), [
            "conflicts", "--tree", bad, "--solid", s / "solid.txt", *face]),
        "instances": (gt, (2, 6), [*reconstruct, "--solid", s / "solid.txt",
                                   "--instances", bad]),
    }[kind]
    # +inf marks missing evidence, so a distance is corrupted negative
    _corrupt(source, bad, *where,
             f"-{value}" if kind.endswith("distance") else value)
    assert cli.main([str(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad}:{where[0]}:" in err
    assert "Traceback" not in err


def _piped(source, copies, line_no, column, value) -> str:
    """The text of `source`, its body after the first line `copies` times
    over, with one token of line `line_no` replaced."""
    head, *body = Path(source).read_text().splitlines()
    lines = [head, *body * copies]
    tokens = lines[line_no - 1].split()
    tokens[column] = value
    lines[line_no - 1] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("stage", ["raycast", "project-points", "conflicts", "fuse"])
def test_piped_bad_input_exits_2_naming_its_line(scene_dir, artifacts_dir, tmp_path,
                                                 stage):
    # a pipe cannot be read twice: the bad line, past the first block of
    # rays, points and tree lines, is numbered from the lines read once
    s, a = scene_dir, artifacts_dir
    face = ["--solid", s / "solid.txt", "--face", "wall_front"]
    source, copies, where, value, message, argv = {
        "raycast": (s / "rays.txt", 2, (5001, 2), "1.x", "bad number '1.x'",
                    ["--rays", "/dev/stdin", "--solid", s / "solid.txt"]),
        "project-points": (s / "points.txt", 2, (5001, 0), "nan",
                           "non-finite coordinate", ["--points", "/dev/stdin", *face]),
        # a key given twice keeps its last line: the voxels repeat
        "conflicts": (a / "tree.txt", 8, (5001, 5), "x", "bad number",
                      ["--tree", "/dev/stdin", *face]),
        "fuse": (a / "conflict_wall_front.txt", 1, (600, 1), "inf",
                 "non-finite pixel value", ["--conflict", "/dev/stdin"]),
    }[stage]
    text = _piped(source, copies, *where, value)
    proc = subprocess.run(
        [sys.executable, "-m", "lod3recon.cli", stage,
         *map(str, argv), "--out", str(tmp_path / "out.txt")],
        input=text, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert re.fullmatch(f"error: {stage}: /dev/stdin:{where[0]}: {message}[^\n]*\n",
                        proc.stderr), proc.stderr
    assert not (tmp_path / "out.txt").exists()


# ---------------------------------------------------------------------------
# the occupancy bindings the benchmark's tracer reads

def test_benchmark_tracer_counts_rays_and_voxels(scene_dir, tmp_path, monkeypatch):
    """perfbench/spans.py wraps cli's bindings of read_rays,
    build_occupancy, write_tree(tree, path) and read_tree(path), reads
    `path` from their arguments, and counts len() of their results as
    rays and voxels."""
    from lod3recon import occupancy

    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    from spans import Tracer

    for name in ("read_rays", "build_occupancy", "write_tree", "read_tree"):
        assert getattr(cli, name) is getattr(occupancy, name)
    for name, obj in list(vars(cli).items()):
        monkeypatch.setattr(cli, name, obj)     # undone after the test
    monkeypatch.setattr(textio, "BLOCK_ROWS", 1000)   # rays in four blocks
    tracer = Tracer("test")
    tracer.install(cli)
    rays, tree = scene_dir / "rays.txt", tmp_path / "tree.txt"
    assert cli.main(["raycast", "--rays", str(rays),
                     "--solid", str(scene_dir / "solid.txt"), "--out", str(tree)]) == 0
    assert cli.main(["conflicts", "--tree", str(tree),
                     "--solid", str(scene_dir / "solid.txt"), "--face", "wall_front",
                     "--out", str(tmp_path / "conflict.txt")]) == 0
    metrics = tracer.summary(wall_s=1.0)["metrics"]
    n_rays = sum(1 for line in rays.read_text().splitlines()
                 if line.strip() and not line.startswith("#"))
    n_voxels = len(tree.read_text().splitlines()) - 1
    assert metrics["occupancy.rays"] == n_rays > 3000
    assert tracer.summary(wall_s=1.0)["calls"]["occupancy.read_rays"] == 5
    assert metrics["occupancy.read_rays_s"] > 0.0
    assert metrics["occupancy.voxels"] == n_voxels
    assert metrics["occupancy.tree_mb"] == tree.stat().st_size / 1e6
    assert metrics["occupancy.rays_per_s"] == n_rays / metrics["occupancy.build_s"]


# ---------------------------------------------------------------------------
# a raster must hold the channels its stage reads, each once, and a
# positive cell

@pytest.mark.parametrize("argv, source, channel", [
    (["fuse", "--conflict"], "points_wall_front.txt", "conflicted"),
    (["extract", "--face", "wall_front", "--posterior"],
     "conflict_wall_front.txt", "opening"),
], ids=["fuse", "extract"])
def test_raster_without_its_channel_exits_2(artifacts_dir, tmp_path, capsys,
                                            argv, source, channel):
    path = artifacts_dir / source
    assert cli.main([*argv, str(path), "--out", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {argv[0]}: {path}: missing channel {channel!r}\n"


@pytest.mark.parametrize("stage", ["project-image", "pipeline", "fuse --pc",
                                   "fuse --tex", "extract --pc", "extract --tex"])
def test_evidence_without_an_opening_channel_exits_2(scene_dir, artifacts_dir,
                                                     tmp_path, capsys, stage):
    # fusion and extraction read the opening channels only: an image or an
    # evidence raster without one is the wrong file, not absent evidence
    command, *flag = stage.split()
    out = tmp_path / "out.txt"
    if command in ("project-image", "pipeline"):
        bad = tmp_path / "image.txt"
        bad.write_text((scene_dir / "image.txt").read_text().replace(
            "channels window door", "channels sky road"))
        if command == "pipeline":
            argv = ["pipeline", "--config", str(_scene_config(
                scene_dir, tmp_path / "scene.cfg", image=str(bad),
                out_dir=str(tmp_path / "out")))]
        else:
            argv = ["project-image", "--image", str(bad), "--correspondences",
                    str(scene_dir / "correspondences.txt"),
                    "--solid", str(scene_dir / "solid.txt"),
                    "--face", "wall_front", "--out", str(out)]
        stage = "project-image"
    else:
        bad = artifacts_dir / "conflict_wall_front.txt"
        first = ["--posterior", str(artifacts_dir / "posterior_wall_front.txt"),
                 "--face", "wall_front"] if command == "extract" else []
        argv = [command, *first, *flag, str(bad), "--out", str(out)]
        stage = command
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {stage}: {bad}: missing channel 'window' or 'door'\n")
    assert not out.exists()


def test_a_window_only_image_is_evidence(scene_dir, artifacts_dir, tmp_path):
    # one opening channel is enough; the other image channels are dropped
    image = tmp_path / "image.txt"
    image.write_text((scene_dir / "image.txt").read_text().replace(
        "channels window door", "channels window sky"))
    tex = tmp_path / "tex.txt"
    assert cli.main(["project-image", "--image", str(image), "--correspondences",
                     str(scene_dir / "correspondences.txt"),
                     "--solid", str(scene_dir / "solid.txt"),
                     "--face", "wall_front", "--out", str(tex)]) == 0
    got = read_raster(tex)
    both = read_raster(artifacts_dir / "texture_wall_front.txt")
    assert got.channels == ("window",)
    assert np.array_equal(got.channel("window"), both.channel("window"))
    assert cli.main(["fuse", "--conflict", str(artifacts_dir / "conflict_wall_front.txt"),
                     "--tex", str(tex), "--out", str(tmp_path / "post.txt")]) == 0


def test_an_eight_class_point_raster_fuses_and_extracts_as_before(
        scene_dir, artifacts_dir, tmp_path):
    # point rasters once held every point label; fusion and extraction
    # read the opening channels by name, so such a raster still gives the
    # posterior and instances of the two-channel raster, byte for byte
    frame = facade_frame(read_solid(scene_dir / "solid.txt").face("wall_front"),
                         OccupancyConfig().voxel_size)
    eight = FacadeRaster.zeros(frame, POINT_LABELS)
    project_point_probabilities(*scenes.read_all_points(scene_dir / "points.txt"),
                                frame, out=eight)
    write_raster(eight, tmp_path / "eight.txt")
    two = artifacts_dir / "points_wall_front.txt"
    assert read_raster(two).channels == ("window", "door")
    tex = str(artifacts_dir / "texture_wall_front.txt")
    for name, pc in {"eight": str(tmp_path / "eight.txt"), "two": str(two)}.items():
        assert cli.main(["fuse", "--conflict",
                         str(artifacts_dir / "conflict_wall_front.txt"),
                         "--pc", pc, "--tex", tex,
                         "--out", str(tmp_path / f"posterior_{name}.txt")]) == 0
        assert cli.main(["extract", "--posterior",
                         str(tmp_path / f"posterior_{name}.txt"), "--pc", pc,
                         "--tex", tex, "--face", "wall_front",
                         "--out", str(tmp_path / f"instances_{name}.txt")]) == 0
    for kind in ("posterior", "instances"):
        assert (tmp_path / f"{kind}_eight.txt").read_bytes() == \
            (tmp_path / f"{kind}_two.txt").read_bytes()
    assert (tmp_path / "posterior_two.txt").read_bytes() == \
        (artifacts_dir / "posterior_wall_front.txt").read_bytes()
    assert (tmp_path / "instances_two.txt").read_bytes() == \
        (artifacts_dir / "instances.txt").read_bytes()


@pytest.mark.parametrize("via", ["project-image", "pipeline"])
def test_running_out_of_memory_exits_1_naming_the_stage(scene_dir, tmp_path,
                                                        capsys, monkeypatch, via):
    # a cell far too fine asks for more memory than there is; the failed
    # allocation is raised here without allocating anything
    def project(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")
    monkeypatch.setattr(cli, "project_image_probabilities", project)
    if via == "pipeline":
        argv = ["pipeline", "--config", str(_scene_config(
            scene_dir, tmp_path / "scene.cfg", out_dir=str(tmp_path / "out")))]
    else:
        argv = ["project-image", "--image", str(scene_dir / "image.txt"),
                "--correspondences", str(scene_dir / "correspondences.txt"),
                "--solid", str(scene_dir / "solid.txt"), "--face", "wall_front",
                "--out", str(tmp_path / "out.txt")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ("error: project-image: out of memory: "
                                       "Unable to allocate 74.5 GiB for an array\n")


@pytest.mark.parametrize("old, new, message", [
    ("channels conflicted confirmed unknown",
     "channels conflicted confirmed conflicted", "5: duplicate channel 'conflicted'"),
    ("cell=0.5 ", "cell=0 ", "1: cell size must be positive"),
    ("cell=0.5 ", "cell=-0.5 ", "1: cell size must be positive"),
], ids=["duplicate-channel", "zero-cell", "negative-cell"])
def test_bad_raster_header_exits_2(tmp_path, capsys, old, new, message):
    frame = facade_frame(box_solid("b", (0, 0, 0), (4, 2, 3)).face("wall_front"),
                         0.5)
    path = tmp_path / "conflict.txt"
    write_raster(FacadeRaster.zeros(frame, ("conflicted", "confirmed",
                                            "unknown")), path)
    path.write_text(path.read_text().replace(old, new))
    assert cli.main(["fuse", "--conflict", str(path),
                     "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err == f"error: fuse: {path}:{message}\n"


@pytest.mark.parametrize("kind", ["tree", "template"])
def test_header_value_out_of_range_exits_2(scene_dir, artifacts_dir, tmp_path,
                                           capsys, kind):
    bad = tmp_path / "bad.txt"
    if kind == "tree":
        bad.write_text((artifacts_dir / "tree.txt").read_text().replace(
            "voxel_size=0.1 ", "voxel_size=0 ", 1))
        argv = ["conflicts", "--tree", bad, "--face", "wall_front",
                "--out", tmp_path / "out.txt"]
        message = "1: voxel size must be positive"
    else:
        bad.write_text(TEMPLATE_TEXT.replace("label=window", "label=balcony"))
        argv = ["reconstruct", "--instances", scene_dir / "gt_instances.txt",
                "--templates", bad, "--out-model", tmp_path / "m.txt",
                "--out-gml", tmp_path / "m.gml"]
        message = "1: template label 'balcony'"
    argv += ["--solid", scene_dir / "solid.txt"]
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[0]}: {bad}:{message}")


@pytest.mark.parametrize("rows, code, message", [
    ("0 0 0 0\n1 0 10 0\n1 1 10 10\n", 2,
     "{bad}: need at least 4 correspondences, got 3"),
    ("0 0 0 0\n1 0 10 0\n2 0 20 0\n3 0 30 0\n", 1,
     "correspondences are degenerate (collinear or repeated points)"),
], ids=["three", "collinear"])
@pytest.mark.parametrize("via", ["project-image", "pipeline"])
def test_too_few_or_collinear_correspondences(scene_dir, tmp_path, capsys, rows,
                                              code, message, via):
    # too few rows break the file format (exit 2, naming the file); four
    # collinear ones are degenerate geometry (exit 1)
    bad = tmp_path / "corr.txt"
    bad.write_text(rows)
    if via == "project-image":
        argv = ["project-image", "--image", str(scene_dir / "image.txt"),
                "--correspondences", str(bad), "--solid", str(scene_dir / "solid.txt"),
                "--face", "wall_front", "--out", str(tmp_path / "out.txt")]
    else:
        raw = textio.key_values(scene_dir / "scene.cfg")
        raw = {key: str(scene_dir / value) if key not in ("faces",) else value
               for key, value in raw.items()}
        raw.update(correspondences=str(bad), out_dir=str(tmp_path / "out"))
        (tmp_path / "scene.cfg").write_text(
            "".join(f"{key} = {value}\n" for key, value in raw.items()))
        argv = ["pipeline", "--config", str(tmp_path / "scene.cfg")]
    assert cli.main(argv) == code
    assert capsys.readouterr().err == (
        f"error: project-image: {message.format(bad=bad)}\n")


def test_pixel_grid_with_a_duplicate_channel_exits_2(scene_dir, tmp_path, capsys):
    image = tmp_path / "image.txt"
    image.write_text((scene_dir / "image.txt").read_text().replace(
        "channels window door", "channels door door"))
    assert cli.main(["project-image", "--image", str(image),
                     "--correspondences", str(scene_dir / "correspondences.txt"),
                     "--solid", str(scene_dir / "solid.txt"), "--face", "wall_front",
                     "--out", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: project-image: {image}:2: duplicate channel 'door'\n"


@pytest.mark.parametrize("command", ["project-image", "fuse"])
def test_a_header_promising_more_pixels_exits_2_with_little_memory(
        scene_dir, tmp_path, capsys, command):
    # an image grid or a conflict raster that promises 10^12 pixels and
    # gives two: the stage reads two pixels and says so
    bad = tmp_path / "bad.txt"
    if command == "project-image":
        bad.write_text("pixel_grid width=1000000 height=1000000\n"
                       "channels window door\n0.5 0.5\n0.25 0.25\n")
        argv = ["project-image", "--image", str(bad),
                "--correspondences", str(scene_dir / "correspondences.txt"),
                "--solid", str(scene_dir / "solid.txt"), "--face", "wall_front"]
    else:
        bad.write_text("facade_raster cell=0.1 width=1000000 height=1000000\n"
                       "origin 0 0 0\nu 1 0 0\nv 0 0 1\n"
                       "channels conflicted confirmed unknown\n0 0 1\n0 0 1\n")
        argv = ["fuse", "--conflict", str(bad)]
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--out", str(tmp_path / "out.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {command}: {bad}: expected 1000000000000 pixel lines, got 2\n")
    assert peak < 2e6


# ---------------------------------------------------------------------------
# labeled points stream through projection in blocks

def _point_lines(path) -> list:
    """The lines with content of the labeled point file at `path`."""
    return [text for _, text in textio.content_lines(path)]


def _scene_config(scene_dir, path, **changes):
    """The scene's config with absolute paths and `changes`, where a
    value of None drops the key, written to `path`."""
    raw = textio.key_values(scene_dir / "scene.cfg")
    raw = {key: value if key == "faces" else str(scene_dir / value)
           for key, value in raw.items()}
    raw.update(changes)
    path.write_text("".join(f"{key} = {value}\n" for key, value in raw.items()
                            if value is not None))
    return path


@pytest.mark.parametrize("rows", [1, 7, 4096])
def test_any_split_of_the_points_writes_the_same_rasters(scene_dir, tmp_path,
                                                         monkeypatch, rows):
    # runs of seven points far off every face leave some blocks of seven
    # without a point to project, and the count leaves one point for the
    # last block of seven
    far = " ".join(["2", "-50", "1"] + ["0.5"] * 8)
    lines = ["# x y z p..."]
    for i, line in enumerate(_point_lines(scene_dir / "points.txt")):
        if i % 400 == 0:
            lines += ["# seven points far off", *[far] * 7, ""]
        lines.append(line)
    assert sum(1 for line in lines if line and line[0] != "#") % 7 == 1
    points = tmp_path / "points.txt"
    points.write_bytes("".join(line + ("\r\n" if i % 3 else "\n")
                               for i, line in enumerate(lines)).encode())
    # every wall's raster of all the points projected at once
    walls = [f for f in read_solid(scene_dir / "solid.txt").faces
             if f.label == "wall"]
    want = {}
    for face in walls:
        frame = facade_frame(face, OccupancyConfig().voxel_size)
        write_raster(project_point_probabilities(
            *scenes.read_all_points(points), frame), tmp_path / "want.txt")
        want[face.face_id] = (tmp_path / "want.txt").read_bytes()
    monkeypatch.setattr(textio, "BLOCK_ROWS", rows)
    cfg = _scene_config(scene_dir, tmp_path / "scene.cfg", points=str(points),
                        faces=None, out_dir=str(tmp_path / "out"))
    assert cli.main(["pipeline", "--config", str(cfg)]) == 0
    for face_id, raster in want.items():
        assert (tmp_path / "out" / f"points_{face_id}.txt").read_bytes() == raster
    alone = tmp_path / "alone.txt"
    assert cli.main(["project-points", "--points", str(points),
                     "--solid", str(scene_dir / "solid.txt"),
                     "--face", "wall_back", "--out", str(alone)]) == 0
    assert alone.read_bytes() == want["wall_back"]


def test_points_stage_memory_does_not_grow_with_the_points(tmp_path):
    # the front scene's points once and eight times over: the stage holds
    # no array over all points
    spec = SceneSpec(seed=7)
    _, points, probs = scenes.scan(spec)
    frame = facade_frame(scene_solid(spec).face("wall_front"),
                         OccupancyConfig().voxel_size)
    once, eight = tmp_path / "once.txt", tmp_path / "eight.txt"
    with point_writer(once) as write:
        write(points, probs)
    head, body = once.read_text().split("\n", 1)
    eight.write_text(head + "\n" + body * 8)

    def peak(path):
        tracemalloc.start()
        try:
            cli._project_points(path, {"wall_front": frame}, None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(eight) < peak(once) + 1e6


@pytest.mark.parametrize("bad, message", [
    ("1 2 3 0.5 0.5 0.5 0.5 0.5 0.5 0.5 1.5", r"probability outside \[0, 1\]"),
    ("1 2 nan 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5", "non-finite coordinate"),
    ("1 2 3 0.5 0.5 x 0.5 0.5 0.5 0.5 0.5", "bad number"),
    ("1 2 3 0.5 0.5 0.5 0.5 0.5 0.5 0.5", "expected 11 columns"),
], ids=["probability", "non-finite", "not-a-number", "columns"])
@pytest.mark.parametrize("via", ["pipeline", "project-points"])
def test_bad_point_in_the_third_block_names_its_line(scene_dir, tmp_path, capsys,
                                                     monkeypatch, bad, message,
                                                     via):
    # the 2,501st point, in the third block of 1,000, after a comment line
    # in the first and a CRLF line in the second
    monkeypatch.setattr(textio, "BLOCK_ROWS", 1000)
    lines = _point_lines(scene_dir / "points.txt")
    assert len(lines) > 3000
    lines[2500], lines[2900] = bad, "1 2 3" + " 7" * 8   # the later one unreported
    lines.insert(500, "# a comment line")
    points = tmp_path / "points.txt"
    points.write_bytes("".join(line + ("\r\n" if i == 1500 else "\n")
                               for i, line in enumerate(lines)).encode())
    no = lines.index(bad) + 1
    out = tmp_path / "out"
    if via == "pipeline":
        cfg = _scene_config(scene_dir, tmp_path / "scene.cfg",
                            points=str(points), out_dir=str(out))
        argv = ["pipeline", "--config", str(cfg)]
    else:
        argv = ["project-points", "--points", str(points),
                "--solid", str(scene_dir / "solid.txt"), "--face", "wall_front",
                "--out", str(out / "points_wall_front.txt")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        f"error: project-points: {re.escape(str(points))}:{no}: {message}[^\n]*\n",
        err)
    assert (out / "tree.txt").exists() == (via == "pipeline")
    assert not list(out.glob("points_*"))
