"""The benchmark's workloads: their scenes and the operation each one times.

Every scene comes from the package's own `synth.synth_scene`, seeded by
the benchmark's `--seed`. The pipeline workloads time one
`cli.run_pipeline` call; `stage-replay` times the standalone subcommands,
called through `cli.main`, on the artifacts of one pipeline run made
during set-up.

Nothing here imports `lod3recon` at module level, so the parent process
can read the workload table without the package.
"""

from __future__ import annotations

import os

# The pipeline's raster cell is its voxel size and its cut margin one
# cell; the stand-alone subcommands get both values explicitly.
RASTER_CELL = "0.1"
CUT_MARGIN = "0.1"
CUT_DEPTH = "0.1"
MAX_MEAN_DEVIATION_M = 1e-6

WORKLOADS = {
    "front-dense": {"scene": "front", "replay": False},
    "block-all-walls": {"scene": "block", "replay": False},
    "stage-replay": {"scene": "block", "replay": True},
}

# (u0, v0) of the block scene's covered windows
_COVERED = {(4.0, 1.4), (1.0, 3.8), (13.0, 3.8)}


def scene_spec(scene: str, seed: int):
    """(SceneSpec, faces) for a scene kind; empty faces means every wall."""
    from lod3recon.synth import SceneSpec, SynthOpening

    if scene == "front":
        return SceneSpec(seed=seed), ("wall_front",)
    openings = []
    for c in range(5):
        u0 = 1.0 + 3.0 * c
        if c == 2:
            openings.append(SynthOpening((7.0, 0.2, 8.2, 2.4), "door"))
        else:
            openings.append(SynthOpening((u0, 1.4, u0 + 1.2, 2.8), "window",
                                         (u0, 1.4) in _COVERED))
        openings.append(SynthOpening((u0, 3.8, u0 + 1.2, 5.8), "window",
                                     (u0, 3.8) in _COVERED))
    spec = SceneSpec(width=16.0, height=6.0, depth=10.0, pitch=0.1,
                     openings=tuple(openings), seed=seed)
    return spec, ()


def scene_config(paths: dict, faces, out_dir) -> dict:
    """Raw `key = value` config of a generated scene, as `scene.cfg` has it."""
    raw = {key: paths[key] for key in (
        "rays", "solid", "points", "image", "correspondences",
        "gt_instances", "gt_measured")}
    raw["out_dir"] = out_dir
    if faces:
        raw["faces"] = " ".join(faces)
    return raw


def deviation_at_matches(model_path, solid_path, pred_path, gt_path) -> float:
    """Mean deviation of a model from the ground-truth model cut
    only at the ground-truth openings the prediction matched.

    The evaluate stage scores against every ground-truth opening, so a
    missed opening shows up as deviation there although the model is
    right about everything it found. Here a miss counts only in the
    detection rate; a wrong cut, a misplaced rect or a false
    detection still leaves deviation.
    """
    from lod3recon.evaluate import (match_instances, mesh_deviation,
                                    sample_model_points, triangulate_model)
    from lod3recon.extraction import read_instances
    from lod3recon.model_io import default_template_library, read_solid
    from lod3recon.reconstruct import read_model, reconstruct_model

    gt = read_instances(gt_path)
    matches = match_instances(read_instances(pred_path), gt)[3]
    found = [gt[gi] for _, gi, _ in matches]
    reference = reconstruct_model(read_solid(solid_path), found,
                                  default_template_library(),
                                  depth=float(CUT_DEPTH), margin=0.0)
    mean, _ = mesh_deviation(sample_model_points(reference, 2000),
                             triangulate_model(read_model(model_path)))
    return mean


def instance_lines(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln.startswith("opening")]


def replay_stages(main, setup: dict, out: str) -> str:
    """Run every stage after raycasting through `main`; returns the
    metrics file. Raises RuntimeError on the first nonzero exit."""
    scene, pipe = setup["paths"], setup["pipeline"]

    def run(*argv):
        code = main(list(argv))
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with {code}")

    def at(stem, face):
        return os.path.join(out, f"{stem}_{face}.txt")

    merged = []
    for face in setup["walls"]:
        common = ("--solid", scene["solid"], "--face", face,
                  "--cell", RASTER_CELL)
        run("conflicts", "--tree", pipe["tree"], "--out", at("conflict", face),
            *common)
        run("project-points", "--points", scene["points"],
            "--out", at("points", face), *common)
        run("project-image", "--image", scene["image"],
            "--correspondences", scene["correspondences"],
            "--out", at("texture", face), *common)
        evidence = ("--pc", at("points", face), "--tex", at("texture", face))
        run("fuse", "--conflict", at("conflict", face), *evidence,
            "--out", at("posterior", face))
        run("extract", "--posterior", at("posterior", face), *evidence,
            "--face", face, "--out", at("instances", face))
        merged.extend(instance_lines(at("instances", face)))
    instances = os.path.join(out, "instances.txt")
    with open(instances, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in merged))
    model = os.path.join(out, "model.txt")
    run("reconstruct", "--solid", scene["solid"], "--instances", instances,
        "--depth", CUT_DEPTH, "--margin", CUT_MARGIN,
        "--out-model", model, "--out-gml", os.path.join(out, "model.gml"))
    metrics = os.path.join(out, "metrics.txt")
    run("evaluate", "--pred", instances, "--gt", scene["gt_instances"],
        "--measured", scene["gt_measured"], "--model", model,
        "--gt-model", setup["gt_model"], "--out", metrics)
    return metrics
