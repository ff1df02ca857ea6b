"""One fresh process of the benchmark: a set-up or one timed operation.

    python3 perfbench/worker.py '<job as JSON>'

`run.py` starts it with the package's `src` on PYTHONPATH. The job names
the mode (`setup` or `op`), the workload, the seed and the directories;
the result is written as JSON to `job["result"]`. Set-up time counts from
this process's first statement, so it includes importing the package.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def _count_records(path) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()
                   and not line.lstrip().startswith("#"))


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, name))
               for d, _, names in os.walk(path) for name in names)


def setup(job: dict) -> dict:
    """Import, generate the scene and build its config; `stage-replay` also
    runs the pipeline once and builds the ground-truth model it scores
    against."""
    from lod3recon import cli
    from lod3recon.synth import synth_scene

    import_s = time.perf_counter() - T0
    workload = workloads.WORKLOADS[job["workload"]]
    spec, faces = workloads.scene_spec(workload["scene"], job["seed"])
    scene = job["scene_dir"]
    t = time.perf_counter()
    paths = synth_scene(spec, scene)
    synth_s = time.perf_counter() - t
    raw = workloads.scene_config(paths, faces, os.path.join(scene, "pipeline"))
    config = cli.build_config(raw)  # the config build counts as set-up
    info = {"raw": raw, "paths": paths}
    if workload["replay"]:
        artifacts = cli.run_pipeline(config)
        info["pipeline"] = {"tree": artifacts["tree"],
                            "instances": artifacts["instances"]}
        info["walls"] = [key[len("conflict_"):] for key in artifacts
                         if key.startswith("conflict_")]
        # the pipeline scores against ground truth cut without a margin
        info["gt_model"] = os.path.join(scene, "gt_model.txt")
        code = cli.main(["reconstruct", "--solid", paths["solid"],
                         "--instances", paths["gt_instances"],
                         "--depth", workloads.CUT_DEPTH, "--margin", "0.0",
                         "--out-model", info["gt_model"],
                         "--out-gml", os.path.join(scene, "gt_model.gml")])
        if code != 0:
            raise RuntimeError(f"ground-truth reconstruct exited with {code}")
    info["setup_s"] = time.perf_counter() - T0
    info["import_s"] = import_s
    info["synth_s"] = synth_s
    info["inputs"] = {
        "seed": job["seed"],
        "rays": _count_records(paths["rays"]),
        "points": _count_records(paths["points"]),
        "image_px": (int(round(spec.height / spec.image_cell))
                     * int(round(spec.width / spec.image_cell))),
        "input_bytes": sum(os.path.getsize(p) for p in paths.values()),
    }
    return info


def operation(job: dict) -> dict:
    """Time one operation, then check what it wrote."""
    from lod3recon import cli
    from lod3recon.evaluate import read_metrics

    from spans import Tracer

    info, out = job["setup"], job["out_dir"]
    replay = workloads.WORKLOADS[job["workload"]]["replay"]
    tracer = Tracer(job["run_id"]) if job["traced"] else None
    run_pipeline, main = cli.run_pipeline, cli.main
    if tracer is not None:
        tracer.install(cli)
        run_pipeline = tracer.wrap(run_pipeline, "cli.run_pipeline")
        main = tracer.wrap(main, "cli.main")
    if replay:
        os.makedirs(out)
    else:
        config = cli.build_config(dict(info["raw"], out_dir=out))

    op_span = (tracer.span("perfbench.op") if tracer is not None
               else contextlib.nullcontext())
    error = result = None
    t = time.perf_counter()
    try:
        with op_span:
            result = (workloads.replay_stages(main, info, out) if replay
                      else run_pipeline(config))
    except Exception as exc:  # any failure of the program is a failed op
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    res = {"traced": tracer is not None, "wall_s": wall_s,
           "peak_rss_mb": peak_rss_mb,
           "artifact_mb": _dir_bytes(out) / 1e6 if os.path.isdir(out) else 0.0}
    if error is None:
        metrics = read_metrics(result) if replay else result["metrics"]
        d = metrics["D"]
        res.update(da_pct=metrics["DA"], fa_pct=metrics["FA"],
                   precision_pct=100.0 * metrics["TP"] / d if d else 0.0,
                   median_iou_pct=metrics["median_iou"])
        res["missed"] = metrics["FN"]
        if not metrics.get("watertight"):
            error = "model is not watertight"
        elif metrics["mean_deviation"] > workloads.MAX_MEAN_DEVIATION_M:
            # a missed opening is an accuracy result (da_pct), not a wrong
            # output: the model must still be exact at every opening found
            deviation = workloads.deviation_at_matches(
                os.path.join(out, "model.txt"), info["paths"]["solid"],
                os.path.join(out, "instances.txt"),
                info["paths"]["gt_instances"])
            if deviation > workloads.MAX_MEAN_DEVIATION_M:
                error = (f"mean surface deviation {deviation!r} m at the "
                         f"{metrics['TP']} matched openings")
        if error is None and replay and (
                workloads.instance_lines(os.path.join(out, "instances.txt"))
                != workloads.instance_lines(info["pipeline"]["instances"])):
            error = "merged instances differ from the pipeline's"
    res["ok"] = error is None
    res["error"] = error
    if tracer is not None:
        res["summary"] = tracer.summary(wall_s)
        res["spans"] = tracer.spans
    return res


def main() -> int:
    job = json.loads(sys.argv[1])
    result = setup(job) if job["mode"] == "setup" else operation(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
