"""Spans and counts around the stage functions `lod3recon.cli` calls.

`Tracer.install` replaces every stage function bound in the `cli` module
with a wrapper that records a span (name, start, end, parent span, run
id), so the real `run_pipeline` and subcommands run unchanged. Counts
are taken by probes after a span closes; their own time goes into a
`perfbench.probe` span, so it is charged to no layer of the program.
Spans stay in memory until the operation ends.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time

# A `cli` self time above this share of the traced wall time means a
# stage call ran unwrapped.
UNWRAPPED_SHARE = 0.05

# per-layer time metric -> the span whose durations it sums
TIME_METRICS = {
    "occupancy.read_rays_s": "occupancy.read_rays",
    "occupancy.build_s": "occupancy.build_occupancy",
    "occupancy.write_tree_s": "occupancy.write_tree",
    "occupancy.read_tree_s": "occupancy.read_tree",
    "model_io.read_solid_s": "model_io.read_solid",
    "visibility.conflicts_s": "visibility.project_conflict_map",
    "rasters.read_points_s": "rasters.read_labeled_points",
    "rasters.read_image_s": "rasters.read_pixel_grid",
    "rasters.project_points_s": "rasters.project_point_probabilities",
    "rasters.project_image_s": "rasters.project_image_probabilities",
    "rasters.write_raster_s": "rasters.write_raster",
    "rasters.read_raster_s": "rasters.read_raster",
    "fusion.fuse_s": "fusion.fuse_maps",
    "extraction.extract_s": "extraction.extract_openings",
    "reconstruct.reconstruct_s": "reconstruct.reconstruct_model",
    "reconstruct.write_model_s": "reconstruct.write_model",
    "reconstruct.write_citygml_s": "reconstruct.write_citygml",
    "evaluate.match_s": "evaluate.match_instances",
    "evaluate.sample_s": "evaluate.sample_model_points",
    "evaluate.deviation_s": "evaluate.mesh_deviation",
}

# counts that describe one object (a tree) rather than add up over calls
_MAX_COUNTS = {"occupancy.voxels", "occupancy.tree_bytes"}


def _conflict_counts(a, raster):
    data = raster.data
    measured = data[:, :, 2] == 0.0
    return {"visibility.raster_px": int(measured.size),
            "visibility.measured_px": int(measured.sum()),
            "visibility.conflicted_px":
                int((measured & (data[:, :, 0] > data[:, :, 1])).sum()),
            "visibility.confirmed_px":
                int((measured & (data[:, :, 1] > data[:, :, 0])).sum())}


def _fuse_counts(a, raster):
    from lod3recon.extraction import ExtractionConfig
    post = raster.channel("opening")
    return {"fusion.px": int(post.size),
            "fusion.px_above_p_high":
                int((post.astype(float) > ExtractionConfig().p_high).sum())}


def _extract_counts(a, instances):
    from lod3recon.extraction import mask_clusters, morphological_opening
    config = a["config"]
    mask = a["posterior"].channel("opening").astype(float) > config.p_high
    mask = morphological_opening(mask, config.kernel)
    return {"extraction.clusters": len(mask_clusters(mask)),
            "extraction.instances": len(instances)}


# span name -> probe(bound arguments, result) -> {count name: value}
PROBES = {
    "occupancy.read_rays": lambda a, r: {"occupancy.rays": len(r)},
    "occupancy.build_occupancy": lambda a, r: {"occupancy.voxels": len(r)},
    "occupancy.write_tree":
        lambda a, r: {"occupancy.tree_bytes": os.path.getsize(a["path"])},
    "occupancy.read_tree":
        lambda a, r: {"occupancy.voxels": len(r),
                      "occupancy.tree_bytes": os.path.getsize(a["path"])},
    "visibility.project_conflict_map": _conflict_counts,
    "rasters.write_raster":
        lambda a, r: {"rasters.rasters_written": 1,
                      "rasters.raster_bytes": os.path.getsize(a["path"])},
    "fusion.fuse_maps": _fuse_counts,
    "extraction.extract_openings": _extract_counts,
    "reconstruct.write_model":
        lambda a, r: {"reconstruct.openings": len(a["model"].placements)},
    "evaluate.triangulate_model": lambda a, r: {"evaluate.triangles": len(r)},
}


class Tracer:
    """In-memory span recorder for one operation (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "run_id": self.run_id, "counts": {}}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        probe = PROBES.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if probe is not None:
                with self.span("perfbench.probe"):
                    bound = signature.bind(*args, **kwargs).arguments
                    record["counts"] = probe(bound, result)
            return result
        return traced

    def install(self, cli) -> None:
        """Wrap every package function bound in the `cli` module."""
        for attr, obj in list(vars(cli).items()):
            if (inspect.isfunction(obj) and obj.__module__ != cli.__name__
                    and obj.__module__.startswith("lod3recon.")):
                layer = obj.__module__.rsplit(".", 1)[1]
                setattr(cli, attr, self.wrap(obj, f"{layer}.{attr}"))

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics, self time per layer and calls per span."""
        child_time: dict = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        by_name: dict = {}
        calls: dict = {}
        layer_self: dict = {}
        counts: dict = {}
        for s in self.spans:
            name = s["name"]
            duration = s["end"] - s["start"]
            by_name[name] = by_name.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            layer_self[layer] = (layer_self.get(layer, 0.0) + duration
                                 - child_time.get(s["id"], 0.0))
            for key, value in s["counts"].items():
                counts[key] = (max(counts.get(key, 0), value)
                               if key in _MAX_COUNTS
                               else counts.get(key, 0) + value)
        metrics = {m: by_name.get(n, 0.0) for m, n in TIME_METRICS.items()}
        rays = counts.get("occupancy.rays", 0)
        build_s = metrics["occupancy.build_s"]
        metrics.update({
            "occupancy.rays": rays,
            "occupancy.voxels": counts.get("occupancy.voxels", 0),
            "occupancy.tree_mb": counts.get("occupancy.tree_bytes", 0) / 1e6,
            "occupancy.rays_per_s": rays / build_s if build_s > 0 else 0.0,
            "visibility.calls": calls.get("visibility.project_conflict_map", 0),
            "rasters.rasters_written": counts.get("rasters.rasters_written", 0),
            "rasters.raster_mb": counts.get("rasters.raster_bytes", 0) / 1e6,
            "cli.self_s": layer_self.get("cli", 0.0),
        })
        for key in ("visibility.raster_px", "visibility.measured_px",
                    "visibility.conflicted_px", "visibility.confirmed_px",
                    "fusion.px", "fusion.px_above_p_high",
                    "extraction.clusters", "extraction.instances",
                    "reconstruct.openings", "evaluate.triangles"):
            metrics[key] = counts.get(key, 0)
        raster_px = metrics["visibility.raster_px"]
        metrics["visibility.measured_ratio"] = (
            metrics["visibility.measured_px"] / raster_px if raster_px else 0.0)
        clusters = metrics["extraction.clusters"]
        metrics["extraction.kept_ratio"] = (
            metrics["extraction.instances"] / clusters if clusters else 0.0)
        share = metrics["cli.self_s"] / wall_s
        return {"metrics": metrics, "layer_self_s": layer_self, "calls": calls,
                "cli_self_share": share, "unwrapped": share > UNWRAPPED_SHARE}

