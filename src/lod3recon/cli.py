"""Command line front end: per-stage subcommands plus a batch pipeline.

Every stage reads and writes the documented text formats, so any stage
can be re-run in isolation on the artifacts of a previous run. The
`pipeline` subcommand chains them from a `key = value` config file and
drops every intermediate into the output directory.

Exit codes: 0 success, 2 for input and configuration problems (bad
config, unreadable or malformed files), 1 for any other pipeline error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .errors import (ConfigError, IoError, Lod3Error, ParseError, SpecError)
from .evaluate import (DetectionCounts, detection_rates, format_report,
                       match_instances, median_instance_iou, mesh_deviation,
                       sample_model_points, triangulate_model, watertight,
                       write_metrics)
from .extraction import ExtractionConfig, extract_openings, read_instances, \
    write_instances
from .fusion import fuse_maps, read_cpt
from .model_io import read_solid, read_template_library, validate_solid
from .occupancy import (OccupancyConfig, build_occupancy, ray_blocks,
                        read_rays, read_tree, write_tree)
from .rasters import (CONFLICT_CHANNELS, estimate_homography, facade_frame,
                      project_image_probabilities, project_point_probabilities,
                      read_correspondences, read_labeled_points,
                      read_pixel_grid, read_raster, write_raster)
from .reconstruct import (read_model, reconstruct_model, write_citygml,
                          write_model)
from .synth import FRONT_FACE, SceneSpec, SynthOpening, synth_scene
from .textio import key_values, writing
from .visibility import (UncertaintyConfig, project_conflict_map,
                         surface_voxels)


def _range(test, rule: str) -> dict:
    """Field metadata: a given value must pass `test`; `rule` says how.
    Config files and command-line options check it alike."""
    return {"range": (test, rule)}


_POSITIVE = _range(lambda v: v > 0, "must be positive")
_NON_NEGATIVE = _range(lambda v: v >= 0, "must be non-negative")


@dataclass(frozen=True)
class PipelineConfig:
    """Typed view of a pipeline config file.

    Required: rays, solid, out_dir. Optional evidence inputs (points,
    image + correspondences) and ground truth enable the corresponding
    stages; numeric blocks reuse each module's own config type.
    """
    rays: str
    solid: str
    out_dir: str
    points: str | None = None
    image: str | None = None
    correspondences: str | None = None
    templates: str | None = None
    cpt: str | None = None
    gt_instances: str | None = None
    gt_measured: str | None = None
    gt_model: str | None = None
    faces: tuple = ()
    occupancy: OccupancyConfig = field(default_factory=OccupancyConfig)
    uncertainty: UncertaintyConfig = field(default_factory=UncertaintyConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    cell: float | None = field(default=None, metadata=_POSITIVE)
    band: float | None = field(default=None, metadata=_POSITIVE)
    depth: float = field(default=0.1, metadata=_POSITIVE)
    margin: float | None = field(default=None, metadata=_NON_NEGATIVE)
    iou_min: float = field(default=0.5, metadata=_range(
        lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"))
    samples: int = field(default=2000, metadata=_POSITIVE)
    sample_seed: int = field(default=0, metadata=_NON_NEGATIVE)

    def __post_init__(self):
        for name in ("rays", "solid", "out_dir"):
            if not getattr(self, name):
                raise ConfigError(f"config key {name!r} is required")
        if (self.image is None) != (self.correspondences is None):
            raise ConfigError("image and correspondences must be given together")
        if not self.gt_instances and (self.gt_measured or self.gt_model):
            raise ConfigError("gt_measured and gt_model need gt_instances")
        for f in fields(self):
            test, rule = f.metadata.get("range", (None, None))
            value = getattr(self, f.name)
            if test and value is not None and not test(value):
                raise ConfigError(f"{f.name} {rule}")
        object.__setattr__(self, "faces", tuple(self.faces))

    @property
    def raster_cell(self) -> float:
        return self.cell if self.cell is not None else self.occupancy.voxel_size

    @property
    def cut_margin(self) -> float:
        return self.margin if self.margin is not None else self.raster_cell


def _field_types(cls) -> dict:
    """Field name -> value type of a dataclass; `X | None` counts as X."""
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        types[name] = args[0] if args else hint
    return types


_BLOCKS = {name: kind for name, kind in _field_types(PipelineConfig).items()
           if is_dataclass(kind)}


def _config_keys() -> dict:
    """Config key -> (PipelineConfig block holding it or None, value type).
    Keys are flat: each field of a block is a key of its own."""
    keys = {}
    for name, kind in _field_types(PipelineConfig).items():
        if name in _BLOCKS:
            keys.update((key, (name, sub_kind))
                        for key, sub_kind in _field_types(kind).items())
        else:
            keys[name] = (None, kind)
    return keys


_CONFIG_KEYS = _config_keys()


def boolean(text: str) -> bool:
    """`true` or `false`, as config files and options spell a flag."""
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


def finite(text: str) -> float:
    """A float that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


# how a config value or option of each type is parsed
_PARSERS = {bool: boolean, float: finite}


def _convert(key: str, text: str, kind):
    try:
        return _PARSERS.get(kind, kind)(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def _make(cls, values: dict):
    """`cls(**values)`; a missing or rejected value is a config error."""
    try:
        return cls(**values)
    except TypeError as exc:
        raise ConfigError(f"incomplete config: {exc}") from exc
    except Lod3Error as exc:
        raise ConfigError(str(exc)) from exc


def _from_args(cls, args, **values):
    """`cls` from the parsed options named after its fields, plus `values`."""
    values.update((f.name, getattr(args, f.name)) for f in fields(cls)
                  if hasattr(args, f.name))
    return _make(cls, values)


def build_config(raw: dict, base_dir: str = ".") -> PipelineConfig:
    """Typed config from raw strings; paths resolve against `base_dir`."""
    top: dict = {}
    blocks: dict = {block: {} for block in _BLOCKS}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        block, kind = _CONFIG_KEYS[key]
        if block is not None:
            blocks[block][key] = _convert(key, value, kind)
        elif kind is str:  # every top-level text value is a path
            top[key] = os.path.normpath(os.path.join(base_dir, value))
        elif kind is tuple:
            top[key] = tuple(value.split())
        else:
            top[key] = _convert(key, value, kind)
    for block, values in blocks.items():
        top[block] = _make(_BLOCKS[block], values)
    return _make(PipelineConfig, top)


@contextlib.contextmanager
def _stage(name: str):
    """Prefix a package error with the stage it came from; an error that
    already names its stage passes through unchanged."""
    try:
        yield
    except Lod3Error as exc:
        if hasattr(exc, "stage"):
            raise
        staged = type(exc)(f"{name}: {exc}")
        staged.stage = name
        raise staged from exc


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage, writing each intermediate to the output dir.

    Returns the artifact paths plus the in-memory metrics dict (empty
    when no ground truth was configured).
    """
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    artifacts: dict = {"out_dir": out, "metrics": {}}

    def save(write, value, name):
        """`write` `value` to the artifact `name`.txt in the output dir."""
        artifacts[name] = os.path.join(out, f"{name}.txt")
        write(value, artifacts[name])

    with _stage("prior"):
        solid = _read_prior(config.solid)
    with _stage("faces"):
        faces = _faces(solid, config.faces)
        surface = _surface(faces, config.occupancy.voxel_size)
    with _stage("raycast"):
        tree = build_occupancy(_rays(config.rays), surface, config.occupancy)
        save(write_tree, tree, "tree")
    points = probs = None
    if config.points:
        with _stage("project-points"):
            points, probs = read_labeled_points(config.points)
    image = image_channels = homography = None
    if config.image:
        with _stage("project-image"):
            image, image_channels = read_pixel_grid(config.image)
            homography = estimate_homography(
                read_correspondences(config.correspondences))
    with _stage("fuse"):
        cpt = _read_optional(read_cpt, config.cpt)
    with _stage("reconstruct"):
        templates = _read_optional(read_template_library, config.templates)

    instances = []
    for face_id, face in faces.items():
        frame = facade_frame(face, config.raster_cell)
        with _stage("conflicts"):
            conflict = project_conflict_map(tree, face, surface[face_id],
                                            config.uncertainty, frame)
            save(write_raster, conflict, f"conflict_{face_id}")
        pc = tex = None
        if points is not None:
            with _stage("project-points"):
                pc = project_point_probabilities(points, probs, frame,
                                                 band=config.band)
                save(write_raster, pc, f"points_{face_id}")
        if image is not None:
            with _stage("project-image"):
                tex = project_image_probabilities(image, image_channels,
                                                  homography, frame)
                save(write_raster, tex, f"texture_{face_id}")
        with _stage("fuse"):
            posterior = fuse_maps(conflict, pc, tex, cpt)
            save(write_raster, posterior, f"posterior_{face_id}")
        with _stage("extract"):
            instances.extend(extract_openings(posterior, config.extraction,
                                              pc, tex, face_id=face_id))
    with _stage("extract"):
        save(write_instances, instances, "instances")

    with _stage("reconstruct"):
        model = reconstruct_model(solid, instances, templates,
                                  depth=config.depth,
                                  margin=config.cut_margin)
        save(write_model, model, "model")
        artifacts["citygml"] = os.path.join(out, "model.gml")
        write_citygml(model, artifacts["citygml"])

    if config.gt_instances:
        with _stage("evaluate"):
            gt = read_instances(config.gt_instances)
            measured = _read_optional(read_instances, config.gt_measured)
            # ground truth is exact; the boundary margin only guards detections
            gt_model = (read_model(config.gt_model) if config.gt_model
                        else reconstruct_model(solid, gt, templates,
                                               depth=config.depth, margin=0.0))
            metrics = _score(instances, gt, measured, (model, gt_model),
                             config)
            artifacts["metrics"] = metrics
            artifacts["metrics_file"] = os.path.join(out, "metrics.txt")
            write_metrics(metrics, artifacts["metrics_file"])
            artifacts["report"] = os.path.join(out, "report.txt")
            with writing(artifacts["report"]) as fh:
                fh.write(format_report(metrics))
    return artifacts


def _rays(path):
    """The rays of `path` block by block, each read by one call of this
    module's `read_rays`, so a wrapper bound in its place sees every
    block. The first block is read at once: a file that cannot be read
    fails before the next input is read."""
    blocks = ray_blocks(path)

    def rest(block):
        while len(block):
            yield block
            block = read_rays(blocks)
    return rest(read_rays(blocks))


def _read_optional(read, path):
    return read(path) if path else None


def _read_prior(path):
    """The LoD2 prior solid; one that fails validation is an input error."""
    solid = read_solid(path)
    bad = validate_solid(solid)
    if bad:
        raise ParseError(f"{path}: invalid prior: {bad[0]}")
    return solid


def _face(solid, face_id):
    try:
        return solid.face(face_id)
    except KeyError:
        raise ConfigError(f"solid has no face {face_id!r}")


def _faces(solid, face_ids) -> dict:
    """Face id -> face for `face_ids`, or for every wall of the prior when
    none are given."""
    face_ids = face_ids or [f.face_id for f in solid.faces if f.label == "wall"]
    return {face_id: _face(solid, face_id) for face_id in face_ids}


def _surface(faces: dict, voxel_size: float) -> dict:
    """Face id -> the face's surface voxel keys."""
    return {face_id: surface_voxels(face, voxel_size)
            for face_id, face in faces.items()}


def _score(pred, gt, measured, models, settings) -> dict:
    """Detection metrics against `gt` (`measured`: its laser-seen subset, or
    None), plus surface metrics for a (predicted, ground-truth) model pair.
    `settings` is a PipelineConfig or the `evaluate` options alike."""
    tp, fp, fn, matches = match_instances(pred, gt, settings.iou_min)
    mo = len(measured if measured is not None else gt)
    counts = DetectionCounts.from_matching(len(gt), mo, tp, fp)
    da, fa, dm = detection_rates(counts)
    metrics = {"AO": counts.AO, "MO": counts.MO, "D": counts.D,
               "TP": counts.TP, "FP": counts.FP, "FN": counts.FN,
               "DA": da, "FA": fa, "DM": dm,
               "median_iou": median_instance_iou(pred, gt, matches)}
    if matches:
        metrics["median_iou_matched"] = median_instance_iou(
            pred, gt, matches, matched_only=True)
    if models is not None:
        model, gt_model = models
        samples = sample_model_points(gt_model, settings.samples,
                                      seed=settings.sample_seed)
        mean, rms = mesh_deviation(samples, triangulate_model(model))
        metrics["mean_deviation"] = mean
        metrics["rms_deviation"] = rms
        metrics["watertight"] = watertight(model.loops())
    return metrics


# ---------------------------------------------------------------------------
# subcommands

def _cmd_raycast(args) -> int:
    config = _from_args(OccupancyConfig, args)
    rays = _rays(args.rays)
    faces = _faces(_read_prior(args.solid), args.face)
    tree = build_occupancy(rays, _surface(faces, config.voxel_size), config)
    write_tree(tree, args.out)
    print(f"wrote {args.out} ({len(tree)} voxels)")
    return 0


def _face_frame(args, voxel_size: float):
    """Face and raster frame; the cell defaults to one voxel, as in the
    pipeline."""
    face = _face(_read_prior(args.solid), args.face)
    cell = args.cell if args.cell is not None else voxel_size
    return face, facade_frame(face, cell)


def _cmd_conflicts(args) -> int:
    config = _from_args(UncertaintyConfig, args)
    tree = read_tree(args.tree)
    if args.face not in tree.faces:
        raise ParseError(f"{args.tree}: built for faces "
                         f"{', '.join(tree.faces) or '(none)'}, not {args.face!r}")
    face, frame = _face_frame(args, tree.config.voxel_size)
    keys = surface_voxels(face, tree.config.voxel_size)
    write_raster(project_conflict_map(tree, face, keys, config, frame), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_project_points(args) -> int:
    points, probs = read_labeled_points(args.points)
    _, frame = _face_frame(args, OccupancyConfig().voxel_size)
    raster = project_point_probabilities(points, probs, frame, band=args.band)
    write_raster(raster, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_project_image(args) -> int:
    image, channels = read_pixel_grid(args.image)
    homography = estimate_homography(read_correspondences(args.correspondences))
    _, frame = _face_frame(args, OccupancyConfig().voxel_size)
    raster = project_image_probabilities(image, channels, homography, frame)
    write_raster(raster, args.out)
    print(f"wrote {args.out}")
    return 0


def _raster(path, *channels):
    """The raster at `path`, None without a path; it must hold `channels`."""
    raster = _read_optional(read_raster, path)
    for name in channels if raster else ():
        if name not in raster.channels:
            raise ParseError(f"{path}: missing channel {name!r}")
    return raster


def _cmd_fuse(args) -> int:
    conflict = _raster(args.conflict, *CONFLICT_CHANNELS)
    pc, tex = _raster(args.pc), _raster(args.tex)
    cpt = _read_optional(read_cpt, args.cpt)
    write_raster(fuse_maps(conflict, pc, tex, cpt), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_extract(args) -> int:
    config = _from_args(ExtractionConfig, args)
    posterior = _raster(args.posterior, "opening")
    pc, tex = _raster(args.pc), _raster(args.tex)
    instances = extract_openings(posterior, config, pc, tex, face_id=args.face)
    write_instances(instances, args.out)
    print(f"wrote {args.out} ({len(instances)} instances)")
    return 0


def _cmd_reconstruct(args) -> int:
    solid = _read_prior(args.solid)
    instances = read_instances(args.instances)
    faces = {f.face_id for f in solid.faces}
    for inst in instances:
        if inst.face_id not in faces:
            raise ParseError(f"{args.instances}: instance references unknown "
                             f"face {inst.face_id!r}")
    # one cell of the default raster, as in the pipeline
    margin = (args.margin if args.margin is not None
              else OccupancyConfig().voxel_size)
    templates = _read_optional(read_template_library, args.templates)
    model = reconstruct_model(solid, instances, templates,
                              depth=args.depth, margin=margin)
    write_model(model, args.out_model)
    write_citygml(model, args.out_gml)
    print(f"wrote {args.out_model} and {args.out_gml} "
          f"({len(model.placements)} openings, volume {model.volume():.6f})")
    return 0


def _cmd_evaluate(args) -> int:
    if (args.model is None) != (args.gt_model is None):
        raise ConfigError("--model and --gt-model must be given together")
    pred = read_instances(args.pred)
    gt = read_instances(args.gt)
    measured = _read_optional(read_instances, args.measured)
    models = None
    if args.model is not None:
        models = read_model(args.model), read_model(args.gt_model)
    metrics = _score(pred, gt, measured, models, args)
    if args.out:
        write_metrics(metrics, args.out)
    sys.stdout.write(format_report(metrics))
    return 0


def _parse_opening(text: str) -> SynthOpening:
    tok = text.replace(",", " ").split()
    if len(tok) not in (5, 6):
        raise ConfigError(
            f"opening must be 'u0 v0 u1 v1 label [covered]', got {text!r}")
    try:
        rect = tuple(float(t) for t in tok[:4])
    except ValueError as exc:
        raise ConfigError(f"bad opening rect in {text!r}") from exc
    covered = False
    if len(tok) == 6:
        if tok[5] != "covered":
            raise ConfigError(f"trailing token must be 'covered' in {text!r}")
        covered = True
    return SynthOpening(rect, tok[4], covered)


def _cmd_synth(args) -> int:
    openings = {}
    if args.opening:
        openings["openings"] = tuple(_parse_opening(o) for o in args.opening)
    spec = _from_args(SceneSpec, args, **openings)
    paths = synth_scene(spec, args.out)
    lines = ["# pipeline configuration for the generated scene"]
    lines += [f"{key} = {os.path.basename(path)}" for key, path in paths.items()]
    lines += [f"faces = {FRONT_FACE}", "out_dir = artifacts"]
    with writing(os.path.join(args.out, "scene.cfg")) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote scene into {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    raw = key_values(args.config)
    # every pipeline option is named after the config key it overrides
    for key, value in vars(args).items():
        if key in _CONFIG_KEYS and value is not None:
            raw[key] = str(value)
    config = build_config(raw, os.path.dirname(os.path.abspath(args.config)))
    artifacts = run_pipeline(config)
    print(f"pipeline complete: {artifacts['out_dir']}")
    if artifacts["metrics"]:
        sys.stdout.write(format_report(artifacts["metrics"]))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# flags whose spelling does not follow from the field name
_FLAGS = {"voxel_size": "--vs", "log_odds_hit": "--l-hit",
          "log_odds_miss": "--l-miss", "log_odds_min": "--l-min",
          "log_odds_max": "--l-max", "sample_seed": "--seed",
          "noise_sigma": "--noise"}


def _in_range(parse, test, rule: str):
    """`parse`, rejecting a value that fails its field's range `test`."""
    def parse_in_range(text):
        value = parse(text)
        if not test(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    # argparse names the type in its message for an unparsable value
    parse_in_range.__name__ = parse.__name__
    return parse_in_range


def _add_options(parser, cls, *names, override: bool = False) -> None:
    """One option per (named) field of `cls`, stored under the field name,
    with its type and default; an override option defaults to None."""
    types = _field_types(cls)
    for f in fields(cls):
        if names and f.name not in names:
            continue
        kind = types[f.name]
        parse = _PARSERS.get(kind, kind)
        if "range" in f.metadata:
            parse = _in_range(parse, *f.metadata["range"])
        doc = "default: %(default)s" if f.default is not None else None
        parser.add_argument(
            _FLAGS.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name,
            type=parse,
            metavar="{true,false}" if kind is bool else None,
            default=None if override else f.default,
            help=f"override {f.name}" if override else doc)


def _facade_stage(sub, name: str, inputs, **texts):
    """Subcommand `name` writing a raster of one face, with its parser's
    help and description `texts`: the `inputs`, the prior, the face and
    the output are required paths, plus --cell."""
    texts.setdefault("description", "--cell defaults to the default voxel size.")
    p = sub.add_parser(name, **texts)
    for flag in inputs + ["--solid", "--face", "--out"]:
        p.add_argument(flag, required=True)
    _add_options(p, PipelineConfig, "cell")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lod3recon",
        description="Reconstruct semantic LoD3 building models from laser "
                    "rays, an LoD2 prior, and semantic probability maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("raycast",
                       help="integrate rays into the occupancy grid of the "
                            "prior's surface voxels",
                       description="--face defaults to every wall, as in the "
                                   "pipeline.")
    p.add_argument("--rays", required=True)
    p.add_argument("--solid", required=True)
    p.add_argument("--face", action="append",
                   help="face whose surface voxels the tree keeps; repeatable")
    p.add_argument("--out", required=True)
    _add_options(p, OccupancyConfig)
    p.set_defaults(func=_cmd_raycast)

    p = _facade_stage(sub, "conflicts", ["--tree"],
                      help="project voxel states onto a facade raster",
                      description="--cell defaults to the tree's voxel size.")
    _add_options(p, UncertaintyConfig)
    p.set_defaults(func=_cmd_conflicts)

    p = _facade_stage(sub, "project-points", ["--points"],
                      help="project labeled scan points onto a facade raster")
    _add_options(p, PipelineConfig, "band")
    p.set_defaults(func=_cmd_project_points)

    p = _facade_stage(sub, "project-image", ["--image", "--correspondences"],
                      help="warp an image probability grid onto a facade")
    p.set_defaults(func=_cmd_project_image)

    p = sub.add_parser("fuse", help="fuse evidence rasters into a posterior")
    p.add_argument("--conflict")
    p.add_argument("--pc", help="point cloud probability raster")
    p.add_argument("--tex", help="texture probability raster")
    p.add_argument("--cpt", help="conditional probability table file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("extract",
                       help="extract opening instances from a posterior")
    p.add_argument("--posterior", required=True)
    p.add_argument("--pc")
    p.add_argument("--tex")
    p.add_argument("--face", required=True)
    p.add_argument("--out", required=True)
    _add_options(p, ExtractionConfig)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("reconstruct",
                       help="cut openings and emit the LoD3 model",
                       description="--margin defaults to one default voxel.")
    p.add_argument("--solid", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--templates")
    _add_options(p, PipelineConfig, "depth", "margin")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-gml", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--measured", help="laser-measured subset of the ground truth")
    p.add_argument("--model", help="predicted model file for surface metrics")
    p.add_argument("--gt-model", help="ground-truth model file")
    _add_options(p, PipelineConfig, "iou_min", "samples", "sample_seed")
    p.add_argument("--out", help="metrics key-value file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", required=True)
    _add_options(p, OccupancyConfig, "voxel_size", override=True)
    _add_options(p, ExtractionConfig, "p_high", "pe_lo", "pe_up", override=True)
    _add_options(p, PipelineConfig, "out_dir", "cpt", "depth", "iou_min",
                 override=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("synth", help="generate a synthetic test scene")
    p.add_argument("--out", required=True)
    _add_options(p, SceneSpec, "width", "height", "depth", "pitch",
                 "noise_sigma", "seed", "image_cell")
    p.add_argument("--opening", action="append",
                   help="'u0 v0 u1 v1 label [covered]'; repeatable")
    p.set_defaults(func=_cmd_synth)

    return parser


# built on the first `main` call and reused; each parse starts afresh
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with _stage(args.command):
            return args.func(args)
    except (ConfigError, IoError, ParseError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Lod3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
