"""Synthetic box-building scenes with known openings.

The generator emits every input the pipeline consumes: a prior solid, a
simulated scan with per-point label probabilities, an image-space
probability grid with facade correspondences, and the ground-truth
opening instances. Everything derives from one seed, so rerunning a spec
reproduces the files byte for byte.

The front wall lies in the y = 0 plane facing -y, so facade (u, v)
coordinates coincide with world (x, z). Scan targets sit on a regular
grid across the wall; each ray comes from the nearest of a row of
stations in front of the building. Rays into an opening usually pass
through and reflect at the interior backplane, except when they clip the
frame, and covered openings return from the facade plane like the wall
while keeping window/door semantics.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError
from .extraction import OpeningInstance, write_instances
from .geom import row_norms
from .model_io import OPENING_LABELS, BuildingSolid, box_solid, write_solid
from .occupancy import ray_writer
from .rasters import (POINT_LABELS, point_writer, write_correspondences,
                      write_pixel_grid)

FRONT_FACE = "wall_front"
IMAGE_CHANNELS = ("window", "door")

# rays generated and written per chunk, in whole u columns: the chunk's
# arrays take a few hundred bytes a ray
SCAN_RAYS = 1 << 15


@dataclass(frozen=True)
class SynthOpening:
    rect: tuple
    label: str
    covered: bool = False

    def __post_init__(self):
        rect = tuple(float(x) for x in self.rect)
        object.__setattr__(self, "rect", rect)
        if len(rect) != 4 or not (rect[0] < rect[2] and rect[1] < rect[3]):
            raise SpecError(f"degenerate opening rect {rect}")
        if self.label not in OPENING_LABELS:
            raise SpecError(f"opening label {self.label!r} must be one of "
                            f"{OPENING_LABELS}")


def default_openings() -> tuple:
    return (SynthOpening((2.0, 2.0, 3.2, 3.0), "window"),
            SynthOpening((6.0, 2.0, 7.2, 3.0), "window"),
            SynthOpening((4.5, 0.2, 5.7, 2.6), "door"))


@dataclass(frozen=True)
class SceneSpec:
    width: float = 10.0
    height: float = 4.0
    depth: float = 5.0
    openings: tuple = field(default_factory=default_openings)
    pitch: float = 0.05
    noise_sigma: float = 0.02
    seed: int = 0
    frame_fraction: float = 0.15
    opening_prob: float = 0.95
    wall_prob: float = 0.9
    image_cell: float = 0.05
    station_height: float = 1.7
    station_distance: float = 5.0
    station_spacing: float = 2.0

    def __post_init__(self):
        for name in ("width", "height", "depth", "pitch", "image_cell",
                     "station_distance", "station_spacing"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise SpecError(f"{name} must be positive and finite")
        # the scan and the image each need a cell across the wall both ways
        for step in ("pitch", "image_cell"):
            for extent in ("width", "height"):
                if round(getattr(self, extent) / getattr(self, step)) == 0:
                    raise SpecError(f"{step} {getattr(self, step)!r} leaves no cell "
                                    f"across the {extent} {getattr(self, extent)!r}")
        if self.seed < 0:
            raise SpecError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise SpecError("noise_sigma must be non-negative and finite")
        # the first station stands half a spacing along the wall
        if not self.station_spacing / 2.0 < self.width:
            raise SpecError(f"station_spacing {self.station_spacing!r} leaves no "
                            f"station along the width {self.width!r}")
        if not 0.0 <= self.frame_fraction <= 1.0:
            raise SpecError("frame_fraction must lie in [0, 1]")
        for name in ("opening_prob", "wall_prob"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise SpecError(f"{name} must lie in (0, 1]")
        openings = tuple(self.openings)
        object.__setattr__(self, "openings", openings)
        for o in openings:
            u0, v0, u1, v1 = o.rect
            if u0 <= 0.0 or v0 <= 0.0 or u1 >= self.width or v1 >= self.height:
                raise SpecError(f"opening {o.rect} leaves the wall interior")
        for i in range(len(openings)):
            for j in range(i + 1, len(openings)):
                a, b = openings[i].rect, openings[j].rect
                if (a[0] <= b[2] and b[0] <= a[2]
                        and a[1] <= b[3] and b[1] <= a[3]):
                    raise SpecError(f"openings {a} and {b} overlap")


def scene_solid(spec: SceneSpec) -> BuildingSolid:
    return box_solid("building", (0.0, 0.0, 0.0),
                     (spec.width, spec.depth, spec.height))


def stations(spec: SceneSpec) -> list:
    xs = []
    x = spec.station_spacing / 2.0
    while x < spec.width:
        xs.append(x)
        x += spec.station_spacing
    return xs


def ground_truth_instances(spec: SceneSpec) -> list:
    return [OpeningInstance(FRONT_FACE, o.rect, o.label, 1.0)
            for o in spec.openings]


def measured_instances(spec: SceneSpec) -> list:
    return [OpeningInstance(FRONT_FACE, o.rect, o.label, 1.0)
            for o in spec.openings if not o.covered]


def _label_probs(label: str, p: float) -> list:
    rest = (1.0 - p) / (len(POINT_LABELS) - 1)
    return [p if name == label else rest for name in POINT_LABELS]


def _scan_shape(spec: SceneSpec) -> tuple:
    """(u columns, v rows) of the scan's target grid; a ray per target."""
    return int(round(spec.width / spec.pitch)), int(round(spec.height / spec.pitch))


def generate_scan(spec: SceneSpec):
    """Yield (rays, points, probs) of the simulated facade sweep, chunk
    by chunk of whole u columns of about SCAN_RAYS rays; `rays` is a
    (k, 7) array of origin, endpoint and hit flag, as `ray_blocks`
    yields them.

    Targets form a pitch grid over the wall, u the outer and v the inner
    order; every ray is a hit. Noise perturbs the return distance along
    the ray, so a ray's traversal line never moves, only its endpoint.
    Only the seeded draws, a normal then a uniform for each ray, are made
    one at a time, to keep the generator's stream; the chunks take them
    in ray order, so they do not change a number.
    """
    rng = np.random.default_rng(spec.seed)
    nx, nz = _scan_shape(spec)
    vs = (np.arange(nz) + 0.5) * spec.pitch
    sts = np.array(stations(spec))
    # each ray's row of `table`: 0 wall, 1 through an opening to the
    # background, 2 + i an opening of the i-th label
    table = np.array([_label_probs("wall", spec.wall_prob),
                      _label_probs("other", spec.wall_prob),
                      *(_label_probs(label, spec.opening_prob)
                        for label in OPENING_LABELS)])
    columns = max(1, SCAN_RAYS // nz)
    for c in range(0, nx, columns):
        us = (np.arange(c, min(c + columns, nx)) + 0.5) * spec.pitch
        n = len(us) * nz
        # rng.normal(0.0, sigma) is 0.0 + sigma * rng.standard_normal() and
        # rng.uniform() is rng.random(), from the same words of the stream
        z, gate = np.fromiter(((rng.standard_normal(), rng.random()) for _ in range(n)),
                              dtype=np.dtype((float, 2)), count=n).T
        noise = 0.0 + spec.noise_sigma * z
        # the nearest station, ties to the smaller one
        sx = sts[np.abs(sts[None, :] - us[:, None]).argmin(axis=1)]
        origins = np.column_stack([np.repeat(sx, nz),
                                   np.full(n, -spec.station_distance),
                                   np.full(n, spec.station_height)])
        span = np.column_stack([np.repeat(us, nz), np.zeros(n),
                                np.tile(vs, len(us))]) - origins
        dist = row_norms(span)
        direction = span / dist[:, None]
        kind = np.zeros((len(us), nz), dtype=np.intp)
        through = np.zeros((len(us), nz), dtype=bool)
        for o in spec.openings:   # disjoint, so at most one holds (u, v)
            inside = np.outer((us > o.rect[0]) & (us < o.rect[2]),
                              (vs > o.rect[1]) & (vs < o.rect[3]))
            kind[inside] = 2 + OPENING_LABELS.index(o.label)
            through[inside] = not o.covered
        kind, through = kind.ravel(), through.ravel() & ~(gate < spec.frame_fraction)
        kind[through] = 1
        # a ray through the opening returns from the backplane y = depth
        back = dist * (spec.station_distance + spec.depth) / spec.station_distance
        points = origins + (np.where(through, back, dist) + noise)[:, None] * direction
        yield np.column_stack([origins, points, np.ones(n)]), points, table[kind]


def generate_image(spec: SceneSpec) -> np.ndarray:
    """(rows, cols, 2) window/door probability grid, row 0 at the top."""
    cols = int(round(spec.width / spec.image_cell))
    rows = int(round(spec.height / spec.image_cell))
    image = np.zeros((rows, cols, len(IMAGE_CHANNELS)), dtype=np.float32)
    us = (np.arange(cols) + 0.5) * spec.image_cell
    vs = spec.height - (np.arange(rows) + 0.5) * spec.image_cell
    for o in spec.openings:
        channel = IMAGE_CHANNELS.index(o.label)
        in_u = (us > o.rect[0]) & (us < o.rect[2])
        in_v = (vs > o.rect[1]) & (vs < o.rect[3])
        image[np.ix_(in_v, in_u, [channel])] = spec.opening_prob
    return image


def image_correspondences(spec: SceneSpec) -> list:
    cols = round(spec.width / spec.image_cell)
    rows = round(spec.height / spec.image_cell)
    return [((0.0, 0.0), (0.0, float(rows))),
            ((spec.width, 0.0), (float(cols), float(rows))),
            ((spec.width, spec.height), (float(cols), 0.0)),
            ((0.0, spec.height), (0.0, 0.0))]


def _check_room(spec: SceneSpec, out_dir) -> None:
    """A SpecError when the scan and the image cannot fit in the free
    space where `out_dir` is or would be made: every number of their
    lines takes two bytes at least, with its separator."""
    nx, nz = _scan_shape(spec)
    pixels = (int(round(spec.width / spec.image_cell))
              * int(round(spec.height / spec.image_cell)))
    need = 2 * (nx * nz * (7 + 3 + len(POINT_LABELS)) + pixels * len(IMAGE_CHANNELS))
    at = os.path.abspath(out_dir)
    while not os.path.exists(at):
        at = os.path.dirname(at)
    free = shutil.disk_usage(at).free
    if need > free:
        raise SpecError(f"a scan of {nx * nz} rays and an image of {pixels} pixels "
                        f"take {need} bytes at least; {at} has {free} free")


def synth_scene(spec: SceneSpec, out_dir) -> dict:
    """Write the full scene file set into `out_dir`; returns the paths,
    keyed by their pipeline config keys in the order `scene.cfg` lists
    them. A scene the free disk space cannot hold is a SpecError before
    any file is written."""
    _check_room(spec, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, name) for key, name in (
        ("rays", "rays.txt"),
        ("solid", "solid.txt"),
        ("points", "points.txt"),
        ("image", "image.txt"),
        ("correspondences", "correspondences.txt"),
        ("gt_instances", "gt_instances.txt"),
        ("gt_measured", "gt_measured.txt"),
    )}
    write_solid(scene_solid(spec), paths["solid"])
    with ray_writer(paths["rays"]) as rays_out, \
            point_writer(paths["points"]) as points_out:
        for rays, points, probs in generate_scan(spec):
            rays_out(rays)
            points_out(points, probs)
    write_pixel_grid(generate_image(spec), IMAGE_CHANNELS, paths["image"])
    write_correspondences(image_correspondences(spec), paths["correspondences"])
    write_instances(ground_truth_instances(spec), paths["gt_instances"])
    write_instances(measured_instances(spec), paths["gt_measured"])
    return paths
