"""Rigid motions about the z axis, for tests on facades that are not
aligned with the voxel grid.

A motion turns every 3-D coordinate by a yaw about the z axis through the
origin, then shifts it. A facade's frame follows its face, so moving a
synth scene moves its rays, labeled points and solid, and its instance,
correspondence, image and config files carry over unchanged.
"""

import math
import shutil
from pathlib import Path

import numpy as np

from lod3recon.model_io import BuildingSolid, Face, Ring, read_solid, write_solid
from lod3recon.occupancy import ray_writer
from lod3recon.rasters import point_writer

from scenes import read_all_points, read_all_rays

MOVED_FILES = ("rays.txt", "points.txt", "solid.txt")


def motion(yaw_deg: float, shift=(0.0, 0.0, 0.0)):
    """The motion as a function of (n, 3) coordinates: a turn by `yaw_deg`
    degrees about the z axis, then `shift`."""
    c, s = math.cos(math.radians(yaw_deg)), math.sin(math.radians(yaw_deg))
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    shift = np.asarray(shift, dtype=float)
    return lambda pts: np.asarray(pts, dtype=float).reshape(-1, 3) @ turn.T + shift


def move_solid(solid: BuildingSolid, move) -> BuildingSolid:
    def ring(r):
        return Ring(tuple(map(tuple, move(r.as_array()).tolist())))

    return BuildingSolid(solid.solid_id, solid.lod, tuple(
        Face(f.face_id, f.label, ring(f.outer), tuple(ring(r) for r in f.inner))
        for f in solid.faces))


def move_scene(src, dst, move) -> None:
    """Copy the synth scene directory `src` to `dst` with its rays,
    labeled points and solid moved by `move`."""
    src, dst = Path(src), Path(dst)
    dst.mkdir(parents=True, exist_ok=True)
    for path in src.iterdir():
        if path.is_file() and path.name not in MOVED_FILES:
            shutil.copy(path, dst / path.name)
    rays = read_all_rays(src / "rays.txt")
    rays[:, :3], rays[:, 3:6] = move(rays[:, :3]), move(rays[:, 3:6])
    with ray_writer(dst / "rays.txt") as write:
        write(rays)
    points, probs = read_all_points(src / "points.txt")
    with point_writer(dst / "points.txt") as write:
        write(move(points), probs)
    write_solid(move_solid(read_solid(src / "solid.txt"), move), dst / "solid.txt")
