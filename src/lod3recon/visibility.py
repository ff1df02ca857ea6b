"""Weighing measured occupancy against the building prior.

Every voxel lying on a prior face is scored from the ray evidence it
collected: hits close to the face plane confirm the modelled surface,
rays shooting through with endpoints far behind contradict it. The
scores are projected into a per-facade conflict raster with three
states (conflicted, confirmed, unknown).

Each pixel reads the voxels under it: those holding its sample points
on the face, minus its holes. A face lying exactly in a grid plane reads
the voxel layer behind it, half a voxel against its outward normal; any
other face reads three samples along its normal, half a voxel apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom, rasters
from .errors import DomainError
from .occupancy import OccupancyTree, grid_index, log_odds, sorted_keys


@dataclass(frozen=True)
class UncertaintyConfig:
    sigma_position: float = 3.0   # spread of surface-position agreement, voxel units
    sigma_state: float = 2.85     # spread of per-voxel state evidence, voxel units
    occupied_threshold: float = 0.5   # probability at which a cell counts as occupied

    def __post_init__(self):
        if self.sigma_position <= 0.0 or self.sigma_state <= 0.0:
            raise DomainError("sigmas must be positive")
        if not 0.0 < self.occupied_threshold < 1.0:
            raise DomainError("occupied_threshold outside (0, 1)")


# math.erf elementwise; scipy's erf differs from it in the last bit
_erf = np.frompyfunc(math.erf, 1, 1)


def _phi(x):
    return 0.5 * (1.0 + np.asarray(_erf(x / math.sqrt(2.0)), dtype=float))


def positioning_probability(dist, sigma: float, voxel_size: float):
    """Probability mass a Gaussian surface estimate puts on a voxel-wide
    slab centered `dist` away from its mean, elementwise. `sigma` is in
    voxel units."""
    if sigma <= 0.0 or voxel_size <= 0.0:
        raise DomainError("sigma and voxel_size must be positive")
    s = sigma * voxel_size
    half = 0.5 * voxel_size
    return _phi((dist + half) / s) - _phi((dist - half) / s)


def positioning_confidence(dist, sigma: float, voxel_size: float):
    """Slab mass normalized against a perfectly centered estimate, so a
    zero-distance match scores 1; elementwise.

    The centered slab holds the maximum mass, so the ratio can pass 1
    only through rounding in erf; clamp to keep a valid probability.
    """
    ratio = (positioning_probability(dist, sigma, voxel_size)
             / positioning_probability(0.0, sigma, voxel_size))
    return np.minimum(ratio, 1.0)


def joint_state_probability(p_position, p_state):
    """(p_confirmed, p_conflicted) from the two independent confidences,
    elementwise."""
    if not np.all((0.0 <= p_position) & (p_position <= 1.0)
                  & (0.0 <= p_state) & (p_state <= 1.0)):
        raise DomainError("confidences must lie in [0, 1]")
    p_conf = p_position * p_state
    return p_conf, 1.0 - p_conf


# ---------------------------------------------------------------------------
# surface voxels

def _grid_plane_axis(n, d: float, vs: float):
    """Axis of the normal `n` when the plane n . x = d is a grid plane,
    else None. The plane may miss the grid line k * vs by 1e-9 voxel, or
    by a few float steps of its coordinate far from the origin."""
    ax = int(np.argmax(np.abs(n)))
    if abs(abs(float(n[ax])) - 1.0) > 1e-9:
        return None
    plane = d / float(n[ax])
    miss = abs(plane - round(plane / vs) * vs)
    return ax if miss <= max(1e-9 * vs, 4 * math.ulp(plane)) else None


def pixel_voxels(face, frame: rasters.FacadeFrame, voxel_size: float):
    """(pixel, keys): per sample of the face in `frame`, its flat pixel
    index row * width + col and the (3,) int64 key of a voxel it reads.

    A pixel is sampled at its centre; when the cell exceeds the voxel,
    on the centres of a k x k split of it instead, k =
    `rasters._cover(cell, voxel_size)`. A sample off the face or in one
    of its holes (even-odd in the frame's (u, v)) is dropped. A face
    lying in a grid plane reads the voxel half a voxel behind each
    sample, against its outward normal: the layer behind the plane. Any
    other face reads the three voxels at -1/2, 0 and +1/2 voxel along
    its normal."""
    vs = float(voxel_size)
    k = rasters._cover(frame.cell, vs)
    step = frame.cell / k
    rows, cols = (a.ravel() for a in np.meshgrid(np.arange(frame.height * k),
                                                  np.arange(frame.width * k),
                                                  indexing="ij"))
    u, v = (cols + 0.5) * step, (rows + 0.5) * step
    on = geom.points_in_polygon(np.column_stack([u, v]),
                                [frame.to_uv(ring) for ring in face.loops()])
    pixel = (rows[on] // k) * frame.width + cols[on] // k
    origin, u_axis, v_axis = map(np.asarray, (frame.origin, frame.u_axis, frame.v_axis))
    at = origin + u[on, None] * u_axis + v[on, None] * v_axis
    n, d = face.plane()
    ax = _grid_plane_axis(n, d, vs)
    if ax is not None:
        at[:, ax] -= math.copysign(0.5 * vs, n[ax])
        return pixel, grid_index(at, vs)
    reads = [at + t * vs * n for t in (-0.5, 0.0, 0.5)]
    return np.tile(pixel, 3), grid_index(np.concatenate(reads), vs)


def surface_voxels(face, voxel_size: float) -> np.ndarray:
    """The voxel keys `pixel_voxels` reads on the face's frame at a cell
    of one voxel, each once, as (m, 3) int64 rows in lexicographic order.
    They do not depend on the raster cell, so one tree serves a conflict
    raster of any cell."""
    _, keys = pixel_voxels(face, rasters.facade_frame(face, voxel_size), voxel_size)
    return keys[sorted_keys(keys)]


# ---------------------------------------------------------------------------
# classification

def classify_surface_voxels(tree: OccupancyTree, face, keys, config: UncertaintyConfig):
    """Score the voxels `keys` of `face`, (m, 3) rows as `pixel_voxels`
    gives them, against the ray evidence: parallel arrays (state,
    p_confirmed, p_conflicted), one entry per key.

    Occupied voxels are judged by their nearest contributing hit (plane
    agreement and distance to the voxel center); empty voxels by the
    closest passing ray's endpoint (how far behind the face it landed).
    Voxels without usable evidence come back as unknown, scored 0 and 0.
    """
    vs = tree.config.voxel_size
    rows = tree.find(keys)
    state = np.full(len(rows), "unknown", dtype="U8")
    p_conf, p_confl = np.zeros(len(rows)), np.zeros(len(rows))
    seen = np.flatnonzero(rows >= 0)
    r = rows[seen]
    # probability >= occupied_threshold, tested once in log-odds
    occupied = tree.log_odds[r] >= log_odds(config.occupied_threshold)
    d_state = np.where(occupied, tree.hit_dist[r], tree.pass_dist[r])
    known = d_state != np.inf
    seen, occupied, d_state, r = seen[known], occupied[known], d_state[known], r[known]
    point = np.where(occupied[:, None], tree.hit_point[r], tree.pass_point[r])
    n, d = face.plane()
    # one-row products, each equal to the scalar point @ n
    d_pos = np.abs(geom.row_dots(point, np.broadcast_to(n, point.shape)) - d)
    state[seen] = np.where(occupied, "occupied", "empty")
    p_conf[seen], p_confl[seen] = joint_state_probability(
        positioning_confidence(d_pos, config.sigma_position, vs),
        positioning_confidence(d_state, config.sigma_state, vs))
    return state, p_conf, p_confl


def project_conflict_map(tree: OccupancyTree, face, config: UncertaintyConfig,
                         frame: rasters.FacadeFrame) -> rasters.FacadeRaster:
    """Three-channel facade raster (conflicted, confirmed, unknown) of
    the face in `frame`, each pixel read from the voxels under it
    (`pixel_voxels`).

    A pixel takes the scores of its first most conflicted voxel in key
    order; pixels without any measured voxel stay fully unknown.
    """
    raster = rasters.FacadeRaster.zeros(frame, rasters.CONFLICT_CHANNELS)
    raster.data[:, :, 2] = 1.0
    pixel, keys = pixel_voxels(face, frame, tree.config.voxel_size)
    state, p_conf, p_confl = classify_surface_voxels(tree, face, keys, config)
    measured = state != "unknown"
    pixel, keys = pixel[measured], keys[measured]
    conf, confl = p_conf[measured], p_confl[measured]
    # each pixel's voxels, its most conflicted first, then in key order;
    # the pixel takes the first voxel of its run
    order = np.lexsort((*keys.T[::-1], -confl, pixel))
    first = order[np.flatnonzero(np.diff(pixel[order], prepend=-1))]
    flat = raster.data.reshape(-1, len(rasters.CONFLICT_CHANNELS))
    flat[pixel[first]] = np.column_stack([confl[first], conf[first],
                                          np.zeros(len(first))])
    return raster
