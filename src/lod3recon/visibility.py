"""Weighing measured occupancy against the building prior.

Every voxel lying on a prior face is scored from the ray evidence it
collected: hits close to the face plane confirm the modelled surface,
rays shooting through with endpoints far behind contradict it. The
scores are projected into a per-facade conflict raster with three
states (conflicted, confirmed, unknown).

A face's voxels follow one rule: those whose interior the face, minus
its holes, overlaps (strict triangle/voxel overlap). A face lying
exactly in a grid plane is first moved half a voxel inward, against its
outward normal, so that it selects the voxel layer behind it.
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
    sigma_in_meters: bool = False
    aggregate: str = "max"        # per-pixel conflict aggregation: max or mean
    occupied_threshold: float = 0.5   # probability at which a cell counts as occupied

    def __post_init__(self):
        if self.sigma_position <= 0.0 or self.sigma_state <= 0.0:
            raise DomainError("sigmas must be positive")
        if not 0.0 < self.occupied_threshold < 1.0:
            raise DomainError("occupied_threshold outside (0, 1)")
        if self.aggregate not in ("max", "mean"):
            raise DomainError("aggregate must be 'max' or 'mean'")

    def sigmas(self, voxel_size: float):
        if self.sigma_in_meters:
            return self.sigma_position / voxel_size, self.sigma_state / voxel_size
        return self.sigma_position, self.sigma_state


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


def surface_voxels(face, voxel_size: float) -> np.ndarray:
    """Voxel keys whose interior the face, minus its holes, overlaps
    (strict triangle/voxel overlap), as (m, 3) int64 rows in lexicographic
    order. A face lying exactly in a grid plane only touches the two voxel
    layers that share it, so it is moved half a voxel against its outward
    normal first and selects the inner layer."""
    vs = float(voxel_size)
    pts = np.asarray([p for ring in face.loops() for p in ring], dtype=float)
    n, d = face.plane()
    ax = _grid_plane_axis(n, d, vs)
    if ax is not None:
        pts[:, ax] -= math.copysign(0.5 * vs, n[ax])
    keys = [np.empty((0, 3), dtype=np.int64)]
    for t in geom.triangulate_loop_3d(face.outer.points,
                                      [r.points for r in face.inner]):
        tri = pts[list(t)]
        if geom.triangle_areas([tri])[0] < 1e-14:
            continue
        lo = grid_index(tri.min(axis=0), vs)
        hi = grid_index(tri.max(axis=0), vs)
        axes = [np.arange(lo[a], hi[a] + 1) for a in range(3)]
        cand = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        # a few thousand boxes at a time keep the test's temporaries small
        for part in np.array_split(cand, len(cand) // 4096 + 1):
            hit = geom.tri_box_overlap_strict(tri, part * vs, (part + 1) * vs)
            keys.append(part[hit])
    keys = np.concatenate(keys)
    return keys[sorted_keys(keys)]


# ---------------------------------------------------------------------------
# classification

def classify_surface_voxels(tree: OccupancyTree, face, keys,
                            config: UncertaintyConfig | None = None):
    """Score every surface voxel of `face`, `keys` as `surface_voxels`
    gives them, against the ray evidence: parallel arrays (state,
    p_confirmed, p_conflicted), one entry per key.

    Occupied voxels are judged by their nearest contributing hit (plane
    agreement and distance to the voxel center); empty voxels by the
    closest passing ray's endpoint (how far behind the face it landed).
    Voxels without usable evidence come back as unknown, scored 0 and 0.
    """
    cfg = config or UncertaintyConfig()
    vs = tree.config.voxel_size
    s_pos, s_state = cfg.sigmas(vs)
    rows = tree.find(keys)
    state = np.full(len(rows), "unknown", dtype="U8")
    p_conf, p_confl = np.zeros(len(rows)), np.zeros(len(rows))
    seen = np.flatnonzero(rows >= 0)
    r = rows[seen]
    # probability >= occupied_threshold, tested once in log-odds
    occupied = tree.log_odds[r] >= log_odds(cfg.occupied_threshold)
    d_state = np.where(occupied, tree.hit_dist[r], tree.pass_dist[r])
    known = d_state != np.inf
    seen, occupied, d_state, r = seen[known], occupied[known], d_state[known], r[known]
    point = np.where(occupied[:, None], tree.hit_point[r], tree.pass_point[r])
    n, d = face.plane()
    # one-row products, each equal to the scalar point @ n
    d_pos = np.abs(geom.row_dots(point, np.broadcast_to(n, point.shape)) - d)
    state[seen] = np.where(occupied, "occupied", "empty")
    p_conf[seen], p_confl[seen] = joint_state_probability(
        positioning_confidence(d_pos, s_pos, vs),
        positioning_confidence(d_state, s_state, vs))
    return state, p_conf, p_confl


def project_conflict_map(tree: OccupancyTree, face, keys,
                         config: UncertaintyConfig | None = None,
                         frame: rasters.FacadeFrame | None = None) -> rasters.FacadeRaster:
    """Three-channel facade raster (conflicted, confirmed, unknown) of
    the face's surface voxels `keys`.

    Pixels without any measured surface voxel stay fully unknown. With
    the default max aggregation a pixel takes the scores of its first
    most conflicted voxel in key order; mean aggregation averages all
    its measured voxels.
    """
    cfg = config or UncertaintyConfig()
    vs = tree.config.voxel_size
    if frame is None:
        frame = rasters.facade_frame(face, vs)
    raster = rasters.FacadeRaster.zeros(frame, rasters.CONFLICT_CHANNELS)
    raster.data[:, :, 2] = 1.0
    state, p_conf, p_confl = classify_surface_voxels(tree, face, keys, cfg)
    measured = state != "unknown"
    centers = (keys[measured] + 0.5) * vs
    rows, cols, inside = frame.to_pixels(centers)
    pixel = (rows * frame.width + cols)[inside]
    conf, confl = p_conf[measured][inside], p_confl[measured][inside]
    # each pixel's voxels in key order; for max, its most conflicted first
    order = (np.lexsort((-confl, pixel)) if cfg.aggregate == "max"
             else np.argsort(pixel, kind="stable"))
    pixel, conf, confl = pixel[order], conf[order], confl[order]
    first = np.flatnonzero(np.diff(pixel, prepend=-1))
    if cfg.aggregate == "max":
        conf, confl = conf[first], confl[first]
    else:
        conf, confl = _run_means(conf, first), _run_means(confl, first)
    flat = raster.data.reshape(-1, len(rasters.CONFLICT_CHANNELS))
    flat[pixel[first]] = np.column_stack([confl, conf, np.zeros(len(first))])
    return raster


def _run_means(values, first) -> np.ndarray:
    """Mean of each run of `values` from one index of `first` to the next,
    bit for bit as np.mean of the run: np.mean's pairwise sum starts from
    0.0, reduceat's from the run's first value, so each run gets a 0.0."""
    count = np.diff(first, append=len(values))
    padded = np.insert(values, first, 0.0)
    return np.add.reduceat(padded, first + np.arange(len(first))) / count
