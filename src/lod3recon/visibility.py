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
from .occupancy import OccupancyTree, grid_index, log_odds


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


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def positioning_probability(dist: float, sigma: float, voxel_size: float) -> float:
    """Probability mass a Gaussian surface estimate puts on a voxel-wide
    slab centered `dist` away from its mean. `sigma` is in voxel units."""
    if sigma <= 0.0 or voxel_size <= 0.0:
        raise DomainError("sigma and voxel_size must be positive")
    s = sigma * voxel_size
    half = 0.5 * voxel_size
    return _phi((dist + half) / s) - _phi((dist - half) / s)


def positioning_confidence(dist: float, sigma: float, voxel_size: float) -> float:
    """Slab mass normalized against a perfectly centered estimate, so a
    zero-distance match scores 1.

    The centered slab holds the maximum mass, so the ratio can pass 1
    only through rounding in erf; clamp to keep a valid probability.
    """
    ratio = (positioning_probability(dist, sigma, voxel_size)
             / positioning_probability(0.0, sigma, voxel_size))
    return min(ratio, 1.0)


def joint_state_probability(p_position: float, p_state: float):
    """(p_confirmed, p_conflicted) from the two independent confidences."""
    if not (0.0 <= p_position <= 1.0 and 0.0 <= p_state <= 1.0):
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


def surface_voxels(face, voxel_size: float) -> list:
    """Voxel keys whose interior the face, minus its holes, overlaps
    (strict triangle/voxel overlap). A face lying exactly in a grid plane
    only touches the two voxel layers that share it, so it is moved half a
    voxel against its outward normal first and selects the inner layer."""
    vs = float(voxel_size)
    pts = np.asarray([p for ring in face.loops() for p in ring], dtype=float)
    n, d = face.plane()
    ax = _grid_plane_axis(n, d, vs)
    if ax is not None:
        pts[:, ax] -= math.copysign(0.5 * vs, n[ax])
    keys = set()
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
            keys.update(map(tuple, part[hit].tolist()))
    return sorted(keys)


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class SurfaceVoxel:
    key: tuple
    state: str            # occupied, empty, or unknown
    p_confirmed: float
    p_conflicted: float


def classify_surface_voxels(tree: OccupancyTree, face, keys,
                            config: UncertaintyConfig | None = None) -> list:
    """Score every surface voxel of `face`, `keys` as `surface_voxels`
    gives them, against the ray evidence.

    Occupied voxels are judged by their nearest contributing hit (plane
    agreement and distance to the voxel center); empty voxels by the
    closest passing ray's endpoint (how far behind the face it landed).
    Voxels without usable evidence come back as unknown.
    """
    cfg = config or UncertaintyConfig()
    vs = tree.config.voxel_size
    s_pos, s_state = cfg.sigmas(vs)
    # probability >= occupied_threshold, tested once in log-odds
    occupied = log_odds(cfg.occupied_threshold)
    n, d = face.plane()
    out = []
    for key, row in zip(keys, tree.find(keys).tolist()):
        if row < 0:
            d_state = math.inf
        elif tree.log_odds[row] >= occupied:
            state, point, d_state = ("occupied", tree.hit_point[row],
                                     tree.hit_dist[row])
        else:
            state, point, d_state = ("empty", tree.pass_point[row],
                                     tree.pass_dist[row])
        if d_state == math.inf:
            out.append(SurfaceVoxel(key, "unknown", 0.0, 0.0))
            continue
        d_state = float(d_state)
        d_pos = abs(float(point @ n) - d)
        p_pos = positioning_confidence(d_pos, s_pos, vs)
        p_state = positioning_confidence(d_state, s_state, vs)
        p_conf, p_confl = joint_state_probability(p_pos, p_state)
        out.append(SurfaceVoxel(key, state, p_conf, p_confl))
    return out


def project_conflict_map(tree: OccupancyTree, face, keys,
                         config: UncertaintyConfig | None = None,
                         frame: rasters.FacadeFrame | None = None) -> rasters.FacadeRaster:
    """Three-channel facade raster (conflicted, confirmed, unknown) of
    the face's surface voxels `keys`.

    Pixels without any measured surface voxel stay fully unknown. With
    the default max aggregation a pixel takes the scores of its most
    conflicted voxel; mean aggregation averages all measured voxels.
    """
    cfg = config or UncertaintyConfig()
    vs = tree.config.voxel_size
    if frame is None:
        frame = rasters.facade_frame(face, vs)
    raster = rasters.FacadeRaster.zeros(frame, rasters.CONFLICT_CHANNELS)
    raster.data[:, :, 2] = 1.0
    voxels = classify_surface_voxels(tree, face, keys, cfg)
    measured = [sv for sv in voxels if sv.state != "unknown"]
    if not measured:
        return raster
    centers = (np.asarray([sv.key for sv in measured], dtype=float) + 0.5) * vs
    rows, cols, inside = frame.to_pixels(centers)
    agg: dict = {}
    for sv, r, c, ok in zip(measured, rows, cols, inside):
        if not ok:
            continue
        agg.setdefault((int(r), int(c)), []).append(sv)
    for (r, c), svs in agg.items():
        if cfg.aggregate == "max":
            best = max(svs, key=lambda sv: sv.p_conflicted)
            confl, conf = best.p_conflicted, best.p_confirmed
        else:
            confl = float(np.mean([sv.p_conflicted for sv in svs]))
            conf = float(np.mean([sv.p_confirmed for sv in svs]))
        raster.data[r, c] = (confl, conf, 0.0)
    return raster
