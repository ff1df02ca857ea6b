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

# (triangle, box) pairs tested at a time; the test's temporaries take a
# few hundred bytes per pair
PAIRS = 1 << 12


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


def face_triangles(face, voxel_size: float) -> np.ndarray:
    """(T, 3, 3) triangles of the face minus its holes, slivers of area
    below 1e-14 left out. A face lying exactly in a grid plane only
    touches the two voxel layers that share it, so it is moved half a
    voxel against its outward normal and selects the inner layer."""
    vs = float(voxel_size)
    pts = np.asarray([p for ring in face.loops() for p in ring], dtype=float)
    n, d = face.plane()
    ax = _grid_plane_axis(n, d, vs)
    if ax is not None:
        pts[:, ax] -= math.copysign(0.5 * vs, n[ax])
    tris = pts[np.array(geom.triangulate_loop_3d(
        face.outer.points, [r.points for r in face.inner]), dtype=np.intp).reshape(-1, 3)]
    return tris[geom.triangle_areas(tris) >= 1e-14]


def surface_voxels(face, voxel_size: float) -> np.ndarray:
    """Voxel keys whose interior the face, minus its holes, overlaps
    (strict triangle/voxel overlap), as (m, 3) int64 rows in lexicographic
    order; a face in a grid plane selects the layer behind it (see
    `face_triangles`).

    Each triangle is tested only against the boxes of its key box that
    can overlap it (`_candidates`), all (triangle, box) pairs of the face
    in one pass."""
    vs = float(voxel_size)
    tris = face_triangles(face, vs)
    low, high = grid_index(tris.min(axis=1), vs), grid_index(tris.max(axis=1), vs)
    which, keys = [np.empty(0, np.intp)], [np.empty((0, 3), np.int64)]
    for t, (tri, lo, hi) in enumerate(zip(tris, low, high)):
        k = _candidates(tri, lo, hi, vs)
        which.append(np.full(len(k), t, dtype=np.intp))
        keys.append(k)
    which, keys = np.concatenate(which), np.concatenate(keys)
    hit = np.concatenate([np.zeros(0, dtype=bool)] + [
        geom.tri_box_overlap_strict(tris, keys[a:a + PAIRS] * vs,
                                    (keys[a:a + PAIRS] + 1) * vs, which[a:a + PAIRS])
        for a in range(0, len(keys), PAIRS)])
    keys = keys[hit]
    return keys[sorted_keys(keys)]


def _candidates(tri, lo, hi, vs: float) -> np.ndarray:
    """Keys of the boxes of the key box [lo, hi] that the strict test
    could find overlapping the triangle; the others lie beyond a
    separating axis by far more than rounding.

    The boxes come in columns along the normal's largest axis k. A
    column is left out where its cell lies outside an edge of the
    triangle's projection along k. In a column, a box is left out where
    its centre lies farther from the slab between the planes through the
    vertices than half the box's extent along the normal: a few boxes
    are left per column."""
    n = geom.cross(tri[1] - tri[0], tri[2] - tri[0])
    k = int(np.argmax(np.abs(n)))
    i, j = (k + 1) % 3, (k + 2) % 3
    # a margin well above the rounding of these tests and of the strict one
    margin = 1e-6 * vs + 64 * np.spacing(np.abs(tri).max())
    ci, cj = (a.ravel() for a in np.meshgrid(np.arange(lo[i], hi[i] + 1),
                                              np.arange(lo[j], hi[j] + 1),
                                              indexing="ij"))
    ui, uj = (ci + 0.5) * vs - tri[0, i], (cj + 0.5) * vs - tri[0, j]
    # (i, j, k) is a cyclic order, so the projection winds counter-clockwise
    # when n[k] > 0
    keep = np.ones(len(ci), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        di, dj = tri[b, i] - tri[a, i], tri[b, j] - tri[a, j]
        oa_i, oa_j = tri[a, i] - tri[0, i], tri[a, j] - tri[0, j]
        side = (di * (uj - oa_j) - dj * (ui - oa_i)) * math.copysign(1.0, n[k])
        keep &= side >= -(0.5 * vs + margin) * (abs(di) + abs(dj))
    ci, cj, ui, uj = ci[keep], cj[keep], ui[keep], uj[keep]
    # the centre line of a column meets the plane through tri[0] at
    # height `at` along k; the planes through the vertices lie `off` from it
    at = tri[0, k] - (n[i] * ui + n[j] * uj) / n[k]
    off = (tri - tri[0]) @ n / n[k]
    reach = 0.5 * vs * np.abs(n).sum() / abs(n[k]) + margin
    first = np.ceil((at + off.min() - reach) / vs - 0.5)
    last = np.floor((at + off.max() + reach) / vs - 0.5)
    first = np.maximum(first, lo[k]).astype(np.int64)
    count = np.maximum(np.minimum(last, hi[k]) - first + 1, 0).astype(np.int64)
    keys = np.empty((int(count.sum()), 3), dtype=np.int64)
    keys[:, i], keys[:, j] = np.repeat(ci, count), np.repeat(cj, count)
    keys[:, k] = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(keys))
    return keys


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
        positioning_confidence(d_pos, cfg.sigma_position, vs),
        positioning_confidence(d_state, cfg.sigma_state, vs))
    return state, p_conf, p_confl


def project_conflict_map(tree: OccupancyTree, face, keys, config: UncertaintyConfig,
                         frame: rasters.FacadeFrame) -> rasters.FacadeRaster:
    """Three-channel facade raster (conflicted, confirmed, unknown) of
    the face's surface voxels `keys` in `frame`.

    A pixel takes the scores of its first most conflicted voxel in key
    order; pixels without any measured surface voxel stay fully unknown.
    """
    vs = tree.config.voxel_size
    raster = rasters.FacadeRaster.zeros(frame, rasters.CONFLICT_CHANNELS)
    raster.data[:, :, 2] = 1.0
    state, p_conf, p_confl = classify_surface_voxels(tree, face, keys, config)
    measured = state != "unknown"
    centers = (keys[measured] + 0.5) * vs
    rows, cols, inside = frame.to_pixels(centers)
    pixel = (rows * frame.width + cols)[inside]
    conf, confl = p_conf[measured][inside], p_confl[measured][inside]
    # each pixel's voxels in key order, its most conflicted first; the
    # pixel takes the first voxel of its run
    order = np.lexsort((-confl, pixel))
    first = order[np.flatnonzero(np.diff(pixel[order], prepend=-1))]
    flat = raster.data.reshape(-1, len(rasters.CONFLICT_CHANNELS))
    flat[pixel[first]] = np.column_stack([confl[first], conf[first],
                                          np.zeros(len(first))])
    return raster
