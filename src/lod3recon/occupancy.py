"""Probabilistic occupancy grid built by casting laser rays.

The grid is a sparse map from integer voxel keys to clamped log-odds
occupancy. Each cell also keeps the evidence needed when voxels are
later weighed against the building prior: the hit endpoint nearest the
voxel center and the passing ray whose endpoint lies closest beyond the
voxel along the ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import DomainError, ParseError


def log_odds(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability {p} outside (0, 1)")
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class Ray:
    origin: tuple
    endpoint: tuple
    hit: bool = True

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "endpoint", tuple(float(v) for v in self.endpoint))


@dataclass(frozen=True)
class OccupancyConfig:
    voxel_size: float = 0.1
    log_odds_hit: float = 0.85
    log_odds_miss: float = -0.4
    log_odds_min: float = -2.0
    log_odds_max: float = 3.5
    max_range: float = 100.0

    def __post_init__(self):
        if self.voxel_size <= 0.0:
            raise DomainError("voxel_size must be positive")
        if self.log_odds_min > self.log_odds_max:
            raise DomainError("log_odds_min above log_odds_max")


def grid_index(x: float, voxel_size: float) -> int:
    """Voxel index k with k*voxel_size <= x < (k+1)*voxel_size.

    floor(x / voxel_size) alone can land one cell off when x is an exact
    grid multiple whose division rounds across the boundary; the index is
    normalized against the product so boundary arithmetic stays
    consistent everywhere.
    """
    k = math.floor(x / voxel_size)
    while k * voxel_size > x:
        k -= 1
    while (k + 1) * voxel_size <= x:
        k += 1
    return k


def traverse_voxels(origin, endpoint, voxel_size: float) -> list:
    """Integer keys of voxels the open segment crosses with positive length.

    The voxel containing the endpoint (floor key) is excluded: it
    receives the hit update instead of a pass update. Voxels touched
    only on their boundary are excluded too, and a segment lying exactly
    in a grid plane crosses no voxel interior at all. Boundary crossings
    are evaluated as (n * voxel_size - origin) / direction from the
    integer boundary index n, never accumulated, so results stay
    reproducible.
    """
    vs = float(voxel_size)
    o = [float(v) for v in origin]
    e = [float(v) for v in endpoint]
    d = [e[i] - o[i] for i in range(3)]
    key = [grid_index(o[i], vs) for i in range(3)]
    for ax in range(3):
        if d[ax] == 0.0 and key[ax] * vs == o[ax]:
            return []
    end_key = tuple(grid_index(e[i], vs) for i in range(3))

    step = [0, 0, 0]
    nxt = [0, 0, 0]
    tmax = [math.inf, math.inf, math.inf]
    for ax in range(3):
        if d[ax] > 0.0:
            step[ax] = 1
            nxt[ax] = key[ax] + 1
        elif d[ax] < 0.0:
            step[ax] = -1
            nxt[ax] = key[ax]
        if d[ax] != 0.0:
            tmax[ax] = (nxt[ax] * vs - o[ax]) / d[ax]

    out = []
    t_prev = 0.0
    while True:
        t_hit = min(tmax)
        if min(t_hit, 1.0) > t_prev and tuple(key) != end_key:
            out.append(tuple(key))
        if t_hit >= 1.0:
            return out
        t_prev = t_hit
        for ax in range(3):
            if tmax[ax] == t_hit:
                key[ax] += step[ax]
                nxt[ax] += step[ax]
                tmax[ax] = (nxt[ax] * vs - o[ax]) / d[ax]


class OccupancyTree:
    """Sparse voxel log-odds store with per-cell classification evidence.

    Cells are lists [log_odds, hit_dist, hit_point, pass_dist,
    pass_endpoint]; distances start at inf and points at None until the
    first matching update arrives.
    """

    def __init__(self, config: OccupancyConfig | None = None):
        self.config = config or OccupancyConfig()
        self.cells: dict = {}

    def __len__(self):
        return len(self.cells)

    def key_of(self, point) -> tuple:
        vs = self.config.voxel_size
        return tuple(grid_index(float(v), vs) for v in point)

    def center(self, key) -> np.ndarray:
        vs = self.config.voxel_size
        return (np.asarray(key, dtype=float) + 0.5) * vs

    def _cell(self, key) -> list:
        cell = self.cells.get(key)
        if cell is None:
            cell = [0.0, math.inf, None, math.inf, None]
            self.cells[key] = cell
        return cell

    def _bump(self, cell, delta: float):
        cfg = self.config
        cell[0] = max(cfg.log_odds_min, min(cfg.log_odds_max, cell[0] + delta))

    def add_hit(self, key, endpoint):
        cell = self._cell(key)
        self._bump(cell, self.config.log_odds_hit)
        d = float(np.linalg.norm(self.center(key) - np.asarray(endpoint, float)))
        if d < cell[1]:
            cell[1] = d
            cell[2] = tuple(float(v) for v in endpoint)

    def add_miss(self, key, along_dist: float | None = None, endpoint=None):
        cell = self._cell(key)
        self._bump(cell, self.config.log_odds_miss)
        if along_dist is not None and along_dist < cell[3]:
            cell[3] = float(along_dist)
            cell[4] = tuple(float(v) for v in endpoint)

    def integrate(self, ray: Ray):
        cfg = self.config
        o = np.asarray(ray.origin, dtype=float)
        e = np.asarray(ray.endpoint, dtype=float)
        length = float(np.linalg.norm(e - o))
        hit = ray.hit
        if length > cfg.max_range:
            e = o + (e - o) * (cfg.max_range / length)
            length = cfg.max_range
            hit = False
        if length == 0.0:
            if hit:
                self.add_hit(self.key_of(e), e)
            return
        passed = traverse_voxels(o, e, cfg.voxel_size)
        if passed:
            centers = (np.asarray(passed, dtype=float) + 0.5) * cfg.voxel_size
            u = (e - o) / length
            along = np.abs(length - (centers - o) @ u)
            ep = tuple(float(v) for v in e)
            for k, dist in zip(passed, along):
                self.add_miss(k, float(dist), ep)
        if hit:
            self.add_hit(self.key_of(e), e)


def build_occupancy(rays, config: OccupancyConfig | None = None) -> OccupancyTree:
    tree = OccupancyTree(config)
    for ray in rays:
        tree.integrate(ray)
    return tree


# ---------------------------------------------------------------------------
# file formats

def read_rays(path) -> list:
    """One ray per line: ox oy oz ex ey ez hit(0|1), finite coordinates."""
    rays = []
    for no, text in textio.content_lines(path):
        tok = text.split()
        if len(tok) != 7:
            raise ParseError(f"{path}:{no}: expected 7 columns, got {len(tok)}")
        vals = textio.floats(tok[:6], path, no)
        try:
            hit = int(tok[6])
        except ValueError as exc:
            raise ParseError(f"{path}:{no}: bad number in {tok[6]!r}") from exc
        if hit not in (0, 1):
            raise ParseError(f"{path}:{no}: hit flag must be 0 or 1")
        textio.finite(vals, "coordinate", path, no)
        rays.append(Ray(tuple(vals[:3]), tuple(vals[3:]), bool(hit)))
    return rays


def write_rays(rays, path) -> None:
    with textio.writing(path) as fh:
        fh.write("# ox oy oz  ex ey ez  hit\n")
        for r in rays:
            fh.write(" ".join(repr(v) for v in (*r.origin, *r.endpoint))
                     + f" {int(r.hit)}\n")


def write_tree(tree: OccupancyTree, path) -> None:
    with textio.writing(path) as fh:
        fh.write(f"voxels voxel_size={tree.config.voxel_size!r}\n")
        for key in sorted(tree.cells):
            c = tree.cells[key]
            hit_pt = c[2] or (0.0, 0.0, 0.0)
            pass_pt = c[4] or (0.0, 0.0, 0.0)
            vals = (c[0], c[1], *hit_pt, c[3], *pass_pt)
            fh.write(" ".join(str(k) for k in key) + " "
                     + " ".join(repr(v) for v in vals) + "\n")


def read_tree(path) -> OccupancyTree:
    """The `voxels voxel_size=<v>` header, then one line per voxel: key,
    finite log-odds, hit distance and point, pass distance and endpoint.
    An infinite distance marks evidence that never arrived."""
    lines = textio.content_lines(path)
    first = next(lines, None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    no, head = first
    tok = head.split()
    if len(tok) != 2 or tok[0] != "voxels":
        raise ParseError(f"{path}:{no}: expected 'voxels voxel_size=<v>'")
    vs = textio.floats([textio.kv(tok[1], "voxel_size", path, no)], path, no)
    vs = textio.finite(vs, "voxel size", path, no)[0]
    tree = OccupancyTree(OccupancyConfig(voxel_size=vs))
    for no, text in lines:
        tok = text.split()
        if len(tok) != 12:
            raise ParseError(f"{path}:{no}: expected 12 columns, got {len(tok)}")
        try:
            key = tuple(int(t) for t in tok[:3])
            vals = [float(t) for t in tok[3:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{no}: bad number") from exc
        if not math.isfinite(vals[0]):
            raise ParseError(f"{path}:{no}: non-finite log-odds")
        cell = [vals[0], vals[1], None, vals[5], None]
        if math.isfinite(vals[1]):
            cell[2] = tuple(vals[2:5])
        if math.isfinite(vals[5]):
            cell[4] = tuple(vals[6:9])
        tree.cells[key] = cell
    return tree
