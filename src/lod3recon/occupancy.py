"""Probabilistic occupancy grid built by casting laser rays.

The grid is a column store restricted to the voxels asked for, in
practice the surface voxels of the prior's faces: nothing else reads
the evidence. `OccupancyTree` holds the integer keys of those voxels
some ray reached, sorted lexicographically, and parallel to them the
clamped log-odds occupancy and the evidence needed when voxels are
later weighed against the building prior: the hit endpoint nearest the
voxel center, and the endpoint of the passing ray that lands closest
beyond the voxel along the ray. A distance of +inf marks evidence that
never arrived; its point is then zero.

`build_occupancy` takes the rays block by block, as `ray_blocks` reads
them, and integrates each block with numpy in chunks of about
`CHUNK_UPDATES` voxel updates, the last of which ends with the block:
no array spans more than a block of rays, so memory does not grow with
the scan. Voxel keys are packed relative to the box of the kept keys,
and a key outside that box is dropped unpacked. A voxel's values depend
on its own updates only, so dropping the updates of other voxels
changes no kept voxel. The result is bit for bit that of integrating
the rays one at a time in file order, however they are split into
blocks or chunks:

- Traversal (Amanatides & Woo 1987): a segment crosses boundary n of an
  axis at t = (n * voxel_size - o) / d, computed from the integer index
  and never accumulated. Crossings at equal t are taken together, and a
  voxel counts only where the segment spends positive length in it.
  Each ray is walked only within its window: from where it first comes
  within two voxels of a face's key box (the bounding box of the face's
  keys) to where it last leaves one, found by slab tests. Inside the
  window the walk is that of the whole segment: the crossings skipped
  before it are counted exactly, per axis, by correcting a float guess
  against the crossings' own t, and added to the keys.
- Log-odds (clamped as in OctoMap): each voxel takes its updates in ray
  order through x = max(lo, min(hi, x + delta)), one rank at a time
  across all voxels. Neither the clamp nor float addition is
  associative, so no scan may regroup the updates.
- Evidence: a strict first minimum, so the earliest ray wins a tie.
- Distances: the one-ray-at-a-time reference takes the ray length and
  the hit distance as np.linalg.norm, and projects all k passed voxel
  centers of a ray in one product (k, 3) @ (3,). The build batches them
  in stacked products of the same row shape, bit for bit: a row of a
  product of two or more rows does not depend on their count or
  position, and a one-row product is np.dot, as np.linalg.norm is. So a
  kept pass is projected as a row of a two-row product, unless its ray
  has one pass in its whole walk, which takes the one-row product.
  Elementwise sums differ from both in the last bit, which the tree
  file would show. `test_blas_rows_do_not_depend_on_the_row_count`
  checks the rule on the BLAS at hand.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geom, textio
from .errors import DomainError, ParseError

# updates (candidate crossings, origin segments and hits) integrated per
# chunk of rays; the temporaries take a few hundred bytes per update.
# Larger chunks only touch more fresh pages; smaller ones pay numpy's
# per-call cost more often, which shows at 10^6 rays
CHUNK_UPDATES = 1 << 14

# voxel indices stay exact float integers below this magnitude
_INDEX_LIMIT = 2.0 ** 53

_RAY_ROW = np.dtype([("ray", "<f8", (6,)), ("hit", "<i8")])
_TREE_ROW = np.dtype([("key", "<i8", (3,)), ("value", "<f8", (9,))])


def log_odds(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability {p} outside (0, 1)")
    return math.log(p / (1.0 - p))


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
        if not self.max_range > 0.0:
            raise DomainError("max_range must be positive")


def grid_index(x, voxel_size: float) -> np.ndarray:
    """Voxel index k with k*voxel_size <= x < (k+1)*voxel_size, elementwise.

    floor(x / voxel_size) alone can land one cell off when x is an exact
    grid multiple whose division rounds across the boundary; the index is
    normalized against the product so boundary arithmetic stays
    consistent everywhere.
    """
    x = np.asarray(x, dtype=float)
    k = np.floor(x / voxel_size)
    if not np.all(np.abs(k) < _INDEX_LIMIT):
        raise DomainError(f"coordinate beyond the voxel grid of size {voxel_size!r}")
    while (over := k * voxel_size > x).any():
        k -= over
    while (under := (k + 1) * voxel_size <= x).any():
        k += under
    return k.astype(np.int64)


def _crossing(j, start, step, o, d, vs):
    """t of candidate crossing j on an axis: the boundary j steps past the
    first one ahead of the origin, n, at t = (n * vs - o) / d."""
    return ((start + (step > 0) + j * step) * vs - o) / d


def _leading(holds, t, start, step, o, d, count, vs):
    """How many of each axis's `count` candidate crossings satisfy
    `holds`, which holds for a prefix of them: guessed from where the
    segment is at `t`, then corrected one step at a time against the
    crossings themselves. An axis without candidates may divide by its
    zero d here; its result is 0 whatever it gets."""
    def crossing(j):
        return _crossing(j, start, step, o, d, vs)

    k = np.clip(step * (np.floor((o + t * d) / vs) - start), 0, count)
    k = k.astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        while (back := (k > 0) & ~holds(crossing(k - 1))).any():
            k -= back
        while (ahead := (k < count) & holds(crossing(k))).any():
            k += ahead
    return k


def traverse(origins, endpoints, voxel_size: float, window=None):
    """(ray, keys) of the voxels each segment crosses with positive
    length, ray by ray in crossing order, within each ray's t window.

    `window` holds [t0, t1] per ray, 0 <= t0 <= t1 <= 1, by default
    [0, 1]. Within it the walk is exactly that of the whole segment:
    the segment containing t0, then the one after each set of crossings
    at equal t up to t1. The voxel containing the endpoint (floor key)
    is excluded: it receives the hit update instead of a pass update.
    Voxels touched only on their boundary are excluded too, and a
    segment lying exactly in a grid plane crosses no voxel interior at
    all. Crossings at t >= 1 lie beyond the endpoint; the candidates on
    an axis run from the first boundary ahead of the origin to the one
    entering the endpoint's voxel.
    """
    vs = float(voxel_size)
    o = np.asarray(origins, dtype=float).reshape(-1, 3)
    e = np.asarray(endpoints, dtype=float).reshape(-1, 3)
    d = e - o
    start, end = grid_index(o, vs), grid_index(e, vs)
    if window is None:
        window = np.tile([0.0, 1.0], (len(o), 1))
    t0, t1 = np.asarray(window, dtype=float).reshape(-1, 2).T[:, :, None]
    # the smallest index type: numpy's stable sort is a radix sort on
    # 16-bit integers
    rays = np.arange(len(o), dtype=np.min_scalar_type(max(len(o) - 1, 0)))
    in_plane = ((d == 0.0) & (start * vs == o)).any(axis=1)
    step = np.sign(d).astype(np.int64)
    count = np.where(in_plane[:, None], 0, np.abs(end - start))

    # per axis the candidates before t0, which are skipped, and those up
    # to t1 short of t = 1
    axes = (start, step, o, d, count, vs)
    skip = _leading(lambda t: t < t0, t0, *axes)
    upto = _leading(lambda t: (t <= t1) & (t < 1.0), t1, *axes)

    ray, t, axis = [], [], []
    for ax in range(3):
        c = upto[:, ax] - skip[:, ax]
        r = np.repeat(rays, c)
        j = np.arange(len(r)) - np.repeat(np.cumsum(c) - c, c)
        ray.append(r)
        t.append(_crossing(np.repeat(skip[:, ax], c) + j, *(
            np.repeat(v[:, ax], c) for v in (start, step, o, d)), vs))
        axis.append(np.full(len(r), ax, dtype=np.int8))
    ray, t, axis = (np.concatenate(a) for a in (ray, t, axis))
    # by t, then stably by ray; crossings at equal t are taken together,
    # so their order does not matter
    order = np.argsort(t)
    order = order[np.argsort(ray[order], kind="stable")]
    ray, t, axis = ray[order], t[order], axis[order]
    first = np.searchsorted(ray, rays)

    # a segment counts when it has positive length: the one containing
    # t0 unless the first crossing in the window is at t = 0 (crossings
    # lie at t >= 0, so none was skipped), and the one after the last of
    # each set of crossings at equal t
    last = np.ones(len(ray), dtype=bool)
    last[:-1] = (ray[1:] != ray[:-1]) | (t[1:] != t[:-1])
    first_t = np.ones(len(o))
    crosses = first < len(ray)
    crosses[crosses] = ray[first[crosses]] == rays[crosses]
    first_t[crosses] = t[first[crosses]]
    entry = (first_t > 0.0) & ~in_plane

    # key after a crossing: the origin's key plus the ray's steps so far,
    # the skipped ones included
    seg_ray = ray[last]
    after = np.empty((len(seg_ray), 3), dtype=np.int64)
    for ax in range(3):
        so_far = np.concatenate([[0], np.cumsum(axis == ax)])
        taken = (so_far[1:][last] - so_far[first][seg_ray]
                 + skip[seg_ray, ax])
        after[:, ax] = start[seg_ray, ax] + step[seg_ray, ax] * taken

    seg_ray = np.concatenate([rays[entry], seg_ray])
    seg_key = np.concatenate([(start + step * skip)[entry], after])
    order = np.argsort(seg_ray, kind="stable")
    seg_ray, seg_key = seg_ray[order], seg_key[order]
    end = end[seg_ray]
    keep = ((seg_key[:, 0] != end[:, 0]) | (seg_key[:, 1] != end[:, 1])
            | (seg_key[:, 2] != end[:, 2]))
    return seg_ray[keep], seg_key[keep]


def clamped_sums(groups, deltas, start, low: float, high: float) -> np.ndarray:
    """Each group's start value taken through x = max(low, min(high, x + d))
    for the group's deltas in order.

    `groups` holds the group index of each delta, non-decreasing, so a
    group's deltas are contiguous. The updates are applied one rank at a
    time across all groups: groups ordered by their delta count, most
    first, leave the active groups of every rank a prefix.
    """
    groups = np.asarray(groups, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=float)
    counts = np.bincount(groups, minlength=len(start))
    rank = np.arange(len(groups)) - (np.cumsum(counts) - counts)[groups]
    by_count = np.argsort(-counts, kind="stable")
    place = np.empty_like(by_count)
    place[by_count] = np.arange(len(by_count))
    ordered = deltas[np.lexsort((place[groups], rank))]
    x = np.array(start, dtype=float)[by_count]
    active = np.searchsorted(-counts[by_count], -np.arange(counts.max(initial=0)))
    offset = 0
    for n in active.tolist():
        v = x[:n]
        v += ordered[offset:offset + n]
        np.minimum(v, high, out=v)
        np.maximum(v, low, out=v)
        offset += n
    out = np.empty_like(x)
    out[by_count] = x
    return out


@dataclass
class OccupancyTree:
    """Voxel keys, sorted lexicographically, with parallel columns.

    `hit_dist` is the distance from the voxel center to the nearest hit
    endpoint `hit_point`; `pass_dist` is how far beyond the voxel center,
    along the ray, the closest passing ray ended, at `pass_point`. An
    infinite distance marks evidence that never arrived. `faces` names
    the prior's faces whose surface voxels the tree was built for.
    """
    config: OccupancyConfig
    keys: np.ndarray          # (n, 3) int64
    log_odds: np.ndarray      # (n,)
    hit_dist: np.ndarray      # (n,)
    hit_point: np.ndarray     # (n, 3)
    pass_dist: np.ndarray     # (n,)
    pass_point: np.ndarray    # (n, 3)
    faces: tuple

    def __len__(self):
        return len(self.keys)

    def find(self, keys) -> np.ndarray:
        """Row of each key, -1 where no ray reached the voxel. The keys
        are packed into one int64 each relative to the tree's key box;
        a key outside it is absent."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        if not len(self.keys):
            return np.full(len(keys), -1, dtype=np.int64)
        low, high = self.keys.min(axis=0), self.keys.max(axis=0)
        scale = _packing(low, high)
        if scale is None:
            raise DomainError("tree keys span more voxels than 64-bit keys can address")
        return _box_rows((self.keys - low) @ scale, low, high, scale, keys)


def _rows(table, query) -> np.ndarray:
    """Index of each of `query` in the sorted `table`, -1 where absent."""
    if not len(table):
        return np.full(len(query), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(table, query), len(table) - 1)
    return np.where(table[pos] == query, pos, -1)


def _box_rows(packed, low, high, scale, keys) -> np.ndarray:
    """Row of each of the (n, 3) int64 voxel `keys` in `packed`, the
    sorted keys of the box [low, high] packed by `scale`; -1 where
    absent. A key outside the box is absent, and is not packed: it
    could overflow, or alias a key inside."""
    rows = np.full(len(keys), -1, dtype=np.int64)
    shifted = keys - low
    # one unsigned test per axis: a key below the box wraps above it
    fits = shifted.view(np.uint64) <= (high - low).astype(np.uint64)
    inside = fits[:, 0] & fits[:, 1] & fits[:, 2]
    rows[inside] = _rows(packed, shifted[inside] @ scale)
    return rows


def _packing(low, high):
    """Multipliers that pack the integer keys of the box [low, high],
    less `low`, into one int64 each in lexicographic order; None when
    the box holds 2^63 keys or more."""
    span = [int(h) - int(l) + 1 for l, h in zip(low, high)]
    if span[0] * span[1] * span[2] >= 2 ** 63:
        return None
    return np.array([span[1] * span[2], span[2], 1], dtype=np.int64)


def _windows(o, e, boxes, vs: float) -> np.ndarray:
    """Per segment the hull [t0, t1] of its parts within two voxels of
    each (low, high) key box, by slab tests, one axis at a time; t0 > t1
    where it meets none. The margin outweighs any rounding: a segment
    lying on a grown box's plane divides zero by zero, meets that box
    nowhere, and is two voxels from its keys."""
    window = np.tile([np.inf, -np.inf], (len(o), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for low, high in boxes:
            enter, leave = np.zeros(len(o)), np.ones(len(o))
            for ax in range(3):
                d = e[:, ax] - o[:, ax]
                a = ((low[ax] - 2) * vs - o[:, ax]) / d
                b = ((high[ax] + 3) * vs - o[:, ax]) / d
                np.maximum(enter, np.minimum(a, b), out=enter)
                np.minimum(leave, np.maximum(a, b), out=leave)
            meets = enter <= leave
            np.minimum(window[:, 0], enter, out=window[:, 0], where=meets)
            np.maximum(window[:, 1], leave, out=window[:, 1], where=meets)
    return window


def build_occupancy(rays, surface: dict, config: OccupancyConfig) -> OccupancyTree:
    """Integrate rays in order into the voxels of `surface`, face id ->
    (m, 3) integer keys; the updates of every other voxel are dropped,
    and the tree covers those faces. `rays` is an iterable of (k, 7)
    blocks of origin, endpoint and hit flag, as `ray_blocks` yields
    them; the tree does not depend on how the rays are split into
    blocks. A ray longer than `max_range` is cut there and counts as a
    miss."""
    vs = config.voxel_size
    face_keys = [np.asarray(k, dtype=np.int64).reshape(-1, 3)
                 for k in surface.values()]
    keys = np.concatenate([np.empty((0, 3), np.int64), *face_keys])

    # keys packed into one int64, offset to the kept keys' box, sort
    # lexicographically; a traversed key outside the box is dropped
    # before it is packed, where it could overflow or alias one inside
    low = keys.min(axis=0) if len(keys) else np.zeros(3, np.int64)
    high = keys.max(axis=0) if len(keys) else low
    scale = _packing(low, high)
    if scale is None:
        raise DomainError("surface keys span more voxels than 64-bit keys can address")
    packed, first = np.unique((keys - low) @ scale, return_index=True)
    keys = keys[first]

    def slots(k):
        return _box_rows(packed, low, high, scale, k)

    n = len(packed)
    reached = np.zeros(n, dtype=bool)
    value = np.zeros(n)
    hit_dist, pass_dist = np.full(n, np.inf), np.full(n, np.inf)
    hit_point, pass_point = np.zeros((n, 3)), np.zeros((n, 3))

    boxes = [(k.min(axis=0), k.max(axis=0)) for k in face_keys if len(k)]
    for o, e, hit, length, end, moving, window in _chunks(rays, config, boxes):
        seg_ray, seg_key = traverse(o[moving], e[moving], vs, window[moving])
        seg_ray = moving[seg_ray]
        # a ray that passes a kept voxel and whose window is cut crosses
        # two voxels of margin inside the window, on the way in or out,
        # and shows two passes or more: a ray that shows one pass has one
        # in its whole walk
        alone = np.bincount(seg_ray, minlength=len(o)) == 1
        seg_slot = slots(seg_key)
        passed = seg_slot >= 0
        seg_ray, seg_key, seg_slot = seg_ray[passed], seg_key[passed], seg_slot[passed]
        centers = (seg_key + 0.5) * vs
        along = geom.row_products(centers - o[seg_ray], (e[seg_ray] - o[seg_ray])
                                  / length[seg_ray][:, None], alone[seg_ray])
        along = np.abs(length[seg_ray] - along)
        hits = np.flatnonzero(hit)
        hit_slot = slots(end[hits])
        hits, hit_slot = hits[hit_slot >= 0], hit_slot[hit_slot >= 0]
        hit_gap = geom.row_norms((end[hits] + 0.5) * vs - e[hits])
        if not len(seg_ray) + len(hits):
            continue

        # every kept update of the chunk in ray order, each ray's passes
        # before its hit, then grouped by voxel; a ray updates a voxel
        # once at most
        at = np.searchsorted(seg_ray, hits, side="right")
        upd_ray = np.insert(seg_ray, at, hits)
        slot = np.insert(seg_slot, at, hit_slot)
        is_hit = np.insert(np.zeros(len(seg_ray), dtype=bool), at, True)
        dist = np.insert(along, at, hit_gap)
        order = np.argsort(slot, kind="stable")
        slot, upd_ray, is_hit, dist = (
            v[order] for v in (slot, upd_ray, is_hit, dist))
        new_voxel = np.ones(len(order), dtype=bool)
        new_voxel[1:] = slot[1:] != slot[:-1]
        voxels = slot[new_voxel]
        group = np.cumsum(new_voxel) - 1

        reached[voxels] = True
        delta = np.where(is_hit, config.log_odds_hit, config.log_odds_miss)
        value[voxels] = clamped_sums(group, delta, value[voxels],
                                     config.log_odds_min, config.log_odds_max)
        # per voxel the first update, in ray order, at the smallest distance
        starts = np.flatnonzero(new_voxel)
        for kind, best_dist, best_point in ((is_hit, hit_dist, hit_point),
                                            (~is_hit, pass_dist, pass_point)):
            d = np.where(kind, dist, np.inf)
            low_d = np.minimum.reduceat(d, starts)
            best = np.flatnonzero((d == low_d[group]) & kind)
            first = np.ones(len(best), dtype=bool)
            first[1:] = group[best][1:] != group[best][:-1]
            best = best[first]
            s = voxels[group[best]]
            closer = d[best] < best_dist[s]
            best_dist[s[closer]] = d[best][closer]
            best_point[s[closer]] = e[upd_ray[best][closer]]

    return OccupancyTree(config, keys[reached], value[reached], hit_dist[reached],
                         hit_point[reached], pass_dist[reached],
                         pass_point[reached], tuple(surface))


def _chunks(blocks, cfg: OccupancyConfig, boxes):
    """The rays of `blocks` in order, each block in chunks of about
    CHUNK_UPDATES voxel updates; a block's last chunk ends with it. Per
    chunk, as `_prepare` makes them: origins, cut endpoints, hit flags,
    lengths, endpoint keys, the rays walked and every ray's window."""
    for rays in blocks:
        columns = _prepare(rays, cfg, boxes)
        cost = columns[-1]
        chunk = (np.cumsum(cost) - cost) // CHUNK_UPDATES
        bounds = [*np.flatnonzero(np.diff(chunk, prepend=-1)).tolist(), len(chunk)]
        for a, b in itertools.pairwise(bounds):
            o, e, hit, length, end, walked, window, _ = (c[a:b] for c in columns)
            yield o, e, hit, length, end, np.flatnonzero(walked), window


def _prepare(rays, cfg: OccupancyConfig, boxes) -> list:
    """Per ray of the (k, 7) array `rays`: origin, endpoint cut at
    `max_range`, hit flag (a cut ray misses), length, endpoint key,
    whether it is walked, its walk window, [0, 0] where it is not
    walked, and its update count. Each ray is walked only within two
    voxels of some face's key box in `boxes`: no crossing outside
    reaches a kept voxel."""
    vs = cfg.voxel_size
    rays = np.asarray(rays, dtype=float).reshape(-1, 7)
    o = rays[:, :3]
    e = rays[:, 3:6].copy()
    hit = rays[:, 6] != 0.0
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        length = geom.row_norms(e - o)
        far = length > cfg.max_range
        e[far] = o[far] + (e[far] - o[far]) * (cfg.max_range / length[far])[:, None]
    length[far] = cfg.max_range
    hit &= ~far
    if not np.isfinite(e).all():
        raise DomainError("ray too long to cut at max_range")
    start, end = grid_index(o, vs), grid_index(e, vs)
    window = _windows(o, e, boxes, vs)
    walked = (window[:, 0] <= window[:, 1]) & (length > 0.0)
    window[~walked] = 0.0
    # a ray's updates: its crossings in the window, the segment containing
    # the window's start and its hit
    share = window[:, 1] - window[:, 0]
    cost = np.ceil(np.abs(end - start).sum(axis=1) * share).astype(np.int64) + 2
    return [o, e, hit, length, end, walked, window, cost]


# ---------------------------------------------------------------------------
# file formats

def ray_blocks(path):
    """Yield the rays of `path` in file order as (k, 7) arrays of at most
    `textio.BLOCK_ROWS` rays, the hit flag as 0.0 or 1.0. One ray per
    line: ox oy oz ex ey ez hit(0|1), finite coordinates. A bad line is
    raised when its block is reached."""
    for table in textio.table_blocks(path, _RAY_ROW, lambda t: [
            ((t["hit"] != 0) & (t["hit"] != 1), "hit flag must be 0 or 1"),
            (~np.isfinite(t["ray"]).all(axis=1), "non-finite coordinate")]):
        yield np.column_stack([table["ray"], table["hit"].astype(float)])


def read_rays(blocks) -> np.ndarray:
    """The next block of the `ray_blocks` iterator `blocks`; no rays, a
    (0, 7) array, once it is spent."""
    return next(blocks, np.empty((0, 7)))


@contextlib.contextmanager
def ray_writer(path):
    """A function that appends (k, 7) ray arrays to the ray file begun at
    `path`."""
    with textio.table_writer(path, "# ox oy oz  ex ey ez  hit\n") as write:
        def write_block(rays):
            rays = np.asarray(rays, dtype=float).reshape(-1, 7)
            write([rays[:, :6], rays[:, 6].astype(np.int64)])
        yield write_block


def write_tree(tree: OccupancyTree, path) -> None:
    textio.write_table(
        path, f"voxels voxel_size={tree.config.voxel_size!r} "
              f"faces={','.join(tree.faces)}\n",
        [tree.keys, tree.log_odds, tree.hit_dist, tree.hit_point,
         tree.pass_dist, tree.pass_point])


def _ascending(keys) -> np.ndarray:
    """Per neighbour pair of (n, 3) keys, whether the second comes after
    the first in lexicographic order."""
    a, b = keys[:-1], keys[1:]
    after = b[:, 2] > a[:, 2]
    for ax in (1, 0):
        after = (b[:, ax] > a[:, ax]) | ((b[:, ax] == a[:, ax]) & after)
    return after


def sorted_keys(keys) -> np.ndarray:
    """Rows of (n, 3) integer keys that list each key once, in
    lexicographic order; a repeated key gives its last row."""
    order = np.lexsort(keys.T[::-1])
    last = np.ones(len(order), dtype=bool)
    last[:-1] = _ascending(keys[order])
    return order[last]


def _tree_header(path, lines):
    """((voxel size, face ids), row dtype) from the
    `voxels voxel_size=<v> faces=<id>,...` line."""
    if not lines:
        raise ParseError(f"{path}: empty file")
    [(no, head)] = lines
    tok = head.split()
    if len(tok) != 3 or tok[0] != "voxels":
        raise ParseError(f"{path}:{no}: expected 'voxels voxel_size=<v> "
                         f"faces=<id>,...'")
    [vs] = textio.finite(
        textio.floats([textio.kv(tok[1], "voxel_size", path, no)], path, no),
        "voxel size", path, no)
    if vs <= 0.0:
        raise ParseError(f"{path}:{no}: voxel size must be positive")
    faces = textio.kv(tok[2], "faces", path, no)
    faces = tuple(faces.split(",")) if faces else ()
    if "" in faces:
        raise ParseError(f"{path}:{no}: empty face id")
    if len(set(faces)) < len(faces):
        raise ParseError(f"{path}:{no}: repeated face id")
    return (vs, faces), _TREE_ROW


def _tree_checks(table):
    vals = table["value"]
    checks = [(~np.isfinite(vals[:, 0]), "non-finite log-odds")]
    for d, what, point in ((1, "hit", "hit point"), (5, "pass", "pass endpoint")):
        dist, at = vals[:, d], vals[:, d + 1:d + 4]
        checks += [
            (~(dist >= 0.0), f"{what} distance must be non-negative or inf"),
            (np.isfinite(dist) & ~np.isfinite(at).all(axis=1), f"non-finite {point}")]
    return checks


def read_tree(path) -> OccupancyTree:
    """The `voxels voxel_size=<v> faces=<id>,...` header, naming a
    positive voxel size and the faces the tree was built for, then one
    line per voxel: key, finite log-odds, hit distance and point, pass
    distance and endpoint. A distance is a non-negative number, or +inf
    for evidence that never arrived; only then may its point be
    non-finite. A key given twice keeps its last line."""
    (vs, faces), table = textio.table(
        path, 1, lambda lines: _tree_header(path, lines), _tree_checks)
    keys, vals = table["key"], table["value"]

    # write_tree leaves the keys ascending; any other order is sorted
    if not _ascending(keys).all():
        rows = sorted_keys(keys)
        keys, vals = keys[rows], vals[rows]
    if len(keys) and _packing(keys.min(axis=0), keys.max(axis=0)) is None:
        raise ParseError(f"{path}: voxel keys span more voxels than 64-bit keys "
                         f"can address")
    for d in (1, 5):
        vals[~np.isfinite(vals[:, d]), d + 1:d + 4] = 0.0
    return OccupancyTree(OccupancyConfig(voxel_size=vs),
                         np.ascontiguousarray(keys), vals[:, 0], vals[:, 1],
                         vals[:, 2:5], vals[:, 5], vals[:, 6:9], faces)
