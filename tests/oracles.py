"""Brute-force reference implementations shared by the test modules.

Everything here must stay independent of the package internals: these
routines recompute results from first principles so the real code can be
checked against them.
"""

import math

import numpy as np
from scipy import ndimage


def floor_key(x, vs):
    # containing index under product comparisons: k*vs <= x < (k+1)*vs
    k = math.floor(x / vs)
    while k * vs > x:
        k -= 1
    while (k + 1) * vs <= x:
        k += 1
    return k


def slab_traverse(origin, endpoint, vs):
    """Clip the segment against every candidate voxel's slabs; keep voxels
    with strictly positive interior length, ordered by entry parameter,
    excluding the endpoint's floor-key voxel."""
    o = np.asarray(origin, dtype=float)
    e = np.asarray(endpoint, dtype=float)
    d = e - o
    lo = np.floor(np.minimum(o, e) / vs).astype(int) - 1
    hi = np.floor(np.maximum(o, e) / vs).astype(int) + 1
    axes = [np.arange(lo[i], hi[i] + 1) for i in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    keys = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    t_in = np.zeros(len(keys))
    t_out = np.ones(len(keys))
    ok = np.ones(len(keys), dtype=bool)
    for ax in range(3):
        b0 = keys[:, ax] * vs
        b1 = (keys[:, ax] + 1) * vs
        if d[ax] == 0.0:
            ok &= (b0 < o[ax]) & (o[ax] < b1)
        else:
            t0 = (b0 - o[ax]) / d[ax]
            t1 = (b1 - o[ax]) / d[ax]
            t_in = np.maximum(t_in, np.minimum(t0, t1))
            t_out = np.minimum(t_out, np.maximum(t0, t1))
    keep = ok & (t_out - t_in > 0.0)
    kept = keys[keep]
    order = np.argsort(t_in[keep], kind="stable")
    end_key = tuple(floor_key(float(e[i]), vs) for i in range(3))
    out = [tuple(int(v) for v in k) for k in kept[order]]
    return [k for k in out if k != end_key]


def dda_traverse(origin, endpoint, vs):
    """Scalar Amanatides & Woo walk: the voxels the open segment crosses
    with positive length, in order, excluding the endpoint's floor key.

    Boundary crossings are (n * vs - o) / d from the integer boundary
    index n, never accumulated; a segment lying exactly in a grid plane
    crosses no voxel interior.
    """
    vs = float(vs)
    o = [float(v) for v in origin]
    e = [float(v) for v in endpoint]
    d = [e[i] - o[i] for i in range(3)]
    key = [floor_key(o[i], vs) for i in range(3)]
    for ax in range(3):
        if d[ax] == 0.0 and key[ax] * vs == o[ax]:
            return []
    end_key = tuple(floor_key(e[i], vs) for i in range(3))

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


def clip_polygon_halfplane_2d(poly, a, b, c):
    """Sutherland-Hodgman step: keep the region a*x + b*y <= c."""
    out = []
    n = len(poly)
    for i in range(n):
        p = poly[i]
        q = poly[(i + 1) % n]
        dp = a * p[0] + b * p[1] - c
        dq = a * q[0] + b * q[1] - c
        if dp <= 0.0:
            out.append((float(p[0]), float(p[1])))
            if dq > 0.0:
                t = dp / (dp - dq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif dq <= 0.0:
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def clip_polygon_box_2d(poly, xmin, ymin, xmax, ymax):
    """Clip a polygon to an axis-aligned box; returns the clipped vertex list."""
    out = list(poly)
    for a, b, c in ((-1.0, 0.0, -xmin), (1.0, 0.0, xmax), (0.0, -1.0, -ymin), (0.0, 1.0, ymax)):
        if not out:
            return []
        out = clip_polygon_halfplane_2d(out, a, b, c)
    return out


def polygon_area_2d(poly):
    """Signed area of a 2-D polygon, positive when counter-clockwise:
    the shoelace sum about the first vertex, so that faces far from the
    origin keep their small cell areas."""
    if len(poly) < 3:
        return 0.0
    x, y = (np.asarray(poly, dtype=float) - poly[0]).T
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def grid_layer(n, d, vs):
    """(axis, voxel layer) behind the plane n . x = d when it lies in a
    grid plane, to 1e-9 voxel or four float steps of its coordinate;
    else None."""
    ax = max(range(3), key=lambda a: abs(float(n[a])))
    if abs(abs(float(n[ax])) - 1.0) > 1e-9:
        return None
    plane = d / float(n[ax])
    k = round(plane / vs)
    if abs(plane - k * vs) > max(1e-9 * vs, 4 * math.ulp(plane)):
        return None
    return ax, (k - 1 if n[ax] > 0 else k)


def aligned_face_voxels(face, vs):
    """Voxel keys of a face lying exactly in a grid plane, by area: the
    cells of the voxel layer on the inner (negative normal) side where the
    outer ring, clipped to the cell, covers more than 1e-9 vs^2 beyond
    what the clipped holes cover, and more than a strip of four float
    steps of the face's coordinates along a cell side. None when the face
    is off the grid planes."""
    outer = np.asarray(face.outer.points, dtype=float)
    area = 0.5 * np.cross(outer, np.roll(outer, -1, axis=0)).sum(axis=0)
    n = area / np.linalg.norm(area)
    grid = grid_layer(n, float(n @ outer[0]), vs)
    if grid is None:
        return None
    ax, layer = grid
    i, j = [a for a in range(3) if a != ax]
    outer2d = [(p[i], p[j]) for p in face.outer.points]
    holes2d = [[(p[i], p[j]) for p in r.points] for r in face.inner]
    xs = [p[0] for p in outer2d]
    ys = [p[1] for p in outer2d]
    least = max(1e-9 * vs * vs,
                4 * max(math.ulp(abs(c)) for p in outer for c in p) * vs)
    keys = []
    for a in range(floor_key(min(xs), vs), floor_key(max(xs), vs) + 1):
        for b in range(floor_key(min(ys), vs), floor_key(max(ys), vs) + 1):
            box = (a * vs, b * vs, (a + 1) * vs, (b + 1) * vs)
            covered = abs(polygon_area_2d(clip_polygon_box_2d(outer2d, *box)))
            for h in holes2d:
                covered -= abs(polygon_area_2d(clip_polygon_box_2d(h, *box)))
            if covered > least:
                key = [0, 0, 0]
                key[ax], key[i], key[j] = layer, a, b
                keys.append(tuple(key))
    return sorted(keys)


class ScalarOccupancy:
    """One ray at a time into a dict of cells [log_odds, hit_dist,
    hit_point, pass_dist, pass_endpoint]; distances start at inf and
    points at None until the first matching update arrives.

    `config` carries voxel_size, the four log-odds settings and
    max_range.
    """

    def __init__(self, config):
        self.config = config
        self.cells = {}

    def _cell(self, key):
        return self.cells.setdefault(key, [0.0, math.inf, None, math.inf, None])

    def _bump(self, cell, delta):
        cfg = self.config
        cell[0] = max(cfg.log_odds_min, min(cfg.log_odds_max, cell[0] + delta))

    def add_hit(self, key, endpoint):
        cell = self._cell(key)
        self._bump(cell, self.config.log_odds_hit)
        center = (np.asarray(key, dtype=float) + 0.5) * self.config.voxel_size
        d = float(np.linalg.norm(center - np.asarray(endpoint, float)))
        if d < cell[1]:
            cell[1] = d
            cell[2] = tuple(float(v) for v in endpoint)

    def add_miss(self, key, along_dist=None, endpoint=None):
        cell = self._cell(key)
        self._bump(cell, self.config.log_odds_miss)
        if along_dist is not None and along_dist < cell[3]:
            cell[3] = float(along_dist)
            cell[4] = tuple(float(v) for v in endpoint)

    def integrate(self, origin, endpoint, hit=True):
        cfg = self.config
        vs = cfg.voxel_size
        o = np.asarray(origin, dtype=float)
        e = np.asarray(endpoint, dtype=float)
        length = float(np.linalg.norm(e - o))
        if length > cfg.max_range:
            e = o + (e - o) * (cfg.max_range / length)
            length = cfg.max_range
            hit = False
        end_key = tuple(floor_key(float(v), vs) for v in e)
        if length == 0.0:
            if hit:
                self.add_hit(end_key, e)
            return
        passed = dda_traverse(o, e, vs)
        if passed:
            centers = (np.asarray(passed, dtype=float) + 0.5) * vs
            u = (e - o) / length
            along = np.abs(length - (centers - o) @ u)
            ep = tuple(float(v) for v in e)
            for k, dist in zip(passed, along):
                self.add_miss(k, float(dist), ep)
        if hit:
            self.add_hit(end_key, e)


def _phi(t):
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def _slab_confidence(dist, sigma, vs):
    """Gaussian mass on a voxel-wide slab `dist` from the mean over that
    of the centered slab, at most 1; `sigma` in voxels."""
    s, half = sigma * vs, 0.5 * vs

    def mass(x):
        return _phi((x + half) / s) - _phi((x - half) / s)
    return min(mass(dist) / mass(0.0), 1.0)


def scalar_classify(tree, face, keys, config):
    """One (key, state, p_confirmed, p_conflicted) per surface voxel, one
    voxel at a time with math.erf, from the tree's columns. `config`
    carries the sigmas and occupied_threshold."""
    vs = tree.config.voxel_size
    s_pos, s_state = config.sigma_position, config.sigma_state
    p = config.occupied_threshold
    occupied = math.log(p / (1.0 - p))
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
            out.append((key, "unknown", 0.0, 0.0))
            continue
        d_pos = abs(float(point @ n) - d)
        p_conf = (_slab_confidence(d_pos, s_pos, vs)
                  * _slab_confidence(float(d_state), s_state, vs))
        out.append((key, state, p_conf, 1.0 - p_conf))
    return out


def in_rings(u, v, rings):
    """Even-odd test of the point (u, v) against every edge of `rings`,
    one edge at a time."""
    inside = False
    for ring in rings:
        for a in range(len(ring)):
            (u0, v0), (u1, v1) = ring[a], ring[(a + 1) % len(ring)]
            if (v0 > v) != (v1 > v) and u < u0 + (v - v0) * (u1 - u0) / (v1 - v0):
                inside = not inside
    return inside


def pixel_samples(face, frame, vs):
    """Sorted (pixel, key) pairs of the face in `frame`, one sample at a
    time: pixel (r, c) sampled at the centres of its k x k split, k the
    fewest parts no wider than a voxel (to 1e-6), kept when the even-odd
    test puts it on the face; a sample reads the voxel of the layer
    behind a grid-plane face, or the voxels at -1/2, 0 and +1/2 voxel
    along any other face's normal."""
    k = max(1, math.ceil(frame.cell / vs - 1e-6))
    step = frame.cell / k
    rings = [frame.to_uv(ring).tolist() for ring in face.loops()]
    n, d = face.plane()
    grid = grid_layer(n, d, vs)
    out = []
    for r in range(frame.height * k):
        for c in range(frame.width * k):
            u, v = (c + 0.5) * step, (r + 0.5) * step
            if not in_rings(u, v, rings):
                continue
            pixel = (r // k) * frame.width + c // k
            p = [frame.origin[a] + u * frame.u_axis[a] + v * frame.v_axis[a]
                 for a in range(3)]
            if grid is not None:
                key = [floor_key(x, vs) for x in p]
                key[grid[0]] = grid[1]
                out.append((pixel, tuple(key)))
                continue
            for t in (-0.5, 0.0, 0.5):
                out.append((pixel, tuple(floor_key(p[a] + t * vs * float(n[a]), vs)
                                         for a in range(3))))
    return sorted(out)


def scalar_conflict_map(samples, voxels, frame):
    """(height, width, 3) float32 conflict raster on `frame` from the
    `pixel_samples` pairs `samples` and the `scalar_classify` output
    `voxels` of their keys: each pixel's measured voxels gathered in a
    dict in key order, then the first most conflicted one; unmeasured
    pixels are (0, 0, 1)."""
    data = np.zeros((frame.height, frame.width, 3), dtype=np.float32)
    data[:, :, 2] = 1.0
    scores = {tuple(map(int, v[0])): v for v in voxels}
    pixels = {}
    for pixel, key in sorted(samples):
        if scores[key][1] != "unknown":
            pixels.setdefault(pixel, []).append(scores[key])
    for pixel, group in pixels.items():
        _, _, conf, confl = max(group, key=lambda v: v[3])
        data[pixel // frame.width, pixel % frame.width] = (confl, conf, 0.0)
    return data


def cpt_marginal(conflict, pc_opening, tex_opening, entries):
    """Posterior of "opening" as the written-out 12-term sum.

    `entries` maps (conflict_state, pc_state, tex_state) to the CPT
    probability; states are the literal names used in CPT files.
    """
    states = ("conflicted", "confirmed", "unknown")
    w_pc = {"opening": pc_opening, "other": 1.0 - pc_opening}
    w_tex = {"opening": tex_opening, "other": 1.0 - tex_opening}
    total = 0.0
    for s, p_s in zip(states, conflict):
        for a, p_a in w_pc.items():
            for b, p_b in w_tex.items():
                total += p_s * p_a * p_b * entries[(s, a, b)]
    return total


def disambiguate_label(pointcloud, texture, pixel):
    """Window-or-door call for one pixel by summed class probability over
    the rasters given (None skipped), point cloud first. Ties, including
    the no-evidence case, resolve to window."""
    r, c = pixel
    win = 0.0
    door = 0.0
    for raster in (pointcloud, texture):
        if raster is None:
            continue
        if "window" in raster.channels:
            win += float(raster.channel("window")[r, c])
        if "door" in raster.channels:
            door += float(raster.channel("door")[r, c])
    return "door" if door > win else "window"


def mask_clusters(mask):
    """8-connected components of a boolean mask, one label at a time:
    (n, 2) int arrays of (row, col) pairs in row-major order, sorted by
    (min row, min col)."""
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    out = [np.argwhere(labels == k) for k in range(1, count + 1)]
    out.sort(key=lambda px: (int(px[:, 0].min()), int(px[:, 1].min())))
    return out


def brute_binary_opening(mask, kernel):
    """Erosion then dilation with a square element, zero padding."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    r = kernel // 2
    pad = np.zeros((h + 2 * r, w + 2 * r), dtype=bool)
    pad[r:r + h, r:r + w] = mask
    eroded = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            eroded[i, j] = pad[i:i + kernel, j:j + kernel].all()
    pad[:] = False
    pad[r:r + h, r:r + w] = eroded
    opened = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            opened[i, j] = pad[i:i + kernel, j:j + kernel].any()
    return opened


def point_triangle_distance(p, a, b, c):
    """Closest-point case analysis on a non-degenerate triangle: classify
    p against the vertex, edge, and interior Voronoi regions."""
    p, a, b, c = (np.asarray(v, dtype=float) for v in (p, a, b, c))
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = float(ab @ ap), float(ac @ ap)
    if d1 <= 0.0 and d2 <= 0.0:
        return float(np.linalg.norm(p - a))
    bp = p - b
    d3, d4 = float(ab @ bp), float(ac @ bp)
    if d3 >= 0.0 and d4 <= d3:
        return float(np.linalg.norm(p - b))
    if d1 * d4 - d3 * d2 <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return float(np.linalg.norm(p - (a + t * ab)))
    cp = p - c
    d5, d6 = float(ab @ cp), float(ac @ cp)
    if d6 >= 0.0 and d5 <= d6:
        return float(np.linalg.norm(p - c))
    if d5 * d2 - d1 * d6 <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return float(np.linalg.norm(p - (a + t * ac)))
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return float(np.linalg.norm(p - (b + t * (c - b))))
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = va + vb + vc
    v = vb / denom
    w = vc / denom
    return float(np.linalg.norm(p - (a + v * ab + w * ac)))


def points_segment_distance(points, a, b):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    l2 = float(d @ d)
    if l2 == 0.0:
        return np.linalg.norm(pts - a, axis=1)
    t = np.clip((pts - a) @ d / l2, 0.0, 1.0)
    return np.linalg.norm(pts - a - t[:, None] * d, axis=1)


def points_triangle_distance(points, tri):
    """Euclidean distance from each point to a (possibly degenerate) triangle."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a, b, c = (np.asarray(v, dtype=float) for v in tri)
    ab = b - a
    ac = c - a
    n = np.cross(ab, ac)
    nn = float(n @ n)
    edge_min = np.minimum(
        points_segment_distance(pts, a, b),
        np.minimum(points_segment_distance(pts, b, c),
                   points_segment_distance(pts, c, a)))
    if nn == 0.0:
        return edge_min
    ap = pts - a
    # barycentric coordinates of the in-plane projection
    d00 = float(ab @ ab)
    d01 = float(ab @ ac)
    d11 = float(ac @ ac)
    d20 = ap @ ab
    d21 = ap @ ac
    denom = d00 * d11 - d01 * d01
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    inside = (v >= 0.0) & (w >= 0.0) & (v + w <= 1.0)
    plane = np.abs(ap @ n) / math.sqrt(nn)
    return np.where(inside, plane, edge_min)


def mesh_distances(points, triangles):
    """Each point's least distance to the triangles, one triangle at a
    time over all points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(len(pts), np.inf)
    for tri in triangles:
        best = np.minimum(best, points_triangle_distance(pts, tri))
    return best


def mesh_deviation(points, triangles):
    """(mean, RMS) of `mesh_distances`, as the evaluate stage reduces them."""
    best = mesh_distances(points, triangles)
    return float(best.mean()), float(math.sqrt(float((best ** 2).mean())))


def write_table(path, header, columns):
    """`header`, then one line per row of the `columns` arrays side by
    side, every number formatted on its own as the `repr` of its Python
    int or float."""
    columns = [np.asarray(c) for c in columns]
    block = 1 << 12
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for a in range(0, len(columns[0]), block):
            cells = [map(repr, col) for b in (c[a:a + block] for c in columns)
                     for col in b.reshape(len(b), -1).T.tolist()]
            fh.write("\n".join(map(" ".join, zip(*cells))) + "\n")


def scalar_scan(spec, labels):
    """(rays, points, probs) of the synthetic facade sweep of `spec`, one
    ray at a time: per ray a normal then a uniform draw, the nearest
    station (ties to the smaller), the first opening in spec order whose
    open rect holds the target, and a probability row over `labels`."""
    rng = np.random.default_rng(spec.seed)
    sts = []
    x = spec.station_spacing / 2.0
    while x < spec.width:
        sts.append(x)
        x += spec.station_spacing

    def label_probs(label, p):
        rest = (1.0 - p) / (len(labels) - 1)
        return [p if name == label else rest for name in labels]

    nx = int(round(spec.width / spec.pitch))
    nz = int(round(spec.height / spec.pitch))
    origins, points, probs = [], [], []
    for ix in range(nx):
        u = (ix + 0.5) * spec.pitch
        sx = min(sts, key=lambda s: (abs(s - u), s))
        origin = np.asarray((sx, -spec.station_distance, spec.station_height))
        for iz in range(nz):
            v = (iz + 0.5) * spec.pitch
            noise = rng.normal(0.0, spec.noise_sigma)
            gate = rng.uniform()
            span = np.asarray((u, 0.0, v)) - origin
            dist = float(np.linalg.norm(span))
            direction = span / dist
            opening = next((o for o in spec.openings
                            if o.rect[0] < u < o.rect[2]
                            and o.rect[1] < v < o.rect[3]), None)
            if opening is None or opening.covered or gate < spec.frame_fraction:
                endpoint = origin + (dist + noise) * direction
                if opening is None:
                    prob = label_probs("wall", spec.wall_prob)
                else:
                    prob = label_probs(opening.label, spec.opening_prob)
            else:
                back = dist * (spec.station_distance + spec.depth) \
                    / spec.station_distance
                endpoint = origin + (back + noise) * direction
                prob = label_probs("other", spec.wall_prob)
            origins.append(origin)
            points.append(tuple(endpoint))
            probs.append(prob)
    points = np.asarray(points)
    rays = np.column_stack([np.asarray(origins), points, np.ones(len(points))])
    return rays, points, np.asarray(probs)


def record_rows(table, query):
    """Row of each (3,) integer key of `query` in the lexicographically
    sorted (n, 3) keys `table`, -1 where absent: both viewed as records
    of three int64 fields and looked up with np.searchsorted."""
    record = np.dtype([("x", "<i8"), ("y", "<i8"), ("z", "<i8")])

    def records(keys):
        keys = np.ascontiguousarray(np.asarray(keys, dtype=np.int64).reshape(-1, 3))
        return keys.view(record).ravel()

    table, query = records(table), records(query)
    if not len(table):
        return np.full(len(query), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(table, query), len(table) - 1)
    return np.where(table[pos] == query, pos, -1)


def loadtxt_table(table):
    """A stand-in for `textio.table` that reads a table whose lines repeat
    as every other table, each block handed to np.loadtxt whole, not one
    distinct line at a time: the pixel tables' reader before it told
    lines apart."""
    def read(path, head, row, checks=lambda rows: (), repeats=False):
        return table(path, head, row, checks)
    return read
