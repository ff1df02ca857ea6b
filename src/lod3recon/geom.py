"""Small computational-geometry toolbox shared by the pipeline stages.

Everything works on plain sequences of 3-vectors (or 2-vectors for the
planar helpers); nothing here imports the data model, so the functions
stay usable from tests and one-off scripts.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError


def cross(a, b) -> np.ndarray:
    """Cross products of 3-vectors along the last axis, written out by
    components as np.cross computes them, bit for bit, without its
    set-up cost."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                    axis=-1)


def newell_area_vector(loop) -> np.ndarray:
    """Area-weighted normal of a closed 3D loop (Newell's method).

    The result points along the loop's winding direction (right-hand
    rule) and its length equals the enclosed area for planar loops.
    """
    pts = np.asarray(loop, dtype=float)
    nxt = np.concatenate([pts[1:], pts[:1]])
    return 0.5 * cross(pts, nxt).sum(axis=0)


def ring_normal(loop) -> np.ndarray:
    """Unit normal of a planar loop; raises on degenerate (zero-area) input."""
    a = newell_area_vector(loop)
    n = float(np.linalg.norm(a))
    if n <= 0.0:
        raise ValueError("loop has zero area, normal undefined")
    return a / n


def enclosed_volume(loops) -> float:
    """Signed volume enclosed by a set of planar loops forming a closed surface.

    Each loop contributes (1/3) * v0 . area_vector, which is exact for
    planar polygons by the divergence theorem. Outward-oriented surfaces
    give positive volume; inner rings stored with opposite winding
    subtract their area automatically.
    """
    vol = 0.0
    for loop in loops:
        pts = np.asarray(loop, dtype=float)
        vol += float(pts[0] @ newell_area_vector(pts)) / 3.0
    return vol


def polygon_area_2d(poly) -> float:
    """Signed area of a 2D polygon (positive when counter-clockwise)."""
    pts = np.asarray(poly, dtype=float)
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(x @ np.concatenate([y[1:], y[:1]])
                       - y @ np.concatenate([x[1:], x[:1]]))


def points_in_polygon(points, rings) -> np.ndarray:
    """Even-odd containment of (n, 2) points in the region bounded by
    `rings` (an outer ring and its holes alike), elementwise: a point is
    inside when a ray from it toward +x crosses an odd number of ring
    edges. Points on an edge are not guaranteed either way; callers that
    care about the boundary must test distance separately."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    for ring in rings:
        ring = np.asarray(ring, dtype=float)
        for (x0, y0), (x1, y1) in zip(ring, np.roll(ring, -1, axis=0)):
            if y0 == y1:
                continue  # no point lies strictly between its ends
            spans = (y0 > y) != (y1 > y)
            inside ^= spans & (x < x0 + (y - y0) * (x1 - x0) / (y1 - y0))
    return inside


def point_segment_distance_2d(p, a, b) -> float:
    px, py = p[0] - a[0], p[1] - a[1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    l2 = dx * dx + dy * dy
    if l2 == 0.0:
        return math.hypot(px, py)
    t = max(0.0, min(1.0, (px * dx + py * dy) / l2))
    return math.hypot(px - t * dx, py - t * dy)


def _orient_2d(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_intersect_2d(a0, a1, b0, b1) -> bool:
    """True when the closed segments share at least one point."""
    d1 = _orient_2d(b0, b1, a0)
    d2 = _orient_2d(b0, b1, a1)
    d3 = _orient_2d(a0, a1, b0)
    d4 = _orient_2d(a0, a1, b1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(p, q, r):
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    if d1 == 0 and on_seg(b0, b1, a0):
        return True
    if d2 == 0 and on_seg(b0, b1, a1):
        return True
    if d3 == 0 and on_seg(a0, a1, b0):
        return True
    if d4 == 0 and on_seg(a0, a1, b1):
        return True
    return False


def segment_distance_2d(a0, a1, b0, b1) -> float:
    if segments_intersect_2d(a0, a1, b0, b1):
        return 0.0
    return min(
        point_segment_distance_2d(a0, b0, b1),
        point_segment_distance_2d(a1, b0, b1),
        point_segment_distance_2d(b0, a0, a1),
        point_segment_distance_2d(b1, a0, a1),
    )


# ---------------------------------------------------------------------------
# polygon triangulation (ear clipping with hole bridging)

def _point_in_triangle_2d(p, a, b, c) -> bool:
    # inclusive: boundary counts as inside
    d1 = _orient_2d(a, b, p)
    d2 = _orient_2d(b, c, p)
    d3 = _orient_2d(c, a, p)
    return d1 >= 0.0 and d2 >= 0.0 and d3 >= 0.0


def _locally_inside(ring: list, pos: int, pts: np.ndarray, q) -> bool:
    """Is the direction from ring vertex `pos` toward q inside the polygon?

    Needed to pick the right occurrence of a bridge vertex that already
    appears twice after an earlier hole merge.
    """
    n = len(ring)
    a = pts[ring[(pos - 1) % n]]
    b = pts[ring[pos]]
    c = pts[ring[(pos + 1) % n]]
    if _orient_2d(a, b, c) >= 0.0:
        return _orient_2d(a, b, q) > 0.0 and _orient_2d(b, c, q) > 0.0
    return _orient_2d(a, b, q) > 0.0 or _orient_2d(b, c, q) > 0.0


def _find_bridge(ring: list, hole_left: int, pts: np.ndarray) -> int | None:
    """Position in `ring` of a vertex visible from the hole's leftmost vertex.

    Leftward ray cast followed by the blocked-candidate refinement; `ring`
    already contains previously merged holes so hole-hole occlusion is
    respected.
    """
    hx, hy = pts[hole_left]
    qx = -math.inf
    mpos = None
    n = len(ring)
    for k in range(n):
        kn = (k + 1) % n
        yi, yj = pts[ring[k]][1], pts[ring[kn]][1]
        if yi >= hy >= yj and yj != yi:
            xi, xj = pts[ring[k]][0], pts[ring[kn]][0]
            x = xi + (hy - yi) * (xj - xi) / (yj - yi)
            if x <= hx and x > qx:
                qx = x
                mpos = k if xi < xj else kn
    if mpos is None:
        return None
    if qx == hx:
        return mpos
    # candidate bridge may be blocked: among ring vertices inside the
    # triangle spanned by the ray hit, pick the one with minimum slope
    # to the hole vertex (ties: rightmost)
    mx, my = pts[ring[mpos]]
    if my > hy:
        tri = ((hx, hy), (mx, my), (qx, hy))
    else:
        tri = ((qx, hy), (mx, my), (hx, hy))
    tan_min = math.inf
    best = mpos
    for p in range(n):
        px, py = pts[ring[p]]
        if px < mx or px >= hx:
            continue
        if not _point_in_triangle_2d((px, py), *tri):
            continue
        if not _locally_inside(ring, p, pts, (hx, hy)):
            continue
        tan = abs(hy - py) / (hx - px)
        if tan < tan_min or (tan == tan_min and px > pts[ring[best]][0]):
            tan_min = tan
            best = p
    return best


def _shared_vertex(ring: list, hole: list, pts: np.ndarray):
    """(ring position, hole position) of a vertex the hole shares with the
    ring, at a ring corner the hole's corner fits into; None if there is
    none. The first such pair in hole order, then ring order."""
    same = (pts[hole][:, None, :] == pts[ring][None, :, :]).all(axis=2)
    for pos, at in zip(*np.nonzero(same)):
        # inside the hole's corner at p when that corner is convex
        p = pts[hole[pos]]
        q = pts[hole[pos - 1]] + pts[hole[(pos + 1) % len(hole)]] - p
        if _locally_inside(ring, at, pts, q):
            return int(at), int(pos)
    return None


# candidate ears tested together by `_first_ear`
EARS = 8


def _first_ear(x, y):
    """Position of the first convex corner of the ring (x, y), in ring
    order, whose triangle holds no other ring vertex, its boundary
    included; vertices at the position of one of the triangle's corners
    do not count. None if there is none. EARS candidates at a time are
    tested against the whole ring, with the arithmetic of `_orient_2d`."""
    # per corner its triangle (a, b, c): the previous, own and next vertex
    xs = np.stack([np.concatenate([x[-1:], x[:-1]]), x, np.concatenate([x[1:], x[:1]])])
    ys = np.stack([np.concatenate([y[-1:], y[:-1]]), y, np.concatenate([y[1:], y[:1]])])
    convex = np.flatnonzero(
        (xs[1] - xs[0]) * (ys[2] - ys[0]) - (ys[1] - ys[0]) * (xs[2] - xs[0]) > 0.0)
    for s in range(0, len(convex), EARS):
        k = convex[s:s + EARS]
        # the edges a-b, b-c and c-a of each candidate against every vertex:
        # _point_in_triangle_2d(p, a, b, c)
        ax, ay = xs[:, k, None], ys[:, k, None]
        bx, by = ax[[1, 2, 0]], ay[[1, 2, 0]]
        inside = ((bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0).all(axis=0)
        inside &= ~((x == ax) & (y == ay)).any(axis=0)
        free = np.flatnonzero(~inside.any(axis=1))
        if len(free):
            return int(k[free[0]])
    return None


def _ear_clip(ring: list, pts: np.ndarray) -> list:
    """Triangles of a simple ring by ear clipping: the first ear
    (`_first_ear`) is clipped, and the search starts over."""
    tris = []
    idx = list(ring)
    while len(idx) > 3:
        k = _first_ear(pts[idx, 0], pts[idx, 1])
        if k is None:
            # numerically stuck ring: fan out what is left
            return tris + [(idx[0], idx[j], idx[j + 1]) for j in range(1, len(idx) - 1)]
        tris.append((idx[k - 1], idx[k], idx[(k + 1) % len(idx)]))
        del idx[k]
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def triangulate_polygon_2d(outer, holes=()) -> list:
    """Triangulate a simple 2D polygon with optional disjoint holes.

    Returns index triples into the concatenated vertex list (outer ring
    first, then each hole in order). Rings may wind either way; output
    triangles are counter-clockwise.
    """
    pts_list = [tuple(map(float, p)) for p in outer]
    outer_idx = list(range(len(outer)))
    if polygon_area_2d(outer) < 0.0:
        outer_idx.reverse()
    hole_entries = []
    for hole in holes:
        base = len(pts_list)
        pts_list.extend(tuple(map(float, p)) for p in hole)
        h_idx = list(range(base, base + len(hole)))
        if polygon_area_2d(hole) > 0.0:
            h_idx.reverse()
        hole_entries.append(h_idx)
    pts = np.asarray(pts_list, dtype=float)

    # merge holes left to right so the leftward ray sees earlier bridges
    hole_entries.sort(key=lambda h: min(pts[i][0] for i in h))
    ring = outer_idx
    for h_idx in hole_entries:
        shared = _shared_vertex(ring, h_idx, pts)
        if shared is not None:
            # enter the hole where it touches the ring: no bridge needed
            at, pos = shared
            h = h_idx[pos:] + h_idx[:pos]
            ring = ring[:at + 1] + h[1:] + [h[0]] + ring[at + 1:]
            continue
        left_pos = min(range(len(h_idx)),
                       key=lambda k: (pts[h_idx[k]][0], pts[h_idx[k]][1]))
        h = h_idx[left_pos:] + h_idx[:left_pos]
        at = _find_bridge(ring, h[0], pts)
        if at is None:
            raise ValueError("hole is not inside the outer ring")
        ring = ring[:at + 1] + h + [h[0], ring[at]] + ring[at + 1:]
    return _ear_clip(ring, pts)


def triangulate_loop_3d(loop, holes=()) -> list:
    """Triangulate a planar 3D polygon (with optional holes) by projecting
    onto its dominant plane. Returns index triples into the concatenated
    vertex list, oriented to match the outer ring's normal."""
    n = newell_area_vector(loop)
    k = int(np.argmax(np.abs(n)))
    i, j = (k + 1) % 3, (k + 2) % 3
    to2d = lambda ring: [(p[i], p[j]) for p in ring]
    tris = triangulate_polygon_2d(to2d(loop), [to2d(h) for h in holes])
    # (i, j, k) is a cyclic order of the axes, so a counter-clockwise
    # triangle of the (i, j) projection faces +k
    if n[k] < 0.0:
        return [(t0, t2, t1) for t0, t1, t2 in tris]
    return tris


# ---------------------------------------------------------------------------
# row-by-row products, closed surfaces and sampling

def row_dots(a, b) -> np.ndarray:
    """Row by row dot products of two (n, 3) arrays as one-row products,
    each equal to np.dot of the two rows."""
    return (a[:, None, :] @ b[:, :, None]).ravel()


def row_norms(v) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array, as np.linalg.norm."""
    return np.sqrt(row_dots(v, v))


def row_products(rows, u, alone) -> np.ndarray:
    """Each of the (n, 3) `rows` times its own vector `u`, bit for bit as
    in a product (k, 3) @ (3,) of all k rows that share that vector: a
    row of a product of two or more rows does not depend on their count
    or position, and a row `alone` in its product takes the one-row
    product, np.dot."""
    out = np.empty(len(rows))
    out[alone] = row_dots(rows[alone], u[alone])
    many = ~alone
    pairs = np.repeat(rows[many][:, None, :], 2, axis=1)
    out[many] = (pairs @ u[many][:, :, None])[:, 0, 0]
    return out


def closed_surface_violations(loops, weld: float = 1e-6) -> list:
    """Manifold check over a loop soup (polygon rings and triangles alike).

    Vertices are welded on a `weld` grid; a closed orientable surface has
    every directed edge exactly once and its reverse exactly once.
    Returns human-readable violation strings, empty when watertight.
    """
    counts: dict = {}

    def key(p):
        return (round(p[0] / weld), round(p[1] / weld), round(p[2] / weld))

    violations = []
    for loop in loops:
        ks = [key(p) for p in loop]
        for i, u in enumerate(ks):
            v = ks[(i + 1) % len(ks)]
            if u == v:
                violations.append(f"degenerate edge at {tuple(loop[i])}")
                continue
            counts[(u, v)] = counts.get((u, v), 0) + 1
    for (u, v), c in counts.items():
        if c > 1:
            violations.append(f"directed edge repeated {c} times: {u}->{v}")
        if counts.get((v, u), 0) != c:
            violations.append(f"unmatched edge {u}->{v}")
    return violations


def triangle_areas(tris) -> np.ndarray:
    t = np.asarray(tris, dtype=float)
    return 0.5 * np.linalg.norm(
        cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]), axis=1)


# the step of the 3-D Kronecker lattice: the inverse powers of the real
# root of x^4 = x + 1
_LATTICE_STEP = 1.2207440846057596 ** -np.arange(1.0, 4.0)


def sample_on_triangles(tris, count: int) -> np.ndarray:
    """Uniform surface samples over a triangle soup, area-weighted.

    Sample k (1..count) is the lattice point q_k = frac(0.5 + k * step):
    its first coordinate picks the triangle by inverse CDF over the
    areas, the other two place it there. The samples are fixed by the
    soup and `count` alone. Areas whose total is not finite are a
    DomainError."""
    t = np.asarray(tris, dtype=float)
    areas = triangle_areas(t)
    total = float(areas.sum())
    if not math.isfinite(total):
        raise DomainError(f"triangle areas sum to {total}")
    if total <= 0.0 or count <= 0:
        return np.zeros((0, 3))
    cdf = np.cumsum(areas / total)
    cdf /= cdf[-1]
    q = (0.5 + np.arange(1.0, count + 1.0)[:, None] * _LATTICE_STEP) % 1.0
    which = cdf.searchsorted(q[:, 0], side="right")
    r1 = np.sqrt(q[:, 1])
    r2 = q[:, 2]
    a, b, c = t[which, 0], t[which, 1], t[which, 2]
    return (1.0 - r1)[:, None] * a + (r1 * (1.0 - r2))[:, None] * b + (r1 * r2)[:, None] * c
