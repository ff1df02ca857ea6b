"""Small computational-geometry toolbox shared by the pipeline stages.

Everything works on plain sequences of 3-vectors (or 2-vectors for the
planar helpers); nothing here imports the data model, so the functions
stay usable from tests and one-off scripts.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def newell_area_vector(loop) -> np.ndarray:
    """Area-weighted normal of a closed 3D loop (Newell's method).

    The result points along the loop's winding direction (right-hand
    rule) and its length equals the enclosed area for planar loops.
    """
    pts = np.asarray(loop, dtype=float)
    nxt = np.roll(pts, -1, axis=0)
    return 0.5 * np.cross(pts, nxt).sum(axis=0)


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
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def point_in_polygon_2d(pt, poly) -> bool:
    """Even-odd containment test. Points on an edge are not guaranteed
    either way; callers that care about the boundary must test distance
    separately."""
    x, y = float(pt[0]), float(pt[1])
    inside = False
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i][0], poly[i][1]
        x1, y1 = poly[(i + 1) % n][0], poly[(i + 1) % n][1]
        if (y0 > y) != (y1 > y):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if x < xi:
                inside = not inside
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
    none."""
    for pos, v in enumerate(hole):
        p = pts[v]
        # inside the hole's corner at p when that corner is convex
        q = pts[hole[pos - 1]] + pts[hole[(pos + 1) % len(hole)]] - p
        for at, r in enumerate(ring):
            if (pts[r] == p).all() and _locally_inside(ring, at, pts, q):
                return at, pos
    return None


def _ear_clip(ring: list, pts: np.ndarray) -> list:
    tris = []
    idx = list(ring)
    while len(idx) > 3:
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if _orient_2d(a, b, c) <= 0.0:
                continue
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = pts[j]
                if (p[0] == a[0] and p[1] == a[1]) or (p[0] == b[0] and p[1] == b[1]) \
                        or (p[0] == c[0] and p[1] == c[1]):
                    continue
                if _point_in_triangle_2d(p, a, b, c):
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                del idx[k]
                clipped = True
                break
        if not clipped:
            # numerically stuck ring: fan out what is left
            for k in range(1, len(idx) - 1):
                tris.append((idx[0], idx[k], idx[k + 1]))
            return tris
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
# triangle / box overlap (separating axis test, strict)

def tri_box_overlap_strict(tri, lo, hi) -> np.ndarray:
    """Strict SAT overlap between one triangle and many axis-aligned boxes.

    `lo` and `hi` are the (N, 3) lower and upper box corners. Touching
    contact (shared plane, edge, or vertex with no interior overlap)
    counts as no overlap, so triangles lying exactly on a voxel face
    select neither neighbor. Every separation test carries a slack of
    1e-9 of its own projection radius, or of a few float steps of the
    coordinates far from the origin, so exact contacts that pick up a
    rounding residual still count as touching. Each box is tested in
    coordinates relative to its lower corner: a vertex on a box corner or
    face stays exactly there however far from the origin the box lies.
    """
    tri = np.asarray(tri, dtype=float)
    lo = np.atleast_2d(np.asarray(lo, dtype=float))
    size = np.atleast_2d(np.asarray(hi, dtype=float)) - lo
    step = 4 * np.spacing(max(np.abs(tri).max(), np.abs(lo).max()))
    verts = [v - lo for v in tri]
    # the box axes, the triangle normal and the nine edge cross axes
    axes = [*np.eye(3), np.cross(tri[1] - tri[0], tri[2] - tri[0])]
    for e in (tri[1] - tri[0], tri[2] - tri[1], tri[0] - tri[2]):
        axes.extend(np.cross(u, e) for u in np.eye(3))
    sep = np.zeros(len(lo), dtype=bool)
    for a in axes:
        if not a.any():
            continue
        p0, p1, p2 = (v @ a for v in verts)
        box_lo = size @ np.minimum(a, 0.0)
        box_hi = size @ np.maximum(a, 0.0)
        slack = np.maximum(0.5e-9 * (box_hi - box_lo), step * np.abs(a).sum())
        sep |= ((np.minimum(np.minimum(p0, p1), p2) >= box_hi - slack)
                | (np.maximum(np.maximum(p0, p1), p2) <= box_lo + slack))
    return ~sep


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
        np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]), axis=1)


def sample_on_triangles(rng: np.random.Generator, tris, count: int) -> np.ndarray:
    """Uniform surface samples over a triangle soup, area-weighted."""
    t = np.asarray(tris, dtype=float)
    areas = triangle_areas(t)
    total = float(areas.sum())
    if total <= 0.0 or count <= 0:
        return np.zeros((0, 3))
    which = rng.choice(len(t), size=count, p=areas / total)
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    a, b, c = t[which, 0], t[which, 1], t[which, 2]
    return (1.0 - r1)[:, None] * a + (r1 * (1.0 - r2))[:, None] * b + (r1 * r2)[:, None] * c
