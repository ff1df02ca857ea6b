"""Small computational-geometry toolbox shared by the pipeline stages.

Everything works on plain sequences of 3-vectors (or 2-vectors for the
planar helpers); nothing here imports the data model, so the functions
stay usable from tests and one-off scripts.
"""

from __future__ import annotations

import math

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


def segment_distances(a0, a1, b0, b1) -> np.ndarray:
    """(n, m) least distances between the n closed 2-D segments from
    a0[i] to a1[i] and the m from b0[j] to b1[j]: 0 where two cross,
    else the least distance from an end of one to the other. A segment
    of zero length is a point; an end that lies on the other segment is
    within rounding of it."""
    a0, a1, b0, b1 = (np.asarray(x, dtype=float).reshape(-1, 2)
                      for x in (a0, a1, b0, b1))

    def reach(p, a, b):
        # (len(p), len(a)) distances from the points p to the segments ab
        px, py = p[:, None, 0] - a[:, 0], p[:, None, 1] - a[:, 1]
        dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
        l2 = dx * dx + dy * dy
        t = np.clip((px * dx + py * dy) / np.where(l2 == 0.0, 1.0, l2), 0.0, 1.0)
        return np.hypot(px - t * dx, py - t * dy)

    def side(a, b, p):
        # whether each of the points p lies left of each line ab
        return ((b[:, 0] - a[:, 0]) * (p[:, None, 1] - a[:, 1])
                - (b[:, 1] - a[:, 1]) * (p[:, None, 0] - a[:, 0])) > 0.0

    cross = ((side(b0, b1, a0) != side(b0, b1, a1))
             & (side(a0, a1, b0) != side(a0, a1, b1)).T)
    gap = np.minimum(np.minimum(reach(a0, b0, b1), reach(a1, b0, b1)),
                     np.minimum(reach(b0, a0, a1), reach(b1, a0, a1)).T)
    return np.where(cross, 0.0, gap)


# ---------------------------------------------------------------------------
# face triangulation (slabs)

def triangulate_face(outer, holes=()) -> np.ndarray:
    """(T, 3, 3) triangles of a planar 3-D face with holes, each facing
    the outer ring's normal. Rings may wind either way.

    The face is projected onto the axis plane its normal leans on most
    and cut into slabs at every vertex's second coordinate there. In
    each slab the ring edges that span it, sorted by where they cross
    its middle, bound the face between the first and second, the third
    and fourth, and so on (even-odd): a trapezoid of two triangles. Each
    corner lies on its own 3-D edge, and a corner at an edge's end is
    that vertex exactly. A triangle of no area in the projection is
    dropped."""
    rings = [np.asarray(r, dtype=float).reshape(-1, 3) for r in (outer, *holes)]
    n = newell_area_vector(rings[0])
    k = int(np.argmax(np.abs(n)))
    i, j = (k + 1) % 3, (k + 2) % 3
    a = np.concatenate(rings)
    cuts = np.sort(a[:, j])
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
    y0, y1 = cuts[:-1], cuts[1:]
    # each edge from its lower to its upper end along j; a flat one spans
    # no slab
    b = np.concatenate([part for r in rings for part in (r[1:], r[:1])])
    sloped = a[:, j] != b[:, j]
    a, b = a[sloped], b[sloped]
    up = (a[:, j] < b[:, j])[:, None]
    lo, hi = np.where(up, a, b), np.where(up, b, a)
    d = hi - lo
    slab, edge = np.nonzero((lo[:, j] <= y0[:, None]) & (hi[:, j] >= y1[:, None]))
    mid = (y0[slab] + y1[slab]) / 2.0
    mid = lo[edge, i] + (mid - lo[edge, j]) / d[edge, j] * d[edge, i]
    order = np.lexsort((mid, slab))
    slab, edge = slab[order], edge[order]
    # the corners at the bottoms of the slabs, then at their tops
    edge = np.concatenate([edge, edge])
    t = ((np.concatenate([y0[slab], y1[slab]]) - lo[edge, j]) / d[edge, j])[:, None]
    corners = np.where(t == 1.0, hi[edge], lo[edge] + t * d[edge])
    # pair p's trapezoid: corners 2p and 2p + 1 at the bottom, m + 2p and
    # m + 2p + 1 at the top
    m = len(slab)
    tris = corners[np.arange(0, m, 2)[:, None, None]
                   + np.array([[0, 1, m + 1], [0, m + 1, m]])].reshape(-1, 3, 3)
    # a counter-clockwise triangle of the (i, j) projection faces +k, as
    # (i, j, k) is a cyclic order of the axes
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    tris = tris[e1[:, i] * e2[:, j] - e1[:, j] * e2[:, i] > 0.0]
    return tris[:, [0, 2, 1]] if n[k] < 0.0 else tris


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
