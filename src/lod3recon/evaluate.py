"""Detection, overlap, and surface-quality metrics for reconstructed models.

Detection counts keep the bookkeeping of published facade benchmarks: AO
openings exist in total, MO of them are actually measured by the laser,
D detections were made of which TP are true. Rates are integer
percentages; `round` banker's rounding is part of the contract.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import geom, textio
from .errors import DomainError, ValidationError

FIELDS = ("AO", "MO", "D", "TP", "FP", "FN")


@dataclass(frozen=True)
class DetectionCounts:
    """Raw detection tallies.

    D = TP + FP and FN = AO - TP hold for counts produced by matching,
    but published per-facade tallies do not always add up, so the
    constructor only insists on non-negative integers.
    """
    AO: int
    MO: int
    D: int
    TP: int
    FP: int
    FN: int

    def __post_init__(self):
        for name in FIELDS:
            value = getattr(self, name)
            if value != int(value) or value < 0:
                raise ValidationError(f"{name} must be a non-negative integer, "
                                      f"got {value!r}")
            object.__setattr__(self, name, int(value))

    @classmethod
    def from_matching(cls, ao: int, mo: int, tp: int, fp: int) -> "DetectionCounts":
        return cls(ao, mo, tp + fp, tp, fp, ao - tp)


def detection_rates(counts: DetectionCounts) -> tuple:
    """(DA, FA, DM) integer percentages.

    DA = 100 TP / AO (None when there is no opening), FA = 100 FP / D
    (zero when nothing was detected), DM = 100 TP / MO (None when no
    opening was measured).
    """
    da = round(100.0 * counts.TP / counts.AO) if counts.AO > 0 else None
    fa = round(100.0 * counts.FP / counts.D) if counts.D > 0 else 0
    dm = round(100.0 * counts.TP / counts.MO) if counts.MO > 0 else None
    return da, fa, dm


# ---------------------------------------------------------------------------
# instance matching

def rect_iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def match_instances(pred, gt, iou_min: float = 0.5) -> tuple:
    """Greedy one-to-one matching by descending rectangle IoU.

    Only same-face pairs are considered. Returns (TP, FP, FN, matches)
    with matches as (pred_index, gt_index, iou) triples in match order.
    """
    pred = list(pred)
    gt = list(gt)
    pairs = []
    for pi, p in enumerate(pred):
        for gi, g in enumerate(gt):
            if p.face_id != g.face_id:
                continue
            iou = rect_iou(p.rect, g.rect)
            if iou >= iou_min:
                pairs.append((iou, pi, gi))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_p = set()
    used_g = set()
    matches = []
    for iou, pi, gi in pairs:
        if pi in used_p or gi in used_g:
            continue
        used_p.add(pi)
        used_g.add(gi)
        matches.append((pi, gi, iou))
    tp = len(matches)
    return tp, len(pred) - tp, len(gt) - tp, tuple(matches)


def median_instance_iou(pred, gt, matches, matched_only: bool = False) -> float:
    """Median per-instance IoU as a percentage.

    Every ground-truth instance contributes; the ones without a match
    count as zero overlap. `matched_only` restricts the median to matched
    instances instead (both readings of a per-instance median are useful
    when detection is incomplete).
    """
    gt = list(gt)
    if not gt:
        raise DomainError("median IoU needs at least one ground-truth instance")
    by_gt = {gi: iou for _, gi, iou in matches}
    if matched_only:
        if not by_gt:
            raise DomainError("no matches to take a median over")
        values = list(by_gt.values())
    else:
        values = [by_gt.get(gi, 0.0) for gi in range(len(gt))]
    return 100.0 * statistics.median(values)


# ---------------------------------------------------------------------------
# surface metrics

# (point, triangle) pairs bounded at a time: their four plane distances
# take a megabyte
_BOUND_CELLS = 1 << 15


def mesh_deviation(points, triangles) -> tuple:
    """Unsigned point-to-mesh distance, reduced to (mean, RMS)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tris = np.asarray(triangles, dtype=float).reshape(-1, 3, 3)
    if pts.size == 0:
        raise DomainError("mesh deviation needs at least one sample point")
    if not len(tris):
        raise DomainError("mesh deviation needs at least one triangle")
    best = _nearest_distances(pts, tris)
    mean = float(best.mean())
    rms = float(math.sqrt(float((best ** 2).mean())))
    return mean, rms


def _nearest_distances(pts, tris) -> np.ndarray:
    """Each point's least distance to the (T, 3, 3) triangles.

    Only the (point, triangle) pairs that can hold it are evaluated:
    every pair gets a lower bound from the triangle's plane and edges,
    the pair with the least bound is evaluated first, and then every
    pair whose bound does not exceed that distance by more than a slack
    that outweighs all rounding. A sliver has no bound that rounding
    cannot upset, so it is evaluated for every point. Each distance is
    bit for bit that of the reference loop over the triangles, one at a
    time over all points (see `_Triangles.distances`), so the least one
    is too."""
    mesh = _Triangles(tris)
    single = len(pts) == 1
    both = np.concatenate([pts, mesh.corners])
    span = float(np.linalg.norm(both.max(axis=0) - both.min(axis=0)))
    rows = max(1, _BOUND_CELLS // len(tris))
    chunks = [slice(a, a + rows) for a in range(0, len(pts), rows)]
    first = np.concatenate([mesh.bounds(pts[c]).argmin(axis=1) for c in chunks])
    best = mesh.distances(pts, first, single)
    # rounding moves a bound or a distance by far less than 1e-6 of the
    # lengths involved, none of which exceeds best + span
    reach = np.square(best + 1e-6 * (best + span))
    pending = []
    for c in chunks:
        near = mesh.bounds(pts[c]) <= reach[c, None]
        near[:, mesh.sliver] = True
        near[np.arange(len(near)), first[c]] = False
        i, j = np.nonzero(near)
        pending.append((i + c.start, j))
        # in batches of at least as many pairs as points: a sliver pairs
        # with every point
        if sum(len(i) for i, _ in pending) >= len(pts) or c is chunks[-1]:
            i, j = (np.concatenate(part) for part in zip(*pending))
            np.minimum.at(best, i, mesh.distances(pts[i], j, single))
            pending = []
    return best


class _Triangles:
    """A triangle soup's per-triangle constants, computed once."""

    def __init__(self, tris):
        self.corners = tris.reshape(-1, 3)
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        self.a, self.b, self.c = a, b, c
        ab, ac, bc, ca = self.ab, self.ac, self.bc, self.ca = b - a, c - a, c - b, a - c
        n = self.n = geom.cross(ab, ac)
        self.nn = geom.row_dots(n, n)
        self.d00, self.d01, self.d11 = (geom.row_dots(ab, ab), geom.row_dots(ab, ac),
                                        geom.row_dots(ac, ac))
        self.l2bc, self.l2ca = geom.row_dots(bc, bc), geom.row_dots(ca, ca)
        longest = np.maximum(np.maximum(self.d00, self.l2bc), self.l2ca)
        # the least altitude is below 1e-3 of the longest edge, or a
        # coordinate is not finite
        self.sliver = ~(self.nn > 1e-6 * longest * longest)
        # the bounding planes: the triangle's own, and through each edge of
        # (a, a + ab, a + ac), the triangle the distances see, one at right
        # angles to it facing out; a sliver gets zeros
        self.center = (self.corners.max(axis=0) + self.corners.min(axis=0)) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = n / np.sqrt(self.nn)[:, None]
            normals = [unit]
            for edge in (ab, ac - ab, -ac):
                out = geom.cross(edge, unit)
                normals.append(out / np.linalg.norm(out, axis=1)[:, None])
        normals = np.where(self.sliver[:, None], 0.0, np.stack(normals))
        origin = a - self.center
        through = np.stack([origin, origin, origin + ab, origin])
        self.offsets = (normals * through).sum(axis=2).ravel()
        self.normals = np.ascontiguousarray(normals.reshape(-1, 3).T)

    def bounds(self, p) -> np.ndarray:
        """(k, T) squared lower bounds on the distance of each of the k
        points `p` to each triangle, +inf for a sliver: the square of the
        distance to the triangle's plane plus the square of the distance
        beyond the edge plane it lies farthest outside of, if any."""
        t = len(self.a)
        s = (p - self.center) @ self.normals
        s -= self.offsets
        out = np.maximum(s[:, t:2 * t], s[:, 2 * t:3 * t])
        np.maximum(out, s[:, 3 * t:], out=out)
        np.maximum(out, 0.0, out=out)
        out *= out
        plane = s[:, :t]
        plane *= plane
        out += plane
        out[:, self.sliver] = np.inf
        return out

    def distances(self, p, j, single: bool) -> np.ndarray:
        """Distance of each point p[i] to triangle j[i], bit for bit that of
        the reference (`tests/oracles.py::points_triangle_distance`),
        which takes each triangle's products (k, 3) @ (3,) over all k
        sample points: a single sample point takes one-row products."""
        alone = np.full(len(p), single)

        def products(rows, u):
            return geom.row_products(rows, u, alone)

        ap, bp, cp = p - self.a[j], p - self.b[j], p - self.c[j]
        ab, ac, bc, ca = self.ab[j], self.ac[j], self.bc[j], self.ca[j]
        d00, d01, d11, nn = self.d00[j], self.d01[j], self.d11[j], self.nn[j]
        d20, d21 = products(ap, ab), products(ap, ac)
        edge = np.minimum(
            _segment_distances(ap, d20, ab, d00),
            np.minimum(_segment_distances(bp, products(bp, bc), bc, self.l2bc[j]),
                       _segment_distances(cp, products(cp, ca), ca, self.l2ca[j])))
        denom = d00 * d11 - d01 * d01
        with np.errstate(divide="ignore", invalid="ignore"):
            v = (d11 * d20 - d01 * d21) / denom
            w = (d00 * d21 - d01 * d20) / denom
            plane = np.abs(products(ap, self.n[j])) / np.sqrt(nn)
            inside = (nn != 0.0) & (v >= 0.0) & (w >= 0.0) & (v + w <= 1.0)
        return np.where(inside, plane, edge)


def _segment_distances(rows, along, d, l2) -> np.ndarray:
    """Distance of each point to its segment, given as the point less the
    segment's start (`rows`), the product of that with the segment's
    vector `d`, and d @ d."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(along / l2, 0.0, 1.0)
    return np.where(l2 == 0.0, np.linalg.norm(rows, axis=1),
                    np.linalg.norm(rows - t[:, None] * d, axis=1))


def watertight(loops) -> bool:
    return geom.closed_surface_violations(list(loops)) == []


def triangulate_model(obj) -> np.ndarray:
    """World-space (T, 3, 3) triangles of a solid or a full model: each
    face's triangles (`geom.triangulate_face`) in face order, then the
    placement meshes as they are."""
    faces = obj.solid.faces if hasattr(obj, "solid") else obj.faces
    tris = [geom.triangulate_face(f.outer.as_array(), [r.as_array() for r in f.inner])
            for f in faces]
    tris += [np.asarray(p.mesh, dtype=float).reshape(-1, 3, 3)
             for p in getattr(obj, "placements", ())]
    return np.concatenate([np.empty((0, 3, 3)), *tris])


def sample_model_points(obj, count: int) -> np.ndarray:
    """`count` area-weighted samples of the model's surface, on the fixed
    lattice of `geom.sample_on_triangles`."""
    if count < 1:
        raise DomainError("sample count must be positive")
    return geom.sample_on_triangles(triangulate_model(obj), count)


# ---------------------------------------------------------------------------
# reporting

def format_report(metrics: dict) -> str:
    if not metrics:
        raise DomainError("nothing to report")
    width = max(len(k) for k in metrics)
    lines = ["evaluation summary", "-" * max(18, width)]
    for key, value in metrics.items():
        lines.append(f"{key:<{width}}  {_format_value(value)}")
    return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def write_metrics(metrics: dict, path) -> None:
    """`key = value` lines; floats keep full repr so files round-trip."""
    with textio.writing(path) as fh:
        for key, value in metrics.items():
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            fh.write(f"{key} = {text}\n")


def read_metrics(path) -> dict:
    return textio.key_values(path, _parse_value)


def _parse_value(text: str):
    """true or false, an int, a float, or else the text; never empty."""
    if not text:
        raise ValueError("empty value")
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
