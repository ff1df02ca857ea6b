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

    DA = 100 TP / AO, FA = 100 FP / D (zero when nothing was detected),
    DM = 100 TP / MO.
    """
    if counts.AO <= 0:
        raise DomainError("AO must be positive to compute detection rates")
    if counts.MO <= 0:
        raise DomainError("MO must be positive to compute detection rates")
    da = round(100.0 * counts.TP / counts.AO)
    fa = round(100.0 * counts.FP / counts.D) if counts.D > 0 else 0
    dm = round(100.0 * counts.TP / counts.MO)
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

def mesh_deviation(points, triangles) -> tuple:
    """Unsigned point-to-mesh distance, reduced to (mean, RMS)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tris = list(triangles)
    if pts.size == 0:
        raise DomainError("mesh deviation needs at least one sample point")
    if not tris:
        raise DomainError("mesh deviation needs at least one triangle")
    best = np.full(len(pts), np.inf)
    for tri in tris:
        best = np.minimum(best, geom.points_triangle_distance(pts, tri))
    mean = float(best.mean())
    rms = float(math.sqrt(float((best ** 2).mean())))
    return mean, rms


def watertight(loops) -> bool:
    return geom.closed_surface_violations(list(loops)) == []


def triangulate_model(obj) -> list:
    """World-space triangle soup of a solid or a full model.

    Faces triangulate with their holes bridged in; placement meshes pass
    through untouched.
    """
    faces = obj.solid.faces if hasattr(obj, "solid") else obj.faces
    tris = []
    for f in faces:
        outer = [tuple(p) for p in f.outer.points]
        holes = [[tuple(q) for q in r.points] for r in f.inner]
        verts = outer + [q for h in holes for q in h]
        for i, j, k in geom.triangulate_loop_3d(outer, holes):
            tris.append((verts[i], verts[j], verts[k]))
    for p in getattr(obj, "placements", ()):
        tris.extend(p.mesh)
    return tris


def sample_model_points(obj, count: int, seed: int = 0) -> np.ndarray:
    if count < 1:
        raise DomainError("sample count must be positive")
    rng = np.random.default_rng(seed)
    return geom.sample_on_triangles(rng, triangulate_model(obj), count)


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
