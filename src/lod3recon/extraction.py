"""Opening instances from the fused posterior raster.

Pipeline: threshold at p_high, morphological opening to kill speckle and
thin bridges, 8-connected clustering, rejection of clusters below
min_pixels or below the MIN_RECTANGULARITY floor, then per-cluster
bounding rectangles with a mean confidence and a majority window/door
label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fusion, textio
from .errors import DomainError, ParseError, ValidationError
from .model_io import OPENING_LABELS
from .rasters import FacadeRaster


@dataclass(frozen=True)
class ExtractionConfig:
    p_high: float = 0.7
    kernel: int = 3            # square structuring element side, pixels
    min_pixels: int = 4

    def __post_init__(self):
        if not 0.0 < self.p_high < 1.0:
            raise ValidationError("p_high must be in (0, 1)")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValidationError("kernel must be odd and >= 1")
        if self.min_pixels < 1:
            raise ValidationError("min_pixels must be >= 1")


@dataclass(frozen=True)
class OpeningInstance:
    """One detected opening on a facade.

    `rect` is (u_min, v_min, u_max, v_max) in facade meters and is the
    exact pixel bounding box scaled by the cell size.
    """
    face_id: str
    rect: tuple
    label: str
    confidence: float

    def __post_init__(self):
        object.__setattr__(self, "rect", tuple(float(x) for x in self.rect))
        u0, v0, u1, v1 = self.rect
        if not (u0 < u1 and v0 < v1):
            raise ValidationError(f"degenerate opening rect {self.rect}")
        if self.label not in OPENING_LABELS:
            raise ValidationError(f"label {self.label!r} not in {OPENING_LABELS}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError("confidence must be in [0, 1]")

    def area(self) -> float:
        u0, v0, u1, v1 = self.rect
        return (u1 - u0) * (v1 - v0)


def label_components(mask: np.ndarray) -> tuple:
    """8-connected components of a boolean mask: an int32 label raster,
    0 for background, and the component count.

    Labels are numbered by each component's first pixel in row-major
    order, as `scipy.ndimage.label` numbers them. The mask is labelled as
    horizontal runs: runs in adjacent rows that touch diagonally or
    directly are linked, and the links are merged by min-label hooking
    with pointer jumping, so no round walks a component pixel by pixel.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    row, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[1]          # exclusive; runs pair up in order
    n = len(row)
    # a run's neighbours in the next row form one slice of the run list:
    # the runs whose exclusive end is at or right of its start and whose
    # start is at or left of its exclusive end; keying a column as
    # row * (w + 2) + col orders every run of a row before the next row's
    stride = w + 2
    below = (row + 1) * stride
    lo = np.searchsorted(row * stride + end, below + start, side="left")
    hi = np.searchsorted(row * stride + start, below + end, side="right")
    links = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(n), links)
    b = np.arange(len(a)) - np.repeat(np.cumsum(links) - links - lo, links)
    # every run points at the smallest run of its component once no link
    # joins two roots; the smallest run is never hooked, so it is the root
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        if np.array_equal(ra, rb):
            break
        low = np.minimum(ra, rb)
        np.minimum.at(parent, ra, low)
        np.minimum.at(parent, rb, low)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    root = parent == np.arange(n)
    run_label = np.cumsum(root, dtype=np.int32)[parent]
    lengths = end - start
    first = row * w + start
    pixels = (np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
              + np.arange(lengths.sum()))
    labels = np.zeros(h * w, dtype=np.int32)
    labels[pixels] = np.repeat(run_label, lengths)
    return labels.reshape(h, w), int(root.sum())


def mask_clusters(mask: np.ndarray) -> list:
    """8-connected components of a boolean mask.

    Each cluster is an (n, 2) int array of (row, col) pairs in row-major
    order; clusters are sorted by (min row, min col).
    """
    labels, count = label_components(mask)
    flat = labels.ravel()
    # pixels grouped by label, background first, each in row-major order
    order = np.argsort(flat, kind="stable")
    pixels = np.stack(np.divmod(order, labels.shape[1]), axis=1)
    out = np.split(pixels, np.searchsorted(flat[order], np.arange(1, count + 1)))[1:]
    out.sort(key=lambda px: (int(px[:, 0].min()), int(px[:, 1].min())))
    return out


def _square_filter(mask: np.ndarray, kernel: int, reduce) -> np.ndarray:
    """`reduce` (np.all or np.any) over each pixel's kernel x kernel square,
    one axis at a time, with everything outside the raster False."""
    r = kernel // 2
    for axis in (0, 1):
        pad = np.pad(mask, [(r, r) if a == axis else (0, 0) for a in (0, 1)])
        mask = reduce(sliding_window_view(pad, kernel, axis=axis), axis=-1)
    return mask


def morphological_opening(mask: np.ndarray, kernel: int) -> np.ndarray:
    """Erosion then dilation with a kernel x kernel square element.

    Everything outside the raster counts as background, so shapes hugging
    the border erode like any others.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValidationError("kernel must be odd and >= 1")
    mask = np.asarray(mask, dtype=bool)
    if kernel == 1 or mask.size == 0:
        return mask.copy()
    return _square_filter(_square_filter(mask, kernel, np.all), kernel, np.any)


# a cluster filling less than half of its bounding box is speckle or a
# bridge between openings, not an opening
MIN_RECTANGULARITY = 0.5


def rectangularity(cluster) -> float:
    """Member-pixel count over bounding-box area, in (0, 1]."""
    px = np.asarray(cluster, dtype=int)
    if len(px) == 0:
        raise DomainError("empty cluster has no rectangularity")
    h = int(px[:, 0].max() - px[:, 0].min()) + 1
    w = int(px[:, 1].max() - px[:, 1].min()) + 1
    return len(px) / float(h * w)


def filter_instances(clusters, config: ExtractionConfig) -> list:
    """The clusters of at least `min_pixels` pixels whose rectangularity
    is at least MIN_RECTANGULARITY."""
    return [c for c in clusters if len(c) >= config.min_pixels
            and rectangularity(c) >= MIN_RECTANGULARITY]


def instance_confidence(cluster, posterior: np.ndarray) -> float:
    px = np.asarray(cluster, dtype=int)
    post = np.asarray(posterior, dtype=float)
    return float(post[px[:, 0], px[:, 1]].mean())


def cluster_label(cluster, door: np.ndarray) -> str:
    """Majority window/door vote of the member pixels, `door` marking the
    pixels that vote door; ties go to window."""
    px = np.asarray(cluster, dtype=int)
    return "door" if 2 * door[px[:, 0], px[:, 1]].sum() > len(px) else "window"


def cluster_to_opening(cluster, frame, label: str, confidence: float,
                       face_id: str) -> OpeningInstance:
    px = np.asarray(cluster, dtype=int)
    cell = frame.cell
    rect = (px[:, 1].min() * cell, px[:, 0].min() * cell,
            (px[:, 1].max() + 1) * cell, (px[:, 0].max() + 1) * cell)
    return OpeningInstance(face_id, rect, label, confidence)


def extract_openings(posterior: FacadeRaster, config: ExtractionConfig,
                     pointcloud: FacadeRaster | None = None,
                     texture: FacadeRaster | None = None, *,
                     face_id: str) -> list:
    """Full extraction pass over one facade's posterior raster."""
    post = posterior.channel("opening").astype(float)
    mask = morphological_opening(post > config.p_high, config.kernel)
    # a pixel votes door when its door probability, summed over the
    # semantic rasters, beats its summed window probability; ties, no
    # evidence included, go to window, the far more common class
    evidence = (pointcloud, texture)
    door = (fusion.class_mass(evidence, "door", posterior.frame)
            > fusion.class_mass(evidence, "window", posterior.frame))
    return [cluster_to_opening(cluster, posterior.frame,
                               cluster_label(cluster, door),
                               instance_confidence(cluster, post), face_id)
            for cluster in filter_instances(mask_clusters(mask), config)]


# ---------------------------------------------------------------------------
# file format

def write_instances(instances, path) -> None:
    with textio.writing(path) as fh:
        fh.write("# opening face=<id> label=<window|door> conf=<p> "
                 "rect=<umin vmin umax vmax>\n")
        for inst in instances:
            u0, v0, u1, v1 = inst.rect
            fh.write(f"opening face={inst.face_id} label={inst.label} "
                     f"conf={inst.confidence!r} "
                     f"rect={u0!r} {v0!r} {u1!r} {v1!r}\n")


def parse_instance(tokens, path, no) -> OpeningInstance:
    """The opening of `face=<id> label=<l> conf=<p> rect=<u0> <v0> <u1>
    <v1>` tokens; finite numbers only."""
    face, label, conf, rect_head = (
        textio.kv(t, key, path, no)
        for t, key in zip(tokens, ("face", "label", "conf", "rect")))
    if not face:
        raise ParseError(f"{path}:{no}: empty face id")
    conf, *rect = textio.finite(
        textio.floats([conf, rect_head, *tokens[4:]], path, no), "number",
        path, no)
    try:
        return OpeningInstance(face, rect, label, conf)
    except ValidationError as exc:
        raise ParseError(f"{path}:{no}: {exc}") from exc


def read_instances(path) -> list:
    out = []
    for no, text in textio.content_lines(path):
        tok = text.split()
        if len(tok) != 8 or tok[0] != "opening":
            raise ParseError(f"{path}:{no}: expected 'opening face=... "
                             "label=... conf=... rect=u v u v'")
        out.append(parse_instance(tok[1:], path, no))
    return out
