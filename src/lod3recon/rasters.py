"""Facade-aligned rasters and the projections that fill them.

All per-facade evidence (conflicts, point-cloud class probabilities,
rectified texture scores) is accumulated on the same pixel grid. The
grid is defined by a FacadeFrame built once per face; every raster for
that face shares it bit for bit, which is what makes later per-pixel
fusion legitimate.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import geom, textio
from .errors import (DegenerateCorrespondence, DomainError, FrameMismatch,
                     ParseError)

POINT_LABELS = ("arch", "column", "molding", "floor", "door", "window",
                "wall", "other")

CONFLICT_CHANNELS = ("conflicted", "confirmed", "unknown")


@dataclass(frozen=True)
class FacadeFrame:
    """Orthonormal facade chart: origin at the lower-left ring corner,
    u along the facade, v up the facade, normal = u x v pointing out of
    the building. Row 0 of a raster is the bottom pixel row."""
    origin: tuple
    u_axis: tuple
    v_axis: tuple
    cell: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("origin", "u_axis", "v_axis"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if self.cell <= 0.0:
            raise DomainError("cell size must be positive")
        if self.width < 1 or self.height < 1:
            raise DomainError("raster dimensions must be at least 1x1")

    @property
    def normal(self) -> tuple:
        return tuple(map(float, geom.cross(self.u_axis, self.v_axis)))

    def to_uv(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(self.origin)
        return np.stack([pts @ np.asarray(self.u_axis),
                         pts @ np.asarray(self.v_axis)], axis=1)

    def plane_distance(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(self.origin)
        return pts @ np.asarray(self.normal)

    def to_pixels(self, points, band: float | None = None):
        """(rows, cols, inside) for world points; `inside` is False outside
        the raster bounds or farther than `band` from the facade plane
        (default band: three cells)."""
        if band is None:
            band = 3.0 * self.cell
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        uv = self.to_uv(pts)
        dist = self.plane_distance(pts)
        cols = np.floor(uv[:, 0] / self.cell).astype(int)
        rows = np.floor(uv[:, 1] / self.cell).astype(int)
        inside = ((np.abs(dist) <= band)
                  & (cols >= 0) & (cols < self.width)
                  & (rows >= 0) & (rows < self.height))
        return rows, cols, inside

    def pixel_center_uv(self) -> np.ndarray:
        """(height, width, 2) array of pixel-center facade coordinates."""
        us = (np.arange(self.width) + 0.5) * self.cell
        vs = (np.arange(self.height) + 0.5) * self.cell
        uu, vv = np.meshgrid(us, vs)
        return np.stack([uu, vv], axis=2)

    def matches(self, other: "FacadeFrame", tol: float = 1e-9) -> bool:
        grid = (self.width, self.height, self.cell)
        gap = np.subtract([self.origin, self.u_axis, self.v_axis],
                          [other.origin, other.u_axis, other.v_axis])
        return grid == (other.width, other.height, other.cell) \
            and bool(np.abs(gap).max() <= tol)


def _cover(extent: float, cell: float) -> int:
    x = extent / cell
    r = round(x)
    return max(1, int(r) if abs(x - r) < 1e-6 else math.ceil(x))


def facade_frame(face, cell: float) -> FacadeFrame:
    """The one shared frame constructor for a face.

    v is the up direction projected into the face plane (falling back to
    world y for near-horizontal faces), u completes the right-handed
    triad with u x v equal to the outward face normal.
    """
    n = geom.ring_normal(face.outer.points)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(n[2])) >= 0.99:
        up = np.array([0.0, 1.0, 0.0])
    v = up - float(up @ n) * n
    v = v / np.linalg.norm(v)
    u = geom.cross(v, n)
    pts = face.outer.as_array()
    rel = pts - pts[0]
    us = rel @ u
    vs = rel @ v
    origin = pts[0] + float(us.min()) * u + float(vs.min()) * v
    width = _cover(float(us.max() - us.min()), cell)
    height = _cover(float(vs.max() - vs.min()), cell)
    return FacadeFrame(tuple(origin), tuple(u), tuple(v), float(cell), width, height)


@dataclass
class FacadeRaster:
    frame: FacadeFrame
    channels: tuple
    data: np.ndarray  # (height, width, len(channels)) float32

    def __post_init__(self):
        self.channels = tuple(self.channels)
        self.data = np.asarray(self.data, dtype=np.float32)
        expect = (self.frame.height, self.frame.width, len(self.channels))
        if self.data.shape != expect:
            raise DomainError(f"raster data shape {self.data.shape} != {expect}")

    @classmethod
    def zeros(cls, frame: FacadeFrame, channels) -> "FacadeRaster":
        channels = tuple(channels)
        data = np.zeros((frame.height, frame.width, len(channels)), dtype=np.float32)
        return cls(frame, channels, data)

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channels:
            raise KeyError(name)
        return self.data[:, :, self.channels.index(name)]


def require_same_frame(*rasters) -> None:
    base = rasters[0].frame
    for r in rasters[1:]:
        if not base.matches(r.frame):
            raise FrameMismatch("rasters do not share one facade frame")


# ---------------------------------------------------------------------------
# point-cloud probability projection

def project_point_probabilities(points, probs, frame: FacadeFrame,
                                band: float | None = None,
                                out: FacadeRaster | None = None) -> FacadeRaster:
    """Max-aggregate per-point class probabilities onto the facade grid.

    Points outside the distance band or the raster bounds are dropped;
    untouched pixels keep zero in every channel. With `out`, a point
    raster of `frame`, the points are maxed into it in place: the maximum
    does not depend on order, so any split of the points into blocks
    gives the raster of all of them at once.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != len(POINT_LABELS):
        raise DomainError(f"probs must be (N, {len(POINT_LABELS)})")
    raster = FacadeRaster.zeros(frame, POINT_LABELS) if out is None else out
    n = len(probs)
    if n == 0:
        return raster
    if n == 1:
        # a row of a product of two or more rows does not depend on their
        # count (geom.row_products): a lone point is projected as a row of
        # two, so its pixel does not depend on the block it came in
        points = np.repeat(np.atleast_2d(points), 2, axis=0)
    rows, cols, inside = (a[:n] for a in frame.to_pixels(points, band))
    rows, cols, probs = rows[inside], cols[inside], probs[inside]
    flat = raster.data.reshape(-1, len(POINT_LABELS))
    np.maximum.at(flat, rows * frame.width + cols, probs.astype(np.float32))
    return raster


def point_blocks(path):
    """Yield the labeled points of `path` in file order as (points, probs)
    blocks of at most `textio.BLOCK_ROWS` rows: x y z followed by one
    probability per point label (11 columns); coordinates must be finite
    and probabilities lie in [0, 1]. A bad line is raised when its block
    is reached."""
    row = _values(3 + len(POINT_LABELS))
    for table in textio.table_blocks(path, row, lambda t: [
            (~np.isfinite(t["v"][:, :3]).all(axis=1), "non-finite coordinate"),
            (~((t["v"][:, 3:] >= 0.0) & (t["v"][:, 3:] <= 1.0)).all(axis=1),
             "probability outside [0, 1]")]):
        yield table["v"][:, :3], table["v"][:, 3:]


def read_labeled_points(blocks):
    """The next (points, probs) block of the `point_blocks` iterator
    `blocks`; no points, (0, 3) and (0, 8) arrays, once it is spent."""
    return next(blocks, (np.empty((0, 3)), np.empty((0, len(POINT_LABELS)))))


@contextlib.contextmanager
def point_writer(path):
    """A function that appends (points, probs) arrays to the labeled point
    file begun at `path`."""
    header = "# x y z " + " ".join(f"p_{l}" for l in POINT_LABELS) + "\n"
    with textio.table_writer(path, header) as write:
        yield lambda points, probs: write([np.asarray(points, float),
                                           np.asarray(probs, float)])


# ---------------------------------------------------------------------------
# image probability projection via a plane homography

def estimate_homography(correspondences) -> np.ndarray:
    """DLT homography mapping facade (u, v) to image (x, y).

    Needs at least four correspondences in general position; raises
    DegenerateCorrespondence otherwise.
    """
    pairs = [((float(u), float(v)), (float(x), float(y)))
             for (u, v), (x, y) in correspondences]
    if len(pairs) < 4:
        raise DegenerateCorrespondence("need at least 4 correspondences")
    rows = []
    for (u, v), (x, y) in pairs:
        rows.append([u, v, 1, 0, 0, 0, -x * u, -x * v, -x])
        rows.append([0, 0, 0, u, v, 1, -y * u, -y * v, -y])
    a = np.asarray(rows, dtype=float)
    _, s, vt = np.linalg.svd(a)
    if s[7] <= 1e-10 * s[0]:
        raise DegenerateCorrespondence(
            "correspondences are degenerate (collinear or repeated points)")
    h = vt[-1].reshape(3, 3)
    return h / h[2, 2] if abs(h[2, 2]) > 1e-12 else h


def apply_homography(h: np.ndarray, uv) -> np.ndarray:
    uv = np.atleast_2d(np.asarray(uv, dtype=float))
    ones = np.ones((len(uv), 1))
    xyw = np.hstack([uv, ones]) @ np.asarray(h, dtype=float).T
    return xyw[:, :2] / xyw[:, 2:3]


def project_image_probabilities(image: np.ndarray, channels,
                                homography: np.ndarray,
                                frame: FacadeFrame) -> FacadeRaster:
    """Sample an image-space probability grid onto the facade raster.

    Nearest-neighbour lookup; facade pixels mapping outside the image get
    zero. Image row 0 is the top scanline (y grows downward).
    """
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3 or image.shape[2] != len(tuple(channels)):
        raise DomainError("image must be (H, W, C) matching the channel list")
    uv = frame.pixel_center_uv().reshape(-1, 2)
    xy = apply_homography(homography, uv)
    cols = np.floor(xy[:, 0]).astype(int)
    rows = np.floor(xy[:, 1]).astype(int)
    h, w = image.shape[:2]
    inside = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    out = np.zeros((frame.height * frame.width, image.shape[2]), dtype=np.float32)
    out[inside] = image[rows[inside], cols[inside]]
    return FacadeRaster(frame, tuple(channels),
                        out.reshape(frame.height, frame.width, image.shape[2]))


# ---------------------------------------------------------------------------
# file formats

def _values(n: int, kind="<f8") -> np.dtype:
    """A table row of `n` floats of the type `kind`."""
    return np.dtype([("v", kind, (n,))])


def _write_pixels(path, header: str, data, channels) -> None:
    """`header`, the channel list, then one line of all channels per pixel."""
    textio.write_table(path, header + "channels " + " ".join(channels) + "\n",
                       [data.reshape(-1, len(channels))])


def _read_pixels(path, kind: str, header: dict, vectors=()):
    """Inverse of `_write_pixels` for a `<kind> key=value...` header line,
    one `<name> x y z` line per name in `vectors` and the channel list.
    `header` maps each header key, in file order, to its type and must
    hold `width` and `height`. Returns the typed header values, the
    vectors by name, the channel names and the (height, width, channels)
    float32 pixel data."""
    def parse(lines):
        if len(lines) < 2 + len(vectors):
            # "facade_raster" -> "raster", "pixel_grid" -> "grid"
            raise ParseError(f"{path}: truncated {kind.rsplit('_', 1)[1]} file")
        no, head = lines[0]
        tok = head.split()
        if tok[0] != kind:
            raise ParseError(f"{path}:{no}: expected '{kind}' header")
        if len(tok) != len(header) + 1:
            raise ParseError(f"{path}:{no}: expected {' '.join(header)} fields")
        try:
            values = {key: convert(textio.kv(t, key, path, no))
                      for t, (key, convert) in zip(tok[1:], header.items())}
        except ValueError as exc:
            raise ParseError(f"{path}:{no}: bad header numbers") from exc
        textio.finite(values.values(), "header number", path, no)
        if values["width"] < 1 or values["height"] < 1:
            raise ParseError(f"{path}:{no}: dimensions must be at least 1x1")
        if "cell" in values and values["cell"] <= 0.0:
            raise ParseError(f"{path}:{no}: cell size must be positive")
        vecs = {}
        for (no, text), key in zip(lines[1:], vectors):
            tok = text.split()
            if len(tok) != 4 or tok[0] != key:
                raise ParseError(f"{path}:{no}: expected '{key} x y z'")
            vecs[key] = tuple(textio.finite(textio.floats(tok[1:], path, no),
                                            "coordinate", path, no))
        no, text = lines[-1]
        tok = text.split()
        if tok[0] != "channels" or len(tok) < 2:
            raise ParseError(f"{path}:{no}: expected channel list")
        channels = tuple(tok[1:])
        for name in channels:
            if channels.count(name) > 1:
                raise ParseError(f"{path}:{no}: duplicate channel {name!r}")
        return (values, vecs, channels), _values(len(channels), "<f4")

    # a raster repeats few distinct pixel lines: each is parsed once, as
    # a double cast to float32, where a double too large turns infinite
    (values, vecs, channels), table = textio.table(
        path, 2 + len(vectors), parse,
        lambda t: [(~np.isfinite(t["v"]), "non-finite pixel value")], repeats=True)
    width, height = values["width"], values["height"]
    if len(table) != width * height:
        raise ParseError(f"{path}: expected {width * height} pixel lines, "
                         f"got {len(table)}")
    return values, vecs, channels, table["v"].reshape(height, width, len(channels))


_VECTORS = ("origin", "u", "v")


def write_raster(raster: FacadeRaster, path) -> None:
    f = raster.frame
    header = f"facade_raster cell={f.cell!r} width={f.width} height={f.height}\n"
    for name, vec in zip(_VECTORS, (f.origin, f.u_axis, f.v_axis)):
        header += f"{name} " + " ".join(repr(v) for v in vec) + "\n"
    _write_pixels(path, header, raster.data, raster.channels)


def read_raster(path) -> FacadeRaster:
    head, vecs, channels, data = _read_pixels(
        path, "facade_raster", {"cell": float, "width": int, "height": int},
        _VECTORS)
    frame = FacadeFrame(vecs["origin"], vecs["u"], vecs["v"], **head)
    return FacadeRaster(frame, channels, data)


def write_pixel_grid(data: np.ndarray, channels, path) -> None:
    """Plain image-space probability grid (no facade geometry)."""
    data = np.asarray(data, dtype=np.float32)
    channels = tuple(channels)
    if data.ndim != 3 or data.shape[2] != len(channels):
        raise DomainError("grid must be (H, W, C) matching the channel list")
    _write_pixels(path, f"pixel_grid width={data.shape[1]} "
                        f"height={data.shape[0]}\n", data, channels)


def read_pixel_grid(path):
    _, _, channels, data = _read_pixels(
        path, "pixel_grid", {"width": int, "height": int})
    return data, channels


def write_correspondences(correspondences, path) -> None:
    """One `u v x y` line per facade-to-image correspondence."""
    textio.write_table(path, "# u v  x y\n", [np.array(
        [(*uv, *xy) for uv, xy in correspondences], dtype=float).reshape(-1, 4)])


def read_correspondences(path) -> list:
    """At least four `u v x y` rows of finite numbers, as the homography
    needs; fewer is an input error naming the file."""
    _, table = textio.table(path, 0, _values(4), lambda t: [
        (~np.isfinite(t["v"]).all(axis=1), "non-finite coordinate")])
    if len(table) < 4:
        raise ParseError(f"{path}: need at least 4 correspondences, got {len(table)}")
    return [((u, v), (x, y)) for u, v, x, y in table["v"].tolist()]
