"""Building solids, opening templates, and their text file formats.

A solid is a closed shell of labeled planar faces. Faces may carry inner
rings (holes); inner rings wind opposite to the outer ring so signed
areas and volumes work out without special cases. The file formats are
small line-oriented text formats documented in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geom, textio
from .errors import ParseError, ValidationError

PRIOR_LABELS = ("wall", "roof", "ground", "closure")
OPENING_LABELS = ("window", "door")
FACE_LABELS = PRIOR_LABELS + OPENING_LABELS

# anchor rectangle every opening template is modelled against: unit square
# in the z=0 plane, counter-clockwise seen from +z
TEMPLATE_ANCHOR = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0))


class Point3(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class Ring:
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple(Point3(float(p[0]), float(p[1]), float(p[2]))
                                 for p in self.points))
        if len(self.points) < 3:
            raise ValidationError("ring needs at least 3 points")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


@dataclass(frozen=True)
class Face:
    face_id: str
    label: str
    outer: Ring
    inner: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "inner", tuple(self.inner))

    def plane(self):
        """Unit normal n and offset d with n . x = d on the face plane."""
        n = geom.ring_normal(self.outer.points)
        return n, float(n @ self.outer.as_array()[0])

    def loops(self):
        yield self.outer.points
        for ring in self.inner:
            yield ring.points


@dataclass(frozen=True)
class BuildingSolid:
    solid_id: str
    lod: int
    faces: tuple

    def __post_init__(self):
        object.__setattr__(self, "faces", tuple(self.faces))

    def face(self, face_id: str) -> Face:
        for f in self.faces:
            if f.face_id == face_id:
                return f
        raise KeyError(face_id)

    def loops(self):
        for f in self.faces:
            yield from f.loops()

    def volume(self) -> float:
        return geom.enclosed_volume(self.loops())


@dataclass(frozen=True)
class OpeningTemplate:
    """Opening geometry modelled against the unit anchor rectangle.

    `triangles` must close against the reversed anchor ring, so that a
    placed template seals the hole it is fitted into. `depth` is the
    canonical body extent along +z (0 for flat panels); placement scales
    it to the actual recess depth.
    """
    name: str
    label: str
    depth: float
    triangles: tuple

    def __post_init__(self):
        if self.label not in OPENING_LABELS:
            raise ValidationError(f"template label {self.label!r} not in {OPENING_LABELS}")
        if self.depth < 0.0:
            raise ValidationError("template depth must be >= 0")
        tris = tuple(tuple(Point3(float(p[0]), float(p[1]), float(p[2])) for p in t)
                     for t in self.triangles)
        object.__setattr__(self, "triangles", tris)
        loops = list(tris)
        loops.append(tuple(reversed(TEMPLATE_ANCHOR)))
        bad = geom.closed_surface_violations(loops)
        if bad:
            raise ValidationError(
                f"template {self.name!r} does not close against its anchor: {bad[0]}")


def default_template_library() -> dict:
    """Built-in templates: a flat door panel and a recessed window pane."""
    a0, a1, a2, a3 = TEMPLATE_ANCHOR
    door = OpeningTemplate("flat_panel", "door", 0.0, ((a0, a1, a2), (a0, a2, a3)))

    h = 0.05
    anchor = TEMPLATE_ANCHOR
    pane = tuple((p[0], p[1], h) for p in anchor)
    tris = []
    for i in range(4):
        j = (i + 1) % 4
        tris.append((anchor[i], anchor[j], pane[j]))
        tris.append((anchor[i], pane[j], pane[i]))
    tris.append((pane[0], pane[1], pane[2]))
    tris.append((pane[0], pane[2], pane[3]))
    window = OpeningTemplate("mid_pane", "window", 0.1, tuple(tris))
    return {door.name: door, window.name: window}


# ---------------------------------------------------------------------------
# validation

def overflow_violations(named_loops) -> list:
    """Where finite coordinates overflow: a violation for each loop of the
    (name, loop) pairs whose area vector, its length or the offset of a
    vertex along the unit normal is not finite, else one for an enclosed
    volume that is not. All loops are checked in one pass; numpy's
    warnings are silenced, and the values checked instead."""
    named_loops = list(named_loops)
    if not named_loops:
        return []
    loops = [np.asarray(loop, dtype=float).reshape(-1, 3) for _, loop in named_loops]
    counts = np.array([len(loop) for loop in loops])
    starts = np.cumsum(counts) - counts
    pts = np.concatenate(loops)
    after = np.arange(1, len(pts) + 1)
    after[starts + counts - 1] = starts
    with np.errstate(over="ignore", invalid="ignore"):
        # per loop Newell's area vector, its length, the unit normal
        area = 0.5 * np.add.reduceat(geom.cross(pts, pts[after]), starts, axis=0)
        size = np.sqrt((area * area).sum(axis=1))
        normal = np.divide(area, size[:, None], out=np.zeros_like(area),
                           where=size[:, None] > 0.0)
        offset = (pts * np.repeat(normal, counts, axis=0)).sum(axis=1)
        bad = ~(np.isfinite(area).all(axis=1) & np.isfinite(size)
                & np.logical_and.reduceat(np.isfinite(offset), starts))
        volume = (pts[starts] * area).sum() / 3.0
    if bad.any():
        return [f"{named_loops[i][0]}: area, normal or plane offset is not finite"
                for i in np.flatnonzero(bad)]
    return [] if math.isfinite(volume) else ["enclosed volume is not finite"]


def validate_solid(solid: BuildingSolid, tol: float = 1e-6) -> list:
    """Structural checks; returns violation strings (empty when clean).
    Geometry that overflows is reported alone: no other check can be
    computed on it."""
    violations = overflow_violations((f"face {f.face_id}", loop)
                                     for f in solid.faces for loop in f.loops())
    if violations:
        return violations
    seen = set()
    for f in solid.faces:
        if f.face_id in seen:
            violations.append(f"duplicate face id {f.face_id!r}")
        seen.add(f.face_id)
        if "," in f.face_id:
            # the occupancy tree's header separates face ids with ','
            violations.append(f"face id {f.face_id!r} contains ','")
        if f.label not in FACE_LABELS:
            violations.append(f"face {f.face_id}: unknown label {f.label!r}")
        try:
            n, d = f.plane()
        except ValueError:
            violations.append(f"face {f.face_id}: outer ring has zero area")
            continue
        for which, ring in (("outer", f.outer), *(("inner", r) for r in f.inner)):
            pts = ring.as_array()
            off = pts @ n - d
            if not float(np.abs(off).max()) <= tol:
                violations.append(
                    f"face {f.face_id}: {which} ring off-plane by {float(np.abs(off).max()):.2e}")
        for ring in f.inner:
            a = geom.newell_area_vector(ring.points)
            if not float(a @ n) < 0.0:
                violations.append(
                    f"face {f.face_id}: inner ring must wind opposite to outer")
        if f.inner:
            # the conflict stage triangulates every face
            try:
                geom.triangulate_loop_3d(f.outer.points,
                                         [r.points for r in f.inner])
            except ValueError as exc:
                violations.append(f"face {f.face_id}: {exc}")
    violations.extend(geom.closed_surface_violations(solid.loops()))
    if not violations:
        vol = solid.volume()
        if not vol > 0.0:
            violations.append(f"enclosed volume is {vol:.6g}, shell faces inward")
    return violations


# ---------------------------------------------------------------------------
# file formats

def blocks(lines, path, opener: str, body_keys, closing: bool = False):
    """Yield (no, tokens, body) for each `<opener> ... end` block, the
    grammar that solids, template libraries and models share.

    `no` and `tokens` belong to the opener line; `body` holds the
    (no, tokens) lines up to `end`, each led by one of `body_keys`. With
    `closing`, a bare `end` outside any block closes the enclosing
    section: it stops the iteration and must be present.
    """
    head = None
    for no, text in lines:
        tok = text.split()
        if tok[0] == opener:
            if head is not None:
                raise ParseError(f"{path}:{no}: {opener} without closing 'end'")
            head, body = (no, tok), []
        elif tok[0] == "end":
            if head is not None:
                yield (*head, body)
                head = None
            elif closing:
                return
            else:
                raise ParseError(f"{path}:{no}: stray 'end'")
        elif tok[0] not in body_keys:
            raise ParseError(f"{path}:{no}: unknown keyword {tok[0]!r}")
        elif head is None:
            raise ParseError(f"{path}:{no}: {tok[0]!r} outside a {opener} block")
        else:
            body.append((no, tok))
    if head is not None:
        raise ParseError(f"{path}:{head[0]}: {opener} not closed by 'end'")
    if closing:
        raise ParseError(f"{path}: missing final 'end'")


def parse_points(tokens, path, no, count: int | None = None) -> tuple:
    """The finite points of a `<keyword> x y z  x y z ...` line's tokens:
    at least three, or exactly `count`."""
    vals = textio.finite(textio.floats(tokens[1:], path, no), "coordinate",
                         path, no)
    if count is not None and len(vals) != 3 * count:
        raise ParseError(f"{path}:{no}: {tokens[0]} needs {3 * count} coordinates")
    if len(vals) < 9 or len(vals) % 3 != 0:
        raise ParseError(f"{path}:{no}: {tokens[0]} needs 3*k coordinates, k >= 3")
    return tuple(tuple(vals[i:i + 3]) for i in range(0, len(vals), 3))


def parse_solid(lines, path) -> BuildingSolid:
    """Consume one `solid ... end` block from (line_no, text) pairs.

    Stops right after the block's final `end`, so a composite file can
    carry more sections that the caller reads from the same iterator.
    """
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    no, head = first
    tok = head.split()
    if len(tok) != 3 or tok[0] != "solid":
        raise ParseError(f"{path}:{no}: expected 'solid <id> lod=<n>'")
    solid_id = tok[1]
    try:
        lod = int(textio.kv(tok[2], "lod", path, no))
    except ValueError as exc:
        raise ParseError(f"{path}:{no}: lod must be an integer") from exc

    faces = []
    for no, tok, body in blocks(lines, path, "face", ("outer", "inner"),
                                closing=True):
        if len(tok) != 3:
            raise ParseError(f"{path}:{no}: expected 'face <id> label=<label>'")
        label = textio.kv(tok[2], "label", path, no)
        rings = []
        for ring_no, ring_tok in body:
            # the outer ring comes first, then any inner rings
            if (ring_tok[0] == "outer") != (not rings):
                raise ParseError(f"{path}:{ring_no}: misplaced {ring_tok[0]!r}")
            rings.append(Ring(parse_points(ring_tok, path, ring_no)))
        if not rings:
            raise ParseError(f"{path}:{no}: face {tok[1]} has no outer ring")
        faces.append(Face(tok[1], label, rings[0], tuple(rings[1:])))
    if not faces:
        raise ParseError(f"{path}: solid has no faces")
    return BuildingSolid(solid_id, lod, tuple(faces))


def read_solid(path) -> BuildingSolid:
    """Parse a solid file (see README for the format)."""
    return parse_solid(textio.content_lines(path), path)


def points_text(points) -> str:
    """Points as `x y z  x y z ...`, each coordinate written with repr."""
    return "  ".join(" ".join(repr(c) for c in p) for p in points)


def solid_text(solid: BuildingSolid) -> str:
    """The `solid ... end` block that `parse_solid` reads back."""
    out = [f"solid {solid.solid_id} lod={solid.lod}\n"]
    for f in solid.faces:
        out.append(f"face {f.face_id} label={f.label}\n")
        out.append(f"outer {points_text(f.outer.points)}\n")
        out.extend(f"inner {points_text(ring.points)}\n" for ring in f.inner)
        out.append("end\n")
    out.append("end\n")
    return "".join(out)


def write_solid(solid: BuildingSolid, path) -> None:
    with textio.writing(path) as fh:
        fh.write(solid_text(solid))


def read_template_library(path) -> dict:
    """Parse opening templates keyed by name; a template that fails
    validation (label, depth, closure against the anchor) is a ParseError
    at its header line."""
    templates = {}
    for no, tok, body in blocks(textio.content_lines(path), path,
                                "template", ("tri",)):
        if len(tok) != 4:
            raise ParseError(
                f"{path}:{no}: expected 'template <name> label=<l> depth=<d>'")
        name = tok[1]
        if name in templates:
            raise ParseError(f"{path}:{no}: duplicate template {name!r}")
        label = textio.kv(tok[2], "label", path, no)
        depth = textio.floats([textio.kv(tok[3], "depth", path, no)], path, no)
        try:
            templates[name] = OpeningTemplate(
                name, label, textio.finite(depth, "depth", path, no)[0],
                tuple(parse_points(t, path, n, 3) for n, t in body))
        except ValidationError as exc:
            raise ParseError(f"{path}:{no}: {exc}") from exc
    if not templates:
        raise ParseError(f"{path}: no templates found")
    return templates


# ---------------------------------------------------------------------------
# convenience constructors

def box_solid(solid_id: str, origin, size, lod: int = 2) -> BuildingSolid:
    """Axis-aligned box with conventional labels: walls around, roof up,
    ground down. Handy prior for tests and synthetic scenes."""
    ox, oy, oz = (float(v) for v in origin)
    sx, sy, sz = (float(v) for v in size)
    if min(sx, sy, sz) <= 0.0:
        raise ValidationError("box size must be positive")
    x1, y1, z1 = ox + sx, oy + sy, oz + sz
    p = {
        "000": (ox, oy, oz), "100": (x1, oy, oz), "110": (x1, y1, oz), "010": (ox, y1, oz),
        "001": (ox, oy, z1), "101": (x1, oy, z1), "111": (x1, y1, z1), "011": (ox, y1, z1),
    }
    def ring(*keys):
        return Ring(tuple(p[k] for k in keys))
    faces = (
        Face("wall_front", "wall", ring("000", "100", "101", "001")),   # -y
        Face("wall_right", "wall", ring("100", "110", "111", "101")),   # +x
        Face("wall_back", "wall", ring("110", "010", "011", "111")),    # +y
        Face("wall_left", "wall", ring("010", "000", "001", "011")),    # -x
        Face("roof", "roof", ring("001", "101", "111", "011")),         # +z
        Face("ground", "ground", ring("000", "010", "110", "100")),     # -z
    )
    return BuildingSolid(solid_id, lod, faces)
