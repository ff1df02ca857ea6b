"""Cut accepted openings into the prior solid and close them with templates.

Each opening becomes a rectangular recess: the host face gains an inner
ring, four side walls descend to the recess depth, and a library template
scaled to the cut seals the recess floor. The assembly stays a closed
2-manifold, which `reconstruct_model` verifies before handing out a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom, textio
from .errors import (ConfigError, DomainError, OpeningOutsideFace,
                     OpeningTouchesBoundary, ParseError, ValidationError)
from .extraction import OpeningInstance, parse_instance
from .model_io import (BuildingSolid, Face, Ring, blocks,
                       default_template_library, overflow_violations,
                       parse_points, parse_solid, points_text, solid_text)
from .rasters import facade_frame


@dataclass(frozen=True)
class Placement:
    """One fitted opening: the detection, the template used, and the
    world-space triangle mesh that seals its recess."""
    opening_id: str
    instance: OpeningInstance
    template: str
    mesh: tuple

    def __post_init__(self):
        mesh = tuple(tuple(tuple(float(c) for c in p) for p in tri)
                     for tri in self.mesh)
        object.__setattr__(self, "mesh", mesh)

    @property
    def face_id(self) -> str:
        return self.instance.face_id

    @property
    def label(self) -> str:
        return self.instance.label

    @property
    def confidence(self) -> float:
        return self.instance.confidence


@dataclass(frozen=True)
class Lod3Model:
    solid: BuildingSolid
    placements: tuple

    def __post_init__(self):
        object.__setattr__(self, "placements", tuple(self.placements))

    def loops(self):
        yield from self.solid.loops()
        for p in self.placements:
            yield from p.mesh

    def volume(self) -> float:
        return geom.enclosed_volume(self.loops())


# ---------------------------------------------------------------------------
# instance merging

def rects_touch(a, b) -> bool:
    """Whether the closed (u0, v0, u1, v1) rects `a` and `b` overlap or
    share an edge or a corner."""
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _bounds(members) -> tuple:
    """The bounding rect of the instances `members`."""
    return (min(m.rect[0] for m in members), min(m.rect[1] for m in members),
            max(m.rect[2] for m in members), max(m.rect[3] for m in members))


def merge_overlapping_instances(instances) -> list:
    """Union touching or overlapping detections per face into their
    bounding rect, until no two rects of a face touch: a shared edge would
    leave a wall of no thickness between two recesses.

    The merged label comes from the largest member (ties prefer window),
    the confidence is the rect-area weighted mean.
    """
    # no two groups of a face touch: adding an instance fuses the groups
    # it touches, and the grown rect again, until it touches none
    groups = []
    for inst in instances:
        merged = [inst]
        while hits := [g for g in groups if g[0].face_id == inst.face_id
                       and rects_touch(_bounds(merged), _bounds(g))]:
            merged = [m for g in hits for m in g] + merged
            for g in hits:
                groups.remove(g)
        groups.append(merged)

    out = []
    for members in groups:
        if len(members) == 1:
            out.append(members[0])
            continue
        biggest = max(a.area() for a in members)
        labels = {m.label for m in members if m.area() == biggest}
        label = "window" if "window" in labels else "door"
        weight = sum(m.area() for m in members)
        conf = sum(m.confidence * m.area() for m in members) / weight
        out.append(OpeningInstance(members[0].face_id, _bounds(members),
                                   label, conf))
    return out


# ---------------------------------------------------------------------------
# CSG recess cutting and template fitting

def _check_rects(rects, rings, margin: float, face_id: str) -> None:
    """Raise for the first of the (k, 4) (u0, v0, u1, v1) `rects` that
    has a corner beyond float jitter outside the face of the 2-D `rings`
    (its outer ring, then its holes) or in a hole, holds a vertex of a
    hole, or comes within `margin` of a ring; each rect is tested in that
    order."""
    eps = 1e-9
    least = max(margin, eps)
    rects = np.asarray(rects, dtype=float).reshape(-1, 4)
    u0, v0, u1, v1 = rects.T
    # the corners of each rect in turn, and the corner each edge runs to
    corners = np.stack([u0, v0, u1, v0, u1, v1, u0, v1], axis=1).reshape(-1, 2)
    ahead = np.stack([u1, v0, u1, v1, u0, v1, u0, v0], axis=1).reshape(-1, 2)
    rings = [np.asarray(r, dtype=float) for r in rings]
    tails = np.concatenate(rings)
    heads = np.concatenate([np.roll(r, -1, axis=0) for r in rings])
    starts = np.cumsum([0] + [len(r) for r in rings[:-1]])

    # a corner outside the outer ring or inside a hole, farther from that
    # ring than float jitter
    forbidden = np.stack([geom.points_in_polygon(corners, [r]) for r in rings],
                         axis=1)
    forbidden[:, 0] = ~forbidden[:, 0]
    near = np.minimum.reduceat(
        geom.segment_distances(corners, corners, tails, heads), starts, axis=1)
    leaves = (forbidden & (near > eps)).reshape(len(rects), -1).any(axis=1)
    x, y = tails[len(rings[0]):].T
    overlaps = ((u0[:, None] < x) & (x < u1[:, None])
                & (v0[:, None] < y) & (y < v1[:, None])).any(axis=1)
    gap = geom.segment_distances(corners, ahead, tails, heads)
    touches = gap.reshape(len(rects), -1).min(axis=1) <= least
    for rect, leave, overlap, touch in zip(map(tuple, rects.tolist()), leaves,
                                           overlaps, touches):
        if leave:
            raise OpeningOutsideFace(f"opening {rect} leaves face {face_id}")
        if overlap:
            raise OpeningOutsideFace(
                f"opening {rect} overlaps an existing opening on {face_id}")
        if touch:
            raise OpeningTouchesBoundary(
                f"opening {rect} is within {least!r} of a boundary "
                f"of face {face_id}")


def reconstruct_model(solid: BuildingSolid, instances, templates: dict | None = None,
                      depth: float = 0.1, margin: float = 0.0) -> Lod3Model:
    """The LoD3 model of `solid` with the `instances`, merged, cut into
    their host faces as recesses `depth` deep and sealed by templates.

    Each host face is charted once, by `facade_frame(face, 1.0)`, and
    gains a clockwise inner ring per opening; four recess side walls per
    opening follow the faces of `solid`, in face order. In merged order,
    as `opening_001`, ..., each opening gets the first template of its
    label, mapped from the unit anchor onto its recess floor: x and y
    scale to the cut rect, and z so that the template's full depth spans
    the recess (a template deeper than its `depth` attribute would poke
    out of the wall plane); a flat template lands on the recess floor.
    The assembled shell must be closed.
    """
    if depth <= 0.0:
        raise DomainError("cut depth must be positive")
    if templates is None:
        templates = default_template_library()
    merged = merge_overlapping_instances(instances)
    by_face = {}
    for inst in merged:
        by_face.setdefault(inst.face_id, []).append(inst)
    known = {f.face_id for f in solid.faces}
    for face_id in by_face:
        if face_id not in known:
            raise ValidationError(f"instance references unknown face {face_id!r}")

    faces, side_walls, charts = [], [], {}
    for face in solid.faces:
        insts = by_face.get(face.face_id)
        if not insts:
            faces.append(face)
            continue
        frame = facade_frame(face, 1.0)
        origin, u, v, n = charts[face.face_id] = tuple(np.asarray(a) for a in (
            frame.origin, frame.u_axis, frame.v_axis, frame.normal))
        _check_rects([inst.rect for inst in insts],
                     [frame.to_uv(loop) for loop in face.loops()], margin,
                     face.face_id)
        rings = list(face.inner)
        for k, inst in enumerate(insts, start=1):
            u0, v0, u1, v1 = inst.rect
            c00 = origin + u0 * u + v0 * v
            c10 = origin + u1 * u + v0 * v
            c11 = origin + u1 * u + v1 * v
            c01 = origin + u0 * u + v1 * v
            ring = [tuple(c00), tuple(c01), tuple(c11), tuple(c10)]
            rings.append(Ring(tuple(ring)))
            for w, (a, b) in enumerate(zip(ring, ring[1:] + ring[:1]), start=1):
                a_in = tuple(np.asarray(a) - n * depth)
                b_in = tuple(np.asarray(b) - n * depth)
                side_walls.append(Face(f"{face.face_id}_cut{k}_side{w}", "wall",
                                       Ring((b, a, a_in, b_in))))
        faces.append(Face(face.face_id, face.label, face.outer, tuple(rings)))

    placements = []
    for k, inst in enumerate(merged, start=1):
        template = next((t for t in templates.values() if t.label == inst.label),
                        None)
        if template is None:
            raise ConfigError(
                f"template library has no entry for label {inst.label!r}")
        origin, u, v, n = charts[inst.face_id]
        u0, v0, u1, v1 = inst.rect
        sz = depth / template.depth if template.depth > 0.0 else 0.0
        mesh = [[origin + (u0 + x * (u1 - u0)) * u + (v0 + y * (v1 - v0)) * v
                 + (z * sz - depth) * n for x, y, z in tri]
                for tri in template.triangles]
        placements.append(Placement(f"opening_{k:03d}", inst, template.name,
                                    mesh))
    model = Lod3Model(BuildingSolid(solid.solid_id, 3, faces + side_walls),
                      placements)
    bad = geom.closed_surface_violations(list(model.loops()))
    if bad:
        raise ValidationError(f"assembly is not watertight: {bad[0]}")
    return model


# ---------------------------------------------------------------------------
# model text format

def write_model(model: Lod3Model, path) -> None:
    with textio.writing(path) as fh:
        fh.write(solid_text(model.solid))
        for p in model.placements:
            u0, v0, u1, v1 = p.instance.rect
            fh.write(f"placement {p.opening_id} face={p.face_id} "
                     f"template={p.template} label={p.label} "
                     f"conf={p.confidence!r} "
                     f"rect={u0!r} {v0!r} {u1!r} {v1!r}\n")
            for tri in p.mesh:
                fh.write(f"tri {points_text(tri)}\n")
            fh.write("end\n")


def read_model(path) -> Lod3Model:
    """The solid block, then one `placement ... end` block per opening;
    the assembled shell must be closed."""
    lines = textio.content_lines(path)
    solid = parse_solid(lines, path)
    placements = []
    for no, tok, body in blocks(lines, path, "placement", ("tri",)):
        if len(tok) != 10:
            raise ParseError(
                f"{path}:{no}: expected 'placement <id> face=... template=... "
                "label=... conf=... rect=u0 v0 u1 v1'")
        template = textio.kv(tok[3], "template", path, no)
        inst = parse_instance([tok[2], *tok[4:]], path, no)
        mesh = tuple(parse_points(t, path, n, 3) for n, t in body)
        placements.append(Placement(tok[1], inst, template, mesh))
    model = Lod3Model(solid, tuple(placements))
    bad = geom.closed_surface_violations(list(model.loops()))
    if bad:
        raise ParseError(f"{path}: model shell is not closed: {bad[0]}")
    bad = overflow_violations(
        [(f"face {f.face_id}", loop) for f in solid.faces for loop in f.loops()]
        + [(f"placement {p.opening_id}", tri) for p in placements for tri in p.mesh])
    if bad:
        raise ParseError(f"{path}: invalid model: {bad[0]}")
    return model


# ---------------------------------------------------------------------------
# CityGML-subset export

_SURFACE_ELEMENT = {"wall": "WallSurface", "roof": "RoofSurface",
                    "ground": "GroundSurface", "closure": "ClosureSurface"}
_OPENING_ELEMENT = {"window": "Window", "door": "Door"}
_GML_NS = "http://www.opengis.net/gml"


def _pos_list(points) -> str:
    ring = list(points) + [points[0]]
    return " ".join(f"{float(c):.3f}" for p in ring for c in p)


def write_citygml(model: Lod3Model, path) -> None:
    """Serialize the documented CityGML subset (see README).

    Surfaces become WallSurface/RoofSurface/GroundSurface/ClosureSurface
    members with one Polygon each; openings nest under their host surface
    as Window/Door with a `confidence` child. Output is byte-stable for
    identical input.
    """
    if not model.solid.solid_id:
        raise ParseError("building id must not be empty")
    by_face = {}
    for p in model.placements:
        by_face.setdefault(p.face_id, []).append(p)

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<CityModel xmlns:gml="{_GML_NS}">',
           '  <cityObjectMember>',
           f'    <Building gml:id="{model.solid.solid_id}" lod="3">']
    for face in model.solid.faces:
        element = _SURFACE_ELEMENT[face.label]
        out.append('      <boundedBy>')
        out.append(f'        <{element} gml:id="{face.face_id}">')
        out.append('          <lod3MultiSurface>')
        out.append('            <Polygon>')
        out.append(f'              <exterior><posList>{_pos_list(face.outer.points)}'
                   '</posList></exterior>')
        for ring in face.inner:
            out.append(f'              <interior><posList>{_pos_list(ring.points)}'
                       '</posList></interior>')
        out.append('            </Polygon>')
        out.append('          </lod3MultiSurface>')
        for p in by_face.get(face.face_id, ()):
            tag = _OPENING_ELEMENT[p.label]
            out.append('          <opening>')
            out.append(f'            <{tag} gml:id="{p.opening_id}">')
            out.append(f'              <confidence>{p.confidence:.4f}</confidence>')
            out.append('              <lod3MultiSurface>')
            for tri in p.mesh:
                out.append(f'                <Polygon><exterior><posList>'
                           f'{_pos_list(tri)}</posList></exterior></Polygon>')
            out.append('              </lod3MultiSurface>')
            out.append(f'            </{tag}>')
            out.append('          </opening>')
        out.append(f'        </{element}>')
        out.append('      </boundedBy>')
    out.append('    </Building>')
    out.append('  </cityObjectMember>')
    out.append('</CityModel>')
    with textio.writing(path) as fh:
        fh.write("\n".join(out) + "\n")
