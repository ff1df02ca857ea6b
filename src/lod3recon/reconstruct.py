"""Cut accepted openings into the prior solid and close them with templates.

Each opening becomes a rectangular recess: the host face gains an inner
ring, four side walls descend to the recess depth, and a library template
scaled to the cut seals the recess floor. The assembly stays a closed
2-manifold, which `assemble_lod3` verifies before handing out a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom, textio
from .errors import (ConfigError, DomainError, OpeningOutsideFace,
                     OpeningTouchesBoundary, ParseError, ValidationError)
from .extraction import OpeningInstance, parse_instance
from .model_io import (BuildingSolid, Face, OpeningTemplate, Ring, blocks,
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

def _rects_overlap(a, b) -> bool:
    # strict interior overlap; shared edges do not count
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def _rects_touch(a, b) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def merge_overlapping_instances(instances) -> list:
    """Union overlapping detections per face into their bounding rect.

    The merged label comes from the largest member (ties prefer window),
    the confidence is the rect-area weighted mean.
    """
    # adding an instance fuses every group it touches, so overlap chains
    # collapse transitively in a single pass
    groups = []
    for inst in instances:
        hits = [g for g in groups
                if g[0].face_id == inst.face_id
                and any(_rects_overlap(inst.rect, m.rect) for m in g)]
        merged = [m for g in hits for m in g] + [inst]
        for g in hits:
            groups.remove(g)
        groups.append(merged)

    out = []
    for members in groups:
        if len(members) == 1:
            out.append(members[0])
            continue
        u0 = min(m.rect[0] for m in members)
        v0 = min(m.rect[1] for m in members)
        u1 = max(m.rect[2] for m in members)
        v1 = max(m.rect[3] for m in members)
        biggest = max(a.area() for a in members)
        labels = {m.label for m in members if m.area() == biggest}
        label = "window" if "window" in labels else "door"
        weight = sum(m.area() for m in members)
        conf = sum(m.confidence * m.area() for m in members) / weight
        out.append(OpeningInstance(members[0].face_id, (u0, v0, u1, v1),
                                   label, conf))
    return out


# ---------------------------------------------------------------------------
# CSG recess cutting

def _face_chart(face):
    frame = facade_frame(face, 1.0)
    return (np.asarray(frame.origin), np.asarray(frame.u_axis),
            np.asarray(frame.v_axis), np.asarray(frame.normal))


def _ring_uv(ring, origin, u, v):
    rel = ring.as_array() - origin
    return [(float(p @ u), float(p @ v)) for p in rel]


def _rect_clearance(corners, loops_uv) -> float:
    best = float("inf")
    edges = list(zip(corners, corners[1:] + corners[:1]))
    for loop in loops_uv:
        for b0, b1 in zip(loop, loop[1:] + loop[:1]):
            for a0, a1 in edges:
                best = min(best, geom.segment_distance_2d(a0, a1, b0, b1))
    return best


def _point_loop_distance(c, loop) -> float:
    return min(geom.point_segment_distance_2d(c, b0, b1)
               for b0, b1 in zip(loop, loop[1:] + loop[:1]))


def _check_rect_inside(rect, outer_uv, holes_uv, margin, face_id):
    u0, v0, u1, v1 = rect
    corners = [(u0, v0), (u1, v0), (u1, v1), (u0, v1)]
    eps = 1e-9

    def clearly_outside(c):
        # a corner sitting in forbidden territory beyond float jitter
        if (not geom.point_in_polygon_2d(c, outer_uv)
                and _point_loop_distance(c, outer_uv) > eps):
            return True
        return any(geom.point_in_polygon_2d(c, h)
                   and _point_loop_distance(c, h) > eps
                   for h in holes_uv)

    if any(clearly_outside(c) for c in corners):
        raise OpeningOutsideFace(f"opening {rect} leaves face {face_id}")
    for hole in holes_uv:
        if any(u0 < x < u1 and v0 < y < v1 for x, y in hole):
            raise OpeningOutsideFace(
                f"opening {rect} overlaps an existing opening on {face_id}")
    clearance = _rect_clearance(corners, [outer_uv] + holes_uv)
    if clearance <= max(margin, eps):
        raise OpeningTouchesBoundary(
            f"opening {rect} is within {max(margin, eps)!r} of a boundary "
            f"of face {face_id}")


def cut_openings(solid: BuildingSolid, instances, depth: float,
                 margin: float = 0.0) -> BuildingSolid:
    """Cut one rectangular recess per instance into its host face.

    The host face gains a clockwise inner ring; four recess side walls
    are appended as new faces. The recess floor stays open for the
    template, so the returned solid alone is not closed.
    """
    if depth <= 0.0:
        raise DomainError("cut depth must be positive")
    by_face = {}
    for inst in instances:
        by_face.setdefault(inst.face_id, []).append(inst)
    for face_id, insts in by_face.items():
        try:
            solid.face(face_id)
        except KeyError:
            raise ValidationError(f"instance references unknown face {face_id!r}")
        for i in range(len(insts)):
            for j in range(i + 1, len(insts)):
                # touching rects would leave a zero-thickness wall sliver
                if _rects_touch(insts[i].rect, insts[j].rect):
                    raise ValidationError(
                        f"overlapping or touching instances on face "
                        f"{face_id}; merge first")

    faces = []
    side_walls = []
    for face in solid.faces:
        insts = by_face.get(face.face_id)
        if not insts:
            faces.append(face)
            continue
        origin, u, v, n = _face_chart(face)
        outer_uv = _ring_uv(face.outer, origin, u, v)
        holes_uv = [_ring_uv(r, origin, u, v) for r in face.inner]
        rings = list(face.inner)
        for k, inst in enumerate(insts, start=1):
            _check_rect_inside(inst.rect, outer_uv, holes_uv, margin,
                               face.face_id)
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
    return BuildingSolid(solid.solid_id, solid.lod, tuple(faces + side_walls))


# ---------------------------------------------------------------------------
# template fitting

def fit_template(template: OpeningTemplate, instance: OpeningInstance,
                 frame, depth: float) -> tuple:
    """Map the unit-anchor template onto the instance's recess floor.

    x and y scale to the cut rectangle, z scales so the template's full
    depth spans the recess (a template deeper than its `depth` attribute
    would poke out of the wall plane). Flat templates land exactly on the
    recess floor.
    """
    if depth <= 0.0:
        raise DomainError("cut depth must be positive")
    origin = np.asarray(frame.origin, dtype=float)
    u = np.asarray(frame.u_axis, dtype=float)
    v = np.asarray(frame.v_axis, dtype=float)
    n = np.asarray(frame.normal, dtype=float)
    u0, v0, u1, v1 = instance.rect
    sz = depth / template.depth if template.depth > 0.0 else 0.0

    def place(p):
        x, y, z = p
        world = (origin + (u0 + x * (u1 - u0)) * u + (v0 + y * (v1 - v0)) * v
                 + (z * sz - depth) * n)
        return tuple(float(c) for c in world)

    return tuple(tuple(place(p) for p in tri) for tri in template.triangles)


def pick_template(templates: dict, label: str) -> OpeningTemplate:
    """First library template whose label matches the instance label."""
    for tmpl in templates.values():
        if tmpl.label == label:
            return tmpl
    raise ConfigError(f"template library has no entry for label {label!r}")


# ---------------------------------------------------------------------------
# assembly

def assemble_lod3(solid: BuildingSolid, fitted) -> Lod3Model:
    """Combine the cut solid with fitted meshes into a validated model.

    `fitted` holds (instance, template_name, mesh) triples in placement
    order. Openings get fresh sequential ids; the combined shell must be
    watertight or the assembly is refused.
    """
    placements = []
    for k, (inst, template_name, mesh) in enumerate(fitted, start=1):
        try:
            solid.face(inst.face_id)
        except KeyError:
            raise ValidationError(
                f"placement references unknown face {inst.face_id!r}")
        placements.append(Placement(f"opening_{k:03d}", inst, template_name,
                                    mesh))
    model = Lod3Model(BuildingSolid(solid.solid_id, 3, solid.faces),
                      tuple(placements))
    bad = geom.closed_surface_violations(list(model.loops()))
    if bad:
        raise ValidationError(f"assembly is not watertight: {bad[0]}")
    return model


def reconstruct_model(solid: BuildingSolid, instances, templates: dict | None = None,
                      depth: float = 0.1, margin: float = 0.0) -> Lod3Model:
    """Merge, cut, fit, assemble: the one-call form of this module."""
    if templates is None:
        templates = default_template_library()
    merged = merge_overlapping_instances(instances)
    cut = cut_openings(solid, merged, depth, margin)
    fitted = []
    for inst in merged:
        tmpl = pick_template(templates, inst.label)
        frame = facade_frame(solid.face(inst.face_id), 1.0)
        fitted.append((inst, tmpl.name, fit_template(tmpl, inst, frame, depth)))
    return assemble_lod3(cut, fitted)


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
