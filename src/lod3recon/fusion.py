"""Per-pixel Bayesian fusion of the three facade evidence maps.

The network has one binary target per pixel ("this pixel belongs to an
opening") observed through three soft parents: the ray-casting conflict
state, the point-cloud class mass, and the rectified-image class mass.
Inference is exact marginalization over the 12 parent combinations, so
fusing whole rasters is a single einsum.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import textio
from .errors import ConfigError, ParseError
from .model_io import OPENING_LABELS
from .rasters import CONFLICT_CHANNELS, FacadeRaster, require_same_frame

CONFLICT_STATES = CONFLICT_CHANNELS
EVIDENCE_STATES = ("opening", "other")


class Cpt:
    """Conditional probability of "opening" given the three parents.

    `table[s, a, b]` indexes conflict state s over CONFLICT_STATES and
    the two evidence states a, b over EVIDENCE_STATES (index 0 means the
    modality votes opening). The complementary non-opening entry is
    implied, so 12 numbers define the whole network.
    """

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        if t.shape != (3, 2, 2):
            raise ConfigError(f"CPT table must be 3x2x2, got {t.shape}")
        self.table = t

    def entry(self, conflict: str, pc: str, tex: str) -> float:
        return float(self.table[CONFLICT_STATES.index(conflict),
                                EVIDENCE_STATES.index(pc),
                                EVIDENCE_STATES.index(tex)])


def default_cpt() -> Cpt:
    """Hand-tuned weights.

    Two strong opening cues push the posterior past 0.7 regardless of the
    third; a single strong cue among otherwise weak evidence stays at or
    below 0.5. In particular, laser confirmation alone must not veto an
    opening that both other modalities agree on, or covered openings
    (blinds, curtains) would be lost.
    """
    return Cpt([
        [[0.95, 0.80], [0.80, 0.30]],   # conflicted
        [[0.85, 0.25], [0.25, 0.02]],   # confirmed
        [[0.85, 0.45], [0.45, 0.10]],   # unknown
    ])


def validate_cpt(cpt) -> list:
    """Violation strings; empty when the table is complete and in range.

    Accepts a Cpt or a mapping {(conflict, pc, tex): probability} as
    produced while parsing a CPT file.
    """
    if isinstance(cpt, Cpt):
        entries = {(s, a, b): cpt.entry(s, a, b)
                   for s in CONFLICT_STATES
                   for a in EVIDENCE_STATES for b in EVIDENCE_STATES}
    else:
        entries = {k: float(v) for k, v in dict(cpt).items()}
    out = []
    for s in CONFLICT_STATES:
        for a in EVIDENCE_STATES:
            for b in EVIDENCE_STATES:
                key = (s, a, b)
                if key not in entries:
                    out.append(f"MissingCombination: {s}/{a}/{b}")
                elif not 0.0 <= entries[key] <= 1.0:
                    out.append(f"OutOfRange: {s}/{a}/{b} = {entries[key]!r}")
    known = {(s, a, b) for s in CONFLICT_STATES
             for a in EVIDENCE_STATES for b in EVIDENCE_STATES}
    for key in sorted(set(entries) - known, key=str):
        out.append(f"UnknownCombination: {key!r}")
    return out


class PixelEvidence(NamedTuple):
    """Soft evidence at one pixel.

    `conflict` is the (conflicted, confirmed, unknown) distribution;
    `pc_opening` and `tex_opening` are the opening-class masses of the
    point-cloud and texture modalities.
    """
    conflict: tuple
    pc_opening: float
    tex_opening: float


def pixel_posterior(ev: PixelEvidence, cpt: Cpt) -> float:
    """Marginal probability of "opening" under the given evidence."""
    conflict = np.asarray(ev.conflict, dtype=float)
    w_pc = np.array([ev.pc_opening, 1.0 - ev.pc_opening])
    w_tex = np.array([ev.tex_opening, 1.0 - ev.tex_opening])
    return float(np.einsum("s,sab,a,b->", conflict, cpt.table, w_pc, w_tex))


def opening_mass(raster: FacadeRaster | None, frame) -> np.ndarray:
    """Per-pixel opening-class mass of one modality.

    Sums whatever window/door channels the raster carries, capped at 1.
    A missing raster is neutral soft evidence, 0.5 everywhere.
    """
    if raster is None:
        return np.full((frame.height, frame.width), 0.5)
    mass = np.zeros((frame.height, frame.width), dtype=float)
    for name in OPENING_LABELS:
        if name in raster.channels:
            mass += raster.channel(name).astype(float)
    return np.minimum(mass, 1.0)


def fuse_maps(conflict: FacadeRaster | None, pointcloud: FacadeRaster | None,
              texture: FacadeRaster | None, cpt: Cpt | None = None) -> FacadeRaster:
    """Fuse the per-facade evidence rasters into an opening-probability map.

    Any raster may be None: missing point-cloud or texture evidence is
    neutral (0.5), a missing conflict map is all-unknown. At least one
    raster must be present to define the frame; all present rasters must
    share it exactly.
    """
    if cpt is None:
        cpt = default_cpt()
    present = [r for r in (conflict, pointcloud, texture) if r is not None]
    if not present:
        raise ConfigError("fusion needs at least one evidence raster")
    require_same_frame(*present)
    frame = present[0].frame

    if conflict is None:
        stack = np.zeros((frame.height, frame.width, 3), dtype=float)
        stack[:, :, 2] = 1.0
    else:
        stack = np.stack([conflict.channel(c).astype(float)
                          for c in CONFLICT_STATES], axis=2)
    pc = opening_mass(pointcloud, frame)
    tex = opening_mass(texture, frame)
    w_pc = np.stack([pc, 1.0 - pc], axis=2)
    w_tex = np.stack([tex, 1.0 - tex], axis=2)
    post = np.einsum("hws,sab,hwa,hwb->hw", stack, cpt.table, w_pc, w_tex)

    out = FacadeRaster.zeros(frame, ("opening",))
    out.data[:, :, 0] = post
    return out


def disambiguate_label(pointcloud: FacadeRaster | None,
                       texture: FacadeRaster | None, pixel) -> str:
    """Window-or-door call for one pixel by summed class probability.

    Ties, including the no-evidence case, resolve to window (the far more
    common class on facades).
    """
    r, c = pixel
    win = 0.0
    door = 0.0
    for raster in (pointcloud, texture):
        if raster is None:
            continue
        if "window" in raster.channels:
            win += float(raster.channel("window")[r, c])
        if "door" in raster.channels:
            door += float(raster.channel("door")[r, c])
    return "door" if door > win else "window"


# ---------------------------------------------------------------------------
# file format

def read_cpt(path) -> Cpt:
    entries = {}
    for no, text in textio.content_lines(path):
        tok = text.split()
        if len(tok) != 5 or tok[0] != "cpt":
            raise ParseError(
                f"{path}:{no}: expected 'cpt <conflict> <pc> <tex> <p>'")
        key = (tok[1], tok[2], tok[3])
        if key in entries:
            raise ParseError(f"{path}:{no}: duplicate combination {key}")
        try:
            entries[key] = float(tok[4])
        except ValueError as exc:
            raise ParseError(f"{path}:{no}: bad probability") from exc
    bad = validate_cpt(entries)
    if bad:
        raise ParseError(f"{path}: invalid CPT: {bad[0]}")
    table = np.empty((3, 2, 2), dtype=float)
    for i, s in enumerate(CONFLICT_STATES):
        for j, a in enumerate(EVIDENCE_STATES):
            for k, b in enumerate(EVIDENCE_STATES):
                table[i, j, k] = entries[(s, a, b)]
    return Cpt(table)
