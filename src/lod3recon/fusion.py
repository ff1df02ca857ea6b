"""Per-pixel Bayesian fusion of the three facade evidence maps.

The network has one binary target per pixel ("this pixel belongs to an
opening") observed through three soft parents: the ray-casting conflict
state, the point-cloud class mass, and the rectified-image class mass.
Inference is exact marginalization over the 12 parent combinations, so
fusing whole rasters is a single einsum.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import textio
from .errors import ConfigError, ParseError
from .model_io import OPENING_LABELS
from .rasters import CONFLICT_CHANNELS, FacadeRaster, require_same_frame

CONFLICT_STATES = CONFLICT_CHANNELS
EVIDENCE_STATES = ("opening", "other")
# (conflict, pc, tex) in the order of Cpt.table's entries
COMBINATIONS = tuple(itertools.product(CONFLICT_STATES, EVIDENCE_STATES,
                                       EVIDENCE_STATES))


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


def validate_cpt(entries: dict) -> list:
    """Violation strings of a mapping {(conflict, pc, tex): probability},
    as produced while parsing a CPT file; empty when it is complete and in
    range."""
    out = []
    for key in COMBINATIONS:
        if key not in entries:
            out.append(f"MissingCombination: {'/'.join(key)}")
        elif not 0.0 <= entries[key] <= 1.0:
            out.append(f"OutOfRange: {'/'.join(key)} = {entries[key]!r}")
    for key in sorted(set(entries) - set(COMBINATIONS), key=str):
        out.append(f"UnknownCombination: {key!r}")
    return out


def posterior(conflict, pc, tex, cpt: Cpt) -> np.ndarray:
    """Marginal probability of "opening", elementwise over float64 arrays
    of any leading shape: `conflict` (..., 3) holds the (conflicted,
    confirmed, unknown) distribution, `pc` and `tex` (...) the
    opening-class masses of the point-cloud and texture modalities."""
    w_pc = np.stack([pc, 1.0 - pc], axis=-1)
    w_tex = np.stack([tex, 1.0 - tex], axis=-1)
    return np.einsum("...s,sab,...a,...b->...", conflict, cpt.table, w_pc, w_tex)


def class_mass(rasters, name: str, frame) -> np.ndarray:
    """Per-pixel float64 sum of the class channel `name` over `rasters`,
    in order; None, or a raster without that channel, adds nothing."""
    mass = np.zeros((frame.height, frame.width))
    for raster in rasters:
        if raster is not None and name in raster.channels:
            mass += raster.channel(name)
    return mass


def opening_mass(raster: FacadeRaster | None, frame) -> np.ndarray:
    """Per-pixel opening-class mass of one modality.

    Sums whatever window/door channels the raster carries, capped at 1.
    A missing raster is neutral soft evidence, 0.5 everywhere.
    """
    if raster is None:
        return np.full((frame.height, frame.width), 0.5)
    return np.minimum(sum(class_mass([raster], name, frame)
                          for name in OPENING_LABELS), 1.0)


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
        stack = np.broadcast_to([0.0, 0.0, 1.0], (frame.height, frame.width, 3))
    else:
        stack = np.stack([conflict.channel(c).astype(float)
                          for c in CONFLICT_STATES], axis=2)
    out = FacadeRaster.zeros(frame, ("opening",))
    out.data[:, :, 0] = posterior(stack, opening_mass(pointcloud, frame),
                                  opening_mass(texture, frame), cpt)
    return out


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
    return Cpt(np.reshape([entries[key] for key in COMBINATIONS], (3, 2, 2)))
