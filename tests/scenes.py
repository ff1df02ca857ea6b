"""Scene specs that several test modules share."""

import numpy as np

from lod3recon.occupancy import ray_blocks
from lod3recon.synth import SceneSpec, SynthOpening, generate_scan


def block_spec(seed: int) -> SceneSpec:
    """The 16 x 6 x 10 m block: five columns of a ground and an upper
    opening, the middle ground one a door, three windows covered."""
    covered = {(4.0, 1.4), (1.0, 3.8), (13.0, 3.8)}
    openings = []
    for c in range(5):
        u0 = 1.0 + 3.0 * c
        if c == 2:
            openings.append(SynthOpening((7.0, 0.2, 8.2, 2.4), "door"))
        else:
            openings.append(SynthOpening((u0, 1.4, u0 + 1.2, 2.8), "window",
                                         (u0, 1.4) in covered))
        openings.append(SynthOpening((u0, 3.8, u0 + 1.2, 5.8), "window",
                                     (u0, 3.8) in covered))
    return SceneSpec(width=16.0, height=6.0, depth=10.0, pitch=0.1,
                     openings=tuple(openings), seed=seed)


def scan(spec: SceneSpec):
    """(rays, points, probs) of the whole scan of `spec`, its chunks
    joined."""
    return tuple(np.concatenate(part) for part in zip(*generate_scan(spec)))


def read_all_rays(path) -> np.ndarray:
    """Every ray of the file at `path` as one (n, 7) array, its blocks
    joined."""
    return np.concatenate([np.empty((0, 7)), *ray_blocks(path)])
