"""Scene specs that several test modules share."""

from lod3recon.synth import SceneSpec, SynthOpening


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
