import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lod3recon import geom, occupancy, textio
from lod3recon.errors import DomainError, ParseError
from lod3recon.occupancy import OccupancyConfig, build_occupancy
from lod3recon.synth import SceneSpec, SynthOpening, scene_solid
from lod3recon.visibility import surface_voxels

import oracles
import scenes


def _rays(*rows):
    """(n, 7) ray array from (origin, endpoint[, hit]) tuples."""
    return np.array([(*r[0], *r[1], r[2] if len(r) > 2 else True) for r in rows],
                    dtype=float)


def cells(tree):
    """The tree as the scalar oracle's dict of [log_odds, hit_dist,
    hit_point, pass_dist, pass_endpoint], points None without evidence."""
    out = {}
    for i, key in enumerate(tree.keys.tolist()):
        hit_d, pass_d = float(tree.hit_dist[i]), float(tree.pass_dist[i])
        out[tuple(key)] = [
            float(tree.log_odds[i]),
            hit_d, tuple(tree.hit_point[i].tolist()) if hit_d != math.inf else None,
            pass_d, tuple(tree.pass_point[i].tolist()) if pass_d != math.inf else None]
    return out


def _oracle_cells(rays, cfg):
    ref = oracles.ScalarOccupancy(cfg)
    for row in np.asarray(rays, dtype=float):
        ref.integrate(row[:3], row[3:6], bool(row[6]))
    return ref.cells


def _key_box(low, size):
    """Every key of the box of `size` voxels a side from key `low`."""
    axes = [np.arange(a, a + n) for a, n in zip(low, size)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _box(rays, cfg):
    """Every key in the box spanned by the rays' origins and their
    endpoints cut at `max_range`, grown by one voxel: all the voxels the
    rays reach, and many they do not."""
    rays = np.asarray(rays, dtype=float).reshape(-1, 7)
    o, e = rays[:, :3], rays[:, 3:6]
    length = np.maximum(np.linalg.norm(e - o, axis=1), 1e-300)
    cut = o + (e - o) * np.minimum(1.0, cfg.max_range / length)[:, None]
    ends = occupancy.grid_index(np.vstack([o, cut]), cfg.voxel_size)
    low = ends.min(axis=0) - 1
    return _key_box(low, ends.max(axis=0) + 2 - low)


def _build(rays, cfg=None):
    """The tree over the rays' box: the build, not the key set, has to
    leave out the voxels no ray reaches."""
    cfg = cfg or OccupancyConfig()
    return build_occupancy([rays], {"f": _box(rays, cfg)}, cfg)


# ---------------------------------------------------------------------------
# log odds

def _probability(l):
    """The logistic function, inverse of log-odds."""
    return 1.0 / (1.0 + math.exp(-l))


def test_log_odds_known_values():
    assert occupancy.log_odds(0.5) == 0.0
    assert _probability(0.0) == 0.5
    assert occupancy.log_odds(0.7) == pytest.approx(0.8472978603872034)
    assert _probability(-0.4) == pytest.approx(0.40131233988754794)


@given(st.floats(1e-6, 1 - 1e-6))
def test_log_odds_probability_inverse(p):
    assert _probability(occupancy.log_odds(p)) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_log_odds_domain(p):
    with pytest.raises(DomainError):
        occupancy.log_odds(p)


@given(st.lists(st.booleans(), max_size=60))
def test_log_odds_stays_clamped(updates):
    cfg = OccupancyConfig()
    steps = [cfg.log_odds_hit if is_hit else cfg.log_odds_miss for is_hit in updates]
    # every prefix as its own group: the value after each update
    group = np.repeat(np.arange(len(steps)), np.arange(1, len(steps) + 1))
    deltas = [d for n in range(1, len(steps) + 1) for d in steps[:n]]
    values = occupancy.clamped_sums(group, deltas, np.zeros(len(steps)),
                                    cfg.log_odds_min, cfg.log_odds_max)
    assert ((cfg.log_odds_min <= values) & (values <= cfg.log_odds_max)).all()
    value = 0.0
    for n, d in enumerate(steps):
        value = max(cfg.log_odds_min, min(cfg.log_odds_max, value + d))
        assert values[n] == value


def test_clamped_sums_keeps_groups_without_deltas():
    got = occupancy.clamped_sums([1, 1, 3], [0.5, 4.0, -9.0], [0.25, 1.0, 2.0, 0.0],
                                 -2.0, 3.5)
    assert got.tolist() == [0.25, 3.5, 2.0, -2.0]


# ---------------------------------------------------------------------------
# traversal against an independent slab-clipping oracle

_oracle_traverse = oracles.slab_traverse


def _walk(o, e, vs):
    ray, keys = occupancy.traverse([o], [e], vs)
    assert (ray == 0).all()
    return [tuple(k) for k in keys.tolist()]


def test_traversal_matches_oracle_random():
    rng = np.random.default_rng(41)
    for _ in range(150):
        o = rng.uniform(-3, 3, 3)
        e = rng.uniform(-3, 3, 3)
        assert _walk(o, e, 0.1) == _oracle_traverse(o, e, 0.1)


def test_traversal_matches_oracle_grid_aligned():
    rng = np.random.default_rng(42)
    for _ in range(200):
        o = rng.integers(-20, 21, 3) * 0.1
        e = rng.integers(-20, 21, 3) * 0.1
        # force shared components (axis-aligned and in-plane segments)
        for ax in range(3):
            if rng.random() < 0.4:
                e[ax] = o[ax]
        assert _walk(o, e, 0.1) == _oracle_traverse(o, e, 0.1)


def test_traversal_matches_oracle_mixed_alignment():
    rng = np.random.default_rng(43)
    for _ in range(200):
        o = np.where(rng.random(3) < 0.5, rng.integers(-9, 10, 3) * 0.25,
                     rng.uniform(-2.5, 2.5, 3))
        e = np.where(rng.random(3) < 0.5, rng.integers(-9, 10, 3) * 0.25,
                     rng.uniform(-2.5, 2.5, 3))
        assert _walk(o, e, 0.25) == _oracle_traverse(o, e, 0.25)


def test_traversal_of_many_rays_matches_scalar_walk():
    rng = np.random.default_rng(44)
    o = np.where(rng.random((300, 3)) < 0.3, rng.integers(-9, 10, (300, 3)) * 0.1,
                 rng.uniform(-1, 1, (300, 3)))
    e = np.where(rng.random((300, 3)) < 0.3, o, rng.uniform(-1, 1, (300, 3)))
    ray, keys = occupancy.traverse(o, e, 0.1)
    assert (np.diff(ray) >= 0).all()
    for i in range(300):
        got = [tuple(k) for k in keys[ray == i].tolist()]
        assert got == oracles.dda_traverse(o[i], e[i], 0.1)


def test_traversal_segment_in_grid_plane_is_empty():
    o = (3 * 0.1, 0.02, 0.07)
    e = (3 * 0.1, 1.33, 0.88)
    assert _walk(o, e, 0.1) == []
    assert _oracle_traverse(o, e, 0.1) == []


def test_traversal_simple_axis_ray():
    got = _walk((0.05, 0.05, 0.05), (0.55, 0.05, 0.05), 0.1)
    assert got == [(i, 0, 0) for i in range(5)]


def test_traversal_excludes_endpoint_voxel_on_boundary():
    # endpoint exactly on a voxel boundary: floor key is the upper voxel
    # (2,0,0), which is excluded; both fully crossed voxels stay
    got = _walk((0.05, 0.05, 0.05), (0.2, 0.05, 0.05), 0.1)
    assert got == [(0, 0, 0), (1, 0, 0)]
    assert got == _oracle_traverse((0.05, 0.05, 0.05), (0.2, 0.05, 0.05), 0.1)


def test_traversal_zero_length():
    assert _walk((0.05, 0.05, 0.05), (0.05, 0.05, 0.05), 0.1) == []


# ---------------------------------------------------------------------------
# integration

def test_integrate_single_hit_ray():
    tree = _build(_rays(((0.05, 0.05, 0.05), (0.55, 0.05, 0.05))))
    cfg = tree.config
    got = cells(tree)
    assert got[(5, 0, 0)][0] == pytest.approx(cfg.log_odds_hit)
    for i in range(5):
        assert got[(i, 0, 0)][0] == pytest.approx(cfg.log_odds_miss)
    # occupied above even odds, empty below, unknown without a cell
    assert got[(5, 0, 0)][0] > 0.0
    assert got[(2, 0, 0)][0] < 0.0
    assert (9, 9, 9) not in got
    assert tree.find([(5, 0, 0), (9, 9, 9)]).tolist() == [5, -1]
    # aux: endpoint sits exactly on the hit voxel center
    cell = got[(5, 0, 0)]
    assert cell[1] == pytest.approx(0.0)
    assert cell[2] == (0.55, 0.05, 0.05)
    # pass evidence: distance from passed voxel center to the endpoint along the ray
    cell4 = got[(4, 0, 0)]
    assert cell4[3] == pytest.approx(0.1)
    assert cell4[4] == (0.55, 0.05, 0.05)


def test_integrate_miss_ray_adds_no_hit():
    tree = _build(_rays(((0.05, 0.05, 0.05), (0.55, 0.05, 0.05), False)))
    got = cells(tree)
    assert (5, 0, 0) not in got
    assert got[(2, 0, 0)][0] < 0.0


def test_integrate_clamps_after_many_updates():
    tree = _build(_rays(*[((0.05, 0.05, 0.05), (0.55, 0.05, 0.05))] * 30))
    cfg = tree.config
    got = cells(tree)
    assert got[(5, 0, 0)][0] == cfg.log_odds_max
    assert got[(2, 0, 0)][0] == cfg.log_odds_min


def test_integrate_respects_max_range():
    cfg = OccupancyConfig(max_range=0.3)
    tree = _build(_rays(((0.05, 0.05, 0.05), (1.05, 0.05, 0.05))), cfg)
    # clipped at x = 0.35: voxels 0..2 passed, no hit anywhere
    got = cells(tree)
    assert set(got) == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}
    assert all(c[0] == pytest.approx(cfg.log_odds_miss) for c in got.values())


def test_integrate_zero_length_hit():
    tree = _build(_rays(((0.15, 0.15, 0.15), (0.15, 0.15, 0.15))))
    assert cells(tree)[(1, 1, 1)][0] > 0.0


def test_occupied_keys():
    tree = _build(_rays(((0.05, 0.05, 0.05), (0.55, 0.05, 0.05))))
    assert tree.keys[tree.log_odds > 0.0].tolist() == [[5, 0, 0]]


def test_no_rays_build_an_empty_tree():
    tree = build_occupancy([np.empty((0, 7))], {"f": [(0, 0, 0)]}, OccupancyConfig())
    assert len(tree) == 0
    assert tree.faces == ("f",)
    assert tree.find([(0, 0, 0)]).tolist() == [-1]


@pytest.mark.parametrize("ray", [
    ((0.0, 0.0, 1e300), (0.0, 0.0, 1e300)),          # beyond exact indices
    ((-1e308, 0.0, 0.0), (1e308, 0.0, 0.0)),         # length overflows
])
def test_rays_beyond_the_grid_are_domain_errors(ray):
    with pytest.raises(DomainError):
        build_occupancy([_rays(ray)], {"f": [(0, 0, 0)]}, OccupancyConfig())


# ---------------------------------------------------------------------------
# the batched build against the one-ray-at-a-time oracle

def _uniform(rng, n):
    return np.column_stack([rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 3)),
                            rng.random(n) < 0.8])


def _grid_aligned(rng, n):
    o = rng.integers(-10, 11, (n, 3)) * 0.1
    e = rng.integers(-10, 11, (n, 3)) * 0.1
    same = rng.random((n, 3)) < 0.4          # segments in grid planes
    e[same] = o[same]
    return np.column_stack([o, e, rng.random(n) < 0.7])


def _zero_length(rng, n):
    p = np.where(rng.random((n, 3)) < 0.5, rng.integers(-5, 6, (n, 3)) * 0.1,
                 rng.uniform(-0.5, 0.5, (n, 3)))
    return np.column_stack([p, p, rng.random(n) < 0.8])


def _beyond_range(rng, n):
    o = rng.uniform(-0.2, 0.2, (n, 3))
    e = o + rng.normal(size=(n, 3)) * rng.uniform(0.5, 3.0, (n, 1))
    return np.column_stack([o, e, rng.random(n) < 0.9])


def _repeated(rng, n):
    # identical rays: every distance ties, the first ray must keep it
    base = _uniform(rng, 8)
    return base[rng.integers(0, 8, n)]


def _saturating(rng, n):
    # a fan from one station: the voxels near it take hundreds of misses
    o = np.tile(rng.uniform(-0.05, 0.05, 3), (n, 1))
    e = o + rng.normal(size=(n, 3)) * 0.1 + (1.0, 0.0, 0.0)
    return np.column_stack([o, e, np.ones(n)])


def _offset(rng, n):
    # a georeferenced scene: keys near 5e6 and 5.4e7 at a 0.1 m grid
    rays = np.vstack([_uniform(rng, n // 2), _saturating(rng, n - n // 2)])
    rays[:, [0, 3]] += 5e5
    rays[:, [1, 4]] += 5.4e6
    return rays


def _one_pass(rng, n):
    # rays of about 0.12 m, each crossing one or two boundaries: many have
    # a single pass, whose projection takes the one-row BLAS kernel
    o = rng.uniform(-1, 1, (n, 3))
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return np.column_stack([o, o + u * rng.uniform(0.1, 0.14, (n, 1)),
                            rng.random(n) < 0.8])


FAMILIES = {"uniform": _uniform, "grid_aligned": _grid_aligned,
            "zero_length": _zero_length, "beyond_range": _beyond_range,
            "repeated": _repeated, "saturating": _saturating, "offset": _offset,
            "one_pass": _one_pass}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_build_matches_scalar_oracle(family, seed):
    rng = np.random.default_rng(seed)
    cfg = OccupancyConfig(max_range=1.5)
    rays = FAMILIES[family](rng, 400)
    want = _oracle_cells(rays, cfg)
    box = _box(rays, cfg)
    assert len(box) > 2 * len(want)
    tree = build_occupancy([rays], {"f": box}, cfg)
    assert cells(tree) == want
    # keys strictly ascending in lexicographic order
    assert [tuple(k) for k in tree.keys.tolist()] == sorted(cells(tree))
    # any subset of the keys, plus keys no ray reaches, keeps exactly the
    # oracle's cells of the reached ones
    keys = list(want)
    part = [keys[i] for i in rng.permutation(len(keys))[:len(keys) // 3]]
    part += [(99, 99, 99), (-99, 0, 0)]
    assert cells(build_occupancy([rays], {"f": part}, cfg)) == {
        k: want[k] for k in part if k in want}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_build_on_small_boxes_matches_scalar_oracle(family):
    # faces of 1 to 5 voxels a side around reached keys: each ray is walked
    # only near them, and most windows cut the ray
    rng = np.random.default_rng(6)
    cfg = OccupancyConfig(max_range=1.5)
    rays = FAMILIES[family](rng, 400)
    want = _oracle_cells(rays, cfg)
    reached = np.array(sorted(want))
    for _ in range(8):
        surface = {}
        for face in ("a", "b"):
            size = rng.integers(1, 6, 3)
            key = reached[rng.integers(len(reached))]
            surface[face] = _key_box(key - rng.integers(0, size), size)
        keys = {tuple(k) for k in np.vstack(list(surface.values())).tolist()}
        assert cells(build_occupancy([rays], surface, cfg)) == {
            k: want[k] for k in keys if k in want}


def test_windowed_walk_is_a_run_of_the_whole_walk():
    # within its window a ray takes the whole walk's voxels, consecutively
    rng = np.random.default_rng(45)
    rays = np.vstack([_uniform(rng, 100), _grid_aligned(rng, 100)])
    o, e = rays[:, :3], rays[:, 3:6]
    window = np.sort(rng.random((200, 2)), axis=1)
    window[:20] = [0.0, 1.0]
    window[20:40, 1] = window[20:40, 0]
    ray, keys = occupancy.traverse(o, e, 0.1, window)
    whole_ray, whole_keys = occupancy.traverse(o, e, 0.1)
    assert (np.diff(ray) >= 0).all()
    cut = 0
    for i in range(200):
        part = keys[ray == i].tolist()
        whole = whole_keys[whole_ray == i].tolist()
        at = [j for j in range(len(whole) - len(part) + 1)
              if whole[j:j + len(part)] == part]
        assert at, i
        assert i >= 20 or part == whole
        cut += len(part) < len(whole)
    assert cut > 60


def test_blas_rows_do_not_depend_on_the_row_count():
    # the build's pass distances rely on it: a row of a product (k, 3) @ (3,)
    # with k >= 2 does not depend on k or on its position, and a one-row
    # product is np.dot, whose sum is the square of np.linalg.norm
    rng = np.random.default_rng(9)
    for k in [*range(1, 13)] * 100 + [50, 333]:
        rows = rng.normal(size=(k, 3)) * rng.uniform(1e-3, 1e3, (k, 1))
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        want = rows @ u
        alone = np.full(k, k == 1)
        got = geom.row_products(rows, np.tile(u, (k, 1)), alone)
        assert got.tolist() == want.tolist(), (
            f"this BLAS computes the rows of a {k}-row product differently "
            "from the build's batched form")
        if k > 2:
            assert (rows[1:] @ u).tolist() == want[1:].tolist(), (
                f"this BLAS computes a row of a {k}-row product depending on "
                "its position")
        if k == 1:
            assert want[0] == np.dot(rows[0], u)
    v = rng.normal(size=(5000, 3)) * rng.uniform(1e-3, 1e3, (5000, 1))
    assert geom.row_norms(v).tolist() == [
        np.linalg.norm(x) for x in v], (
        "this BLAS's one-row product differs from np.linalg.norm")


def test_build_matches_oracle_across_chunks(monkeypatch):
    # small chunks: a voxel's log-odds and evidence carry from chunk to chunk
    monkeypatch.setattr(occupancy, "CHUNK_UPDATES", 64)
    rng = np.random.default_rng(5)
    cfg = OccupancyConfig(max_range=1.5)
    rays = np.vstack([_saturating(rng, 150), _repeated(rng, 100),
                      _beyond_range(rng, 50), _zero_length(rng, 20)])
    rays = rays[rng.permutation(len(rays))]
    want = _oracle_cells(rays, cfg)
    assert cells(build_occupancy([rays], {"f": _box(rays, cfg)}, cfg)) == want


def _split(rays, cuts):
    """`rays` cut into blocks at the positions `cuts`, in any order; a
    repeated position makes an empty block."""
    bounds = [0, *sorted(cuts), len(rays)]
    return [rays[a:b] for a, b in itertools.pairwise(bounds)]


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_any_split_into_blocks_writes_the_same_tree(tmp_path_factory, family,
                                                    seed, data):
    rng = np.random.default_rng(seed)
    cfg = OccupancyConfig(max_range=1.5)
    rays = FAMILIES[family](rng, 60)
    cuts = data.draw(st.lists(st.integers(0, len(rays)), max_size=12))
    surface = {"f": _box(rays, cfg)}
    out = tmp_path_factory.mktemp("split")
    occupancy.write_tree(build_occupancy([rays], surface, cfg), out / "whole.txt")
    occupancy.write_tree(build_occupancy(_split(rays, cuts), surface, cfg),
                         out / "split.txt")
    # one ray a block, an empty block after each
    ones = (block for r in rays for block in (r[None], r[:0]))
    tree = build_occupancy(ones, surface, cfg)
    occupancy.write_tree(tree, out / "ones.txt")
    whole = (out / "whole.txt").read_bytes()
    assert (out / "split.txt").read_bytes() == whole
    assert (out / "ones.txt").read_bytes() == whole
    assert cells(tree) == _oracle_cells(rays, cfg)


def test_no_chunk_holds_rays_of_two_blocks(monkeypatch):
    # one ray a block, an empty block after each: a block's last chunk
    # ends with it, so no walk takes more than one ray
    walked = []
    traverse = occupancy.traverse

    def counted(origins, *args):
        walked.append(len(origins))
        return traverse(origins, *args)

    monkeypatch.setattr(occupancy, "traverse", counted)
    rng = np.random.default_rng(11)
    cfg = OccupancyConfig(max_range=1.5)
    rays = _uniform(rng, 60)
    ones = (block for r in rays for block in (r[None], r[:0]))
    build_occupancy(ones, {"f": _box(rays, cfg)}, cfg)
    assert max(walked) == 1


def test_rays_far_outside_the_surface_box_build_the_oracles_tree():
    # short rays some 3e5 m and 4e10 m away on every side: the rays' key
    # box holds far more than 2^63 keys, the surface's box a few thousand
    rng = np.random.default_rng(8)
    cfg = OccupancyConfig()
    near = np.vstack([_uniform(rng, 100), _grid_aligned(rng, 60)])
    far = []
    for offset in (3e5, -3e5, 4e10, -4e10):
        for ax in range(3):
            block = _uniform(rng, 10)
            block[:, [ax, ax + 3]] += offset
            far.append(block)
    # and rays from 90 m off that reach the surface, or from 150 m, cut at
    # max_range before it
    for distance in (90.0, 150.0):
        origin = rng.normal(size=(20, 3))
        origin *= distance / np.linalg.norm(origin, axis=1)[:, None]
        far.append(np.column_stack([origin, rng.uniform(-0.5, 0.5, (20, 3)),
                                    np.ones(20)]))
    rays = np.vstack([near, *far])
    rays = rays[rng.permutation(len(rays))]
    ends = occupancy.grid_index(np.vstack([rays[:, :3], rays[:, 3:6]]), cfg.voxel_size)
    assert np.prod((ends.max(axis=0) - ends.min(axis=0) + 1).astype(float)) > 2.0 ** 63
    surface = {"f": _box(near, cfg)}
    want = _oracle_cells(rays, cfg)
    got = cells(build_occupancy(_split(rays, [100, 101, 250]), surface, cfg))
    keys = set(map(tuple, surface["f"].tolist()))
    assert got == {k: v for k, v in want.items() if k in keys}
    # the rays from 90 m off reach the surface
    assert len(build_occupancy([far[-2]], surface, cfg)) > 0


def test_build_memory_does_not_grow_with_the_rays():
    # the front scene's rays streamed once and eight times over, in blocks
    # that are views of one array: the build holds no array over all rays
    spec = SceneSpec(seed=7)
    rays = scenes.scan(spec)[0]
    face = scene_solid(spec).face("wall_front")
    surface = {"wall_front": surface_voxels(face, OccupancyConfig().voxel_size)}

    def peak(repeats):
        step = textio.BLOCK_ROWS
        blocks = (rays[a:a + step] for _ in range(repeats)
                  for a in range(0, len(rays), step))
        tracemalloc.start()
        try:
            build_occupancy(blocks, surface, OccupancyConfig())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) < peak(1) + 1e6


def test_block_build_peaks_at_a_few_megabytes():
    spec = scenes.block_spec(7)
    rays, _, _ = scenes.scan(spec)
    surface = {f.face_id: surface_voxels(f, OccupancyConfig().voxel_size)
               for f in scene_solid(spec).faces if f.label == "wall"}
    tracemalloc.start()
    try:
        build_occupancy([rays], surface, OccupancyConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # chunks of 2^14 updates peak at 7.1 MB, of 2^15 at 9.5 MB and of 2^16
    # at 14 MB
    assert peak < 8.5e6


def test_keys_outside_the_rays_box_do_not_alias():
    # the ray's box is 6 x 1 x 1 voxels, where (0, 0, 3) and (0, 3, 0)
    # would pack to the same number as (3, 0, 0)
    rays = _rays(((0.05, 0.05, 0.05), (0.55, 0.05, 0.05)))
    cfg = OccupancyConfig()
    assert len(build_occupancy([rays], {"f": [(0, 0, 3), (0, 3, 0)]}, cfg)) == 0
    tree = build_occupancy([rays], {"a": [(0, 0, 3), (2, 0, 0)],
                                    "b": [(-1, 0, 0), (2, 0, 0)]}, cfg)
    assert tree.keys.tolist() == [[2, 0, 0]]
    assert tree.faces == ("a", "b")


def test_build_on_a_face_matches_scalar_oracle():
    # a small front scan: every kept voxel is the oracle's, bit for bit
    spec = SceneSpec(width=3.0, height=1.0, depth=1.0, pitch=0.1, seed=11,
                     openings=(SynthOpening((1.0, 0.3, 2.0, 0.8), "window"),))
    rays = scenes.scan(spec)[0]
    cfg = OccupancyConfig()
    want = _oracle_cells(rays, cfg)
    keys = surface_voxels(scene_solid(spec).face("wall_front"), cfg.voxel_size)
    got = cells(build_occupancy([rays], {"wall_front": keys}, cfg))
    assert got == {k: want[k] for k in map(tuple, keys.tolist()) if k in want}
    # hits landing behind the face plane and passes through the window
    assert len(got) > len(keys) // 2
    assert any(c[3] != math.inf for c in got.values())


def test_keys_near_offset_do_not_overflow():
    rays = _rays(((5e5 + 0.05, 5.4e6 + 0.05, 0.05), (5e5 + 0.55, 5.4e6 + 0.05, 0.05)))
    keys = _build(rays).keys
    assert keys[:, 1].tolist() == [54_000_000] * 6
    assert keys[:, 0].tolist() == list(range(5_000_000, 5_000_006))


# ---------------------------------------------------------------------------
# files

def test_ray_file_round_trip(tmp_path):
    rays = _rays(((0.0, -5.0, 1.7), (2.3, 0.0, 2.1)),
                 ((1.0, -5.0, 1.7), (3.3, 0.1, 2.0), False))
    path = tmp_path / "rays.txt"
    with occupancy.ray_writer(path) as write:   # in two blocks
        write(rays[:1])
        write(rays[1:])
    back = scenes.read_all_rays(path)
    assert back.shape == (2, 7)
    assert back.tolist() == rays.tolist()


def test_ray_file_errors(tmp_path):
    path = tmp_path / "rays.txt"
    path.write_text("1 2 3 4 5 6\n")
    with pytest.raises(ParseError, match="7 columns"):
        scenes.read_all_rays(path)
    path.write_text("1 2 3 4 5 6 2\n")
    with pytest.raises(ParseError, match="hit flag"):
        scenes.read_all_rays(path)
    path.write_text("1 2 3 4 x 6 1\n")
    with pytest.raises(ParseError, match="bad number"):
        scenes.read_all_rays(path)


def test_ray_file_reports_the_first_bad_line(tmp_path):
    # a value error on line 3 comes before a token error on line 4
    path = tmp_path / "rays.txt"
    path.write_text("# rays\n0 0 0 1 1 1 1\n0 0 0 1 1 1 7\n0 0 x 1 1 1 1\n")
    with pytest.raises(ParseError, match="rays.txt:3: hit flag"):
        scenes.read_all_rays(path)
    path.write_text("0 0 0 1 1 1 1\n\n0 0 x 1 1 1 1\n0 0 0 1 1 1 7\n")
    with pytest.raises(ParseError, match="rays.txt:3: bad number"):
        scenes.read_all_rays(path)


def test_ray_file_reads_what_python_reads(tmp_path):
    # numbers numpy's parser does not take still read as Python reads them
    path = tmp_path / "rays.txt"
    path.write_text("0 0 0 1_000 1 1 1\n0 0 0 1 1 1 0\n")
    assert scenes.read_all_rays(path).tolist() == [[0, 0, 0, 1000, 1, 1, 1],
                                                  [0, 0, 0, 1, 1, 1, 0]]


def test_empty_ray_file_has_no_rays(tmp_path):
    path = tmp_path / "rays.txt"
    path.write_text("# ox oy oz  ex ey ez  hit\n")
    assert scenes.read_all_rays(path).shape == (0, 7)


def _ray_lines(n):
    """`n` good ray lines, the i-th ray's x origin i."""
    return [f"{i} 0 0 1 1 1 {i % 2}" for i in range(n)]


# between and inside blocks of four rays: comments, blank lines, CRLF ends
def _ray_file(lines):
    out = ["# ox oy oz  ex ey ez  hit"]
    for i, line in enumerate(lines):
        if i % 4 == 0:
            out += ["", "# next block", "   "]
        out.append(line + ("  # a ray" if i % 3 == 0 else ""))
    return "\r\n".join(out) + "\r\n"


def _line_no(text, line):
    """The number of the line of `text` that begins with `line`."""
    return next(no for no, held in enumerate(text.split("\r\n"), start=1)
                if held.startswith(line))


def test_ray_blocks_read_the_whole_file(tmp_path, monkeypatch):
    # after the header line each run of four rays takes seven lines, three
    # blank or comment lines and the rays: each block of eight lines holds
    # one run
    monkeypatch.setattr(textio, "BLOCK_ROWS", 8)
    path = tmp_path / "rays.txt"
    for n in (0, 1, 4, 11, 12):
        path.write_bytes(_ray_file(_ray_lines(n)).encode())
        blocks = list(occupancy.ray_blocks(path))
        assert [len(b) for b in blocks] == [4] * (n // 4) + [n % 4] * (n % 4 > 0)
        want = [[i, 0, 0, 1, 1, 1, i % 2] for i in range(n)]
        assert scenes.read_all_rays(path).tolist() == want


@pytest.mark.parametrize("bad, message", [
    ("9 0 0 1 1 1 7", "hit flag must be 0 or 1"),
    ("9 0 inf 1 1 1 0", "non-finite coordinate"),
    ("9 0 x 1 1 1 0", "bad number"),
    ("9 0 0 1 1 1", "expected 7 columns"),
])
@pytest.mark.parametrize("numpy_fails_before", [False, True])
def test_bad_line_in_the_third_block_names_its_line(tmp_path, monkeypatch, bad,
                                                    message, numpy_fails_before):
    # the tenth ray, on line 20, in the third block of eight lines, each
    # holding four rays; where numpy fails on the sixth ray, in the second
    # block, that block alone is parsed as Python reads it
    monkeypatch.setattr(textio, "BLOCK_ROWS", 8)
    lines = _ray_lines(12)
    if numpy_fails_before:
        lines[5] = "5 0 0 1_0 1 1 1"
    lines[9] = bad
    lines[11] = "11 0 0 1 1 1 5"   # a later bad line is not the one reported
    text = _ray_file(lines)
    no = _line_no(text, bad)
    assert no == 20
    path = tmp_path / "rays.txt"
    path.write_bytes(text.encode())
    blocks = occupancy.ray_blocks(path)
    assert [len(next(blocks)) for _ in range(2)] == [4, 4]
    with pytest.raises(ParseError, match=f"rays.txt:{no}: {message}"):
        next(blocks)


def test_ray_file_reports_the_first_bad_line_of_a_block(tmp_path, monkeypatch):
    # a bad flag before a bad number in the same block is the one reported:
    # lines 19 and 21, in the third block of eight lines
    monkeypatch.setattr(textio, "BLOCK_ROWS", 8)
    lines = _ray_lines(12)
    lines[8], lines[10] = "8 0 0 1 1 1 2", "10 0 x 1 1 1 0"
    path = tmp_path / "rays.txt"
    text = _ray_file(lines)
    path.write_bytes(text.encode())
    no = _line_no(text, lines[8])
    assert no == 19
    with pytest.raises(ParseError, match=f"rays.txt:{no}: hit flag"):
        scenes.read_all_rays(path)


@pytest.mark.parametrize("line", [
    "nan 0 0 1 1 1 1",
    "0 0 0 inf 1 1 1",
    "0 0 0 1 -inf 1 0",
])
def test_ray_file_rejects_non_finite_coordinates(tmp_path, line):
    path = tmp_path / "rays.txt"
    path.write_text(f"0 0 0 1 1 1 1\n{line}\n")
    with pytest.raises(ParseError, match="rays.txt:2: non-finite"):
        scenes.read_all_rays(path)


def _random_tree():
    rng = np.random.default_rng(17)
    rays = np.column_stack([rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, (20, 3)),
                            rng.random(20) < 0.8])
    cfg = OccupancyConfig()
    return build_occupancy([rays], {"wall_front": _box(rays, cfg), "wall_back": []},
                           cfg)


def test_tree_file_round_trip(tmp_path):
    tree = _random_tree()
    path = tmp_path / "tree.txt"
    occupancy.write_tree(tree, path)
    assert path.read_text().splitlines()[0] == (
        "voxels voxel_size=0.1 faces=wall_front,wall_back")
    back = occupancy.read_tree(path)
    assert back.config.voxel_size == tree.config.voxel_size
    assert back.faces == tree.faces
    assert cells(back) == cells(tree)
    occupancy.write_tree(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("header, message", [
    ("voxels voxel_size=0.1", "expected 'voxels voxel_size=<v> faces="),
    ("voxels voxel_size=0.1 face=a", "expected faces=..."),
    ("voxels voxel_size=0.1 faces=a,,b", "empty face id"),
    ("voxels voxel_size=0.1 faces=a,b,a", "repeated face id"),
    ("voxels voxel_size=0.1 faces=a b", "expected 'voxels"),
    ("voxels voxel_size=0 faces=a", "voxel size must be positive"),
    ("voxels voxel_size=-0.1 faces=a", "voxel size must be positive"),
])
def test_tree_file_rejects_bad_faces_field(tmp_path, header, message):
    path = tmp_path / "tree.txt"
    path.write_text(header + "\n0 0 0 1.0 inf 0 0 0 inf 0 0 0\n")
    with pytest.raises(ParseError, match=f"tree.txt:1: {message}"):
        occupancy.read_tree(path)


def test_tree_file_lines_in_any_order_last_key_wins(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("voxels voxel_size=0.1 faces=f\n"
                    "2 0 0 1.0 inf 0 0 0 inf 0 0 0\n"
                    "-1 5 0 -0.4 inf 0 0 0 0.3 1 2 3\n"
                    "2 0 0 0.5 0.1 4 5 6 inf nan nan nan\n")
    back = occupancy.read_tree(path)
    assert cells(back) == {(-1, 5, 0): [-0.4, math.inf, None, 0.3, (1.0, 2.0, 3.0)],
                           (2, 0, 0): [0.5, 0.1, (4.0, 5.0, 6.0), math.inf, None]}


@pytest.mark.parametrize("column, token, message", [
    (3, "nan", "non-finite log-odds"),
    (4, "nan", "hit distance"),
    (4, "-inf", "hit distance"),
    (4, "-0.5", "hit distance"),
    (8, "nan", "pass distance"),
    (8, "-inf", "pass distance"),
    (5, "nan", "non-finite hit point"),
    (11, "inf", "non-finite pass endpoint"),
    (0, "1.0", "bad number"),
    (2, "99999999999999999999", "integer out of range"),
])
def test_tree_file_rejects_bad_evidence(tmp_path, column, token, message):
    tokens = "2 0 0 1.0 0.25 1 2 3 0.5 4 5 6".split()
    tokens[column] = token
    if message == "bad number":
        message += f" '{token}'"   # the token that does not parse, quoted
    path = tmp_path / "tree.txt"
    path.write_text("voxels voxel_size=0.1 faces=f\n# comment\n0 0 0 1.0 inf 0 0 0 inf 0 0 0\n"
                    + " ".join(tokens) + "\n")
    with pytest.raises(ParseError, match=f"tree.txt:4: {message}"):
        occupancy.read_tree(path)


def test_tree_file_inf_distance_drops_its_point(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("voxels voxel_size=0.1 faces=f\n0 0 0 1.0 inf nan 1 1 inf 2 inf 2\n")
    back = occupancy.read_tree(path)
    assert cells(back) == {(0, 0, 0): [1.0, math.inf, None, math.inf, None]}
    assert back.hit_point.tolist() == [[0.0, 0.0, 0.0]]


def test_config_validation():
    with pytest.raises(DomainError):
        OccupancyConfig(voxel_size=0.0)
    with pytest.raises(DomainError):
        OccupancyConfig(log_odds_min=1.0, log_odds_max=0.0)
    for max_range in (0.0, -1.0):
        with pytest.raises(DomainError, match="max_range must be positive"):
            OccupancyConfig(max_range=max_range)


def _tree_of(keys):
    """A tree holding the (n, 3) `keys`, sorted, and zeros elsewhere."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    keys = keys[occupancy.sorted_keys(keys)]
    n = len(keys)
    return occupancy.OccupancyTree(OccupancyConfig(), keys, np.zeros(n), np.zeros(n),
                                   np.zeros((n, 3)), np.zeros(n), np.zeros((n, 3)),
                                   ("f",))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300), st.integers(0, 300),
       st.sampled_from([1, 3, 50, 2 ** 20]),
       st.sampled_from([0, -5_000_000, 2 ** 40, -(2 ** 62)]))
def test_find_equals_the_record_lookup(seed, n, m, spread, offset):
    # keys on a narrow or wide box, anywhere in the int64 range; queries
    # inside the box, present or not, and outside it on every side
    rng = np.random.default_rng(seed)
    tree = _tree_of(offset + rng.integers(-spread, spread + 1, size=(n, 3)))
    queries = offset + rng.integers(-2 * spread - 2, 2 * spread + 3, size=(m, 3))
    if len(tree):
        queries = np.concatenate([queries, tree.keys[rng.integers(0, len(tree), m)]])
    rows = tree.find(queries)
    assert rows.dtype == np.int64
    assert rows.tolist() == oracles.record_rows(tree.keys, queries).tolist()


def test_find_on_a_tree_it_cannot_pack_is_a_domain_error():
    tree = _tree_of([[0, 0, 0], [2 ** 62, 2 ** 62, 0]])
    with pytest.raises(DomainError, match="64-bit keys"):
        tree.find([[0, 0, 0]])


def test_tree_file_whose_keys_cannot_be_packed_is_rejected(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("voxels voxel_size=0.1 faces=f\n"
                    "0 0 0 1.0 inf 0 0 0 inf 0 0 0\n"
                    f"{2 ** 62} {2 ** 62} 0 1.0 inf 0 0 0 inf 0 0 0\n")
    with pytest.raises(ParseError, match=f"^{path}: voxel keys span"):
        occupancy.read_tree(path)
    # a box of 2^21 x 2^21 x (2^21 - 1) keys packs; one more layer would not
    far = [2 ** 21 - 1, 2 ** 21 - 1, 2 ** 21 - 2]
    path.write_text("voxels voxel_size=0.1 faces=f\n"
                    "0 0 0 1.0 inf 0 0 0 inf 0 0 0\n"
                    f"{far[0]} {far[1]} {far[2]} 1.0 inf 0 0 0 inf 0 0 0\n")
    assert occupancy.read_tree(path).find([far, [0, 0, 1]]).tolist() == [1, -1]
    with pytest.raises(DomainError):
        _tree_of([[0, 0, 0], [far[0], far[1], far[2] + 1]]).find([far])
