import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lod3recon import occupancy
from lod3recon.errors import DomainError, ParseError
from lod3recon.occupancy import OccupancyConfig, OccupancyTree, Ray

import oracles


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
    tree = OccupancyTree()
    cfg = tree.config
    key = (0, 0, 0)
    for is_hit in updates:
        if is_hit:
            tree.add_hit(key, (0.05, 0.05, 0.05))
        else:
            tree.add_miss(key)
        assert cfg.log_odds_min <= tree.cells[key][0] <= cfg.log_odds_max


# ---------------------------------------------------------------------------
# traversal against an independent slab-clipping oracle

_oracle_floor_key = oracles.floor_key
_oracle_traverse = oracles.slab_traverse


def test_traversal_matches_oracle_random():
    rng = np.random.default_rng(41)
    for _ in range(150):
        o = rng.uniform(-3, 3, 3)
        e = rng.uniform(-3, 3, 3)
        assert occupancy.traverse_voxels(o, e, 0.1) == _oracle_traverse(o, e, 0.1)


def test_traversal_matches_oracle_grid_aligned():
    rng = np.random.default_rng(42)
    for _ in range(200):
        o = rng.integers(-20, 21, 3) * 0.1
        e = rng.integers(-20, 21, 3) * 0.1
        # force shared components (axis-aligned and in-plane segments)
        for ax in range(3):
            if rng.random() < 0.4:
                e[ax] = o[ax]
        assert occupancy.traverse_voxels(o, e, 0.1) == _oracle_traverse(o, e, 0.1)


def test_traversal_matches_oracle_mixed_alignment():
    rng = np.random.default_rng(43)
    for _ in range(200):
        o = np.where(rng.random(3) < 0.5, rng.integers(-9, 10, 3) * 0.25,
                     rng.uniform(-2.5, 2.5, 3))
        e = np.where(rng.random(3) < 0.5, rng.integers(-9, 10, 3) * 0.25,
                     rng.uniform(-2.5, 2.5, 3))
        assert occupancy.traverse_voxels(o, e, 0.25) == _oracle_traverse(o, e, 0.25)


def test_traversal_segment_in_grid_plane_is_empty():
    o = (3 * 0.1, 0.02, 0.07)
    e = (3 * 0.1, 1.33, 0.88)
    assert occupancy.traverse_voxels(o, e, 0.1) == []
    assert _oracle_traverse(o, e, 0.1) == []


def test_traversal_simple_axis_ray():
    got = occupancy.traverse_voxels((0.05, 0.05, 0.05), (0.55, 0.05, 0.05), 0.1)
    assert got == [(i, 0, 0) for i in range(5)]


def test_traversal_excludes_endpoint_voxel_on_boundary():
    # endpoint exactly on a voxel boundary: floor key is the upper voxel
    # (2,0,0), which is excluded; both fully crossed voxels stay
    got = occupancy.traverse_voxels((0.05, 0.05, 0.05), (0.2, 0.05, 0.05), 0.1)
    assert got == [(0, 0, 0), (1, 0, 0)]
    assert got == _oracle_traverse((0.05, 0.05, 0.05), (0.2, 0.05, 0.05), 0.1)


def test_traversal_zero_length():
    assert occupancy.traverse_voxels((0.05, 0.05, 0.05), (0.05, 0.05, 0.05), 0.1) == []


# ---------------------------------------------------------------------------
# integration

def test_integrate_single_hit_ray():
    tree = OccupancyTree()
    cfg = tree.config
    tree.integrate(Ray((0.05, 0.05, 0.05), (0.55, 0.05, 0.05)))
    assert tree.cells[(5, 0, 0)][0] == pytest.approx(cfg.log_odds_hit)
    for i in range(5):
        assert tree.cells[(i, 0, 0)][0] == pytest.approx(cfg.log_odds_miss)
    # occupied above even odds, empty below, unknown without a cell
    assert tree.cells[(5, 0, 0)][0] > 0.0
    assert tree.cells[(2, 0, 0)][0] < 0.0
    assert (9, 9, 9) not in tree.cells
    # aux: endpoint sits exactly on the hit voxel center
    cell = tree.cells[(5, 0, 0)]
    assert cell[1] == pytest.approx(0.0)
    assert cell[2] == (0.55, 0.05, 0.05)
    # pass evidence: distance from passed voxel center to the endpoint along the ray
    cell4 = tree.cells[(4, 0, 0)]
    assert cell4[3] == pytest.approx(0.1)
    assert cell4[4] == (0.55, 0.05, 0.05)


def test_integrate_miss_ray_adds_no_hit():
    tree = OccupancyTree()
    tree.integrate(Ray((0.05, 0.05, 0.05), (0.55, 0.05, 0.05), hit=False))
    assert (5, 0, 0) not in tree.cells
    assert tree.cells[(2, 0, 0)][0] < 0.0


def test_integrate_clamps_after_many_updates():
    tree = OccupancyTree()
    for _ in range(30):
        tree.integrate(Ray((0.05, 0.05, 0.05), (0.55, 0.05, 0.05)))
    cfg = tree.config
    assert tree.cells[(5, 0, 0)][0] == cfg.log_odds_max
    assert tree.cells[(2, 0, 0)][0] == cfg.log_odds_min


def test_integrate_respects_max_range():
    cfg = OccupancyConfig(max_range=0.3)
    tree = OccupancyTree(cfg)
    tree.integrate(Ray((0.05, 0.05, 0.05), (1.05, 0.05, 0.05)))
    # clipped at x = 0.35: voxels 0..2 passed, no hit anywhere
    assert set(tree.cells) == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}
    assert all(c[0] == pytest.approx(cfg.log_odds_miss) for c in tree.cells.values())


def test_integrate_zero_length_hit():
    tree = OccupancyTree()
    tree.integrate(Ray((0.15, 0.15, 0.15), (0.15, 0.15, 0.15)))
    assert tree.cells[(1, 1, 1)][0] > 0.0


def test_occupied_keys():
    tree = OccupancyTree()
    tree.integrate(Ray((0.05, 0.05, 0.05), (0.55, 0.05, 0.05)))
    assert [k for k, c in tree.cells.items() if c[0] > 0.0] == [(5, 0, 0)]


# ---------------------------------------------------------------------------
# files

def test_ray_file_round_trip(tmp_path):
    rays = [Ray((0.0, -5.0, 1.7), (2.3, 0.0, 2.1)),
            Ray((1.0, -5.0, 1.7), (3.3, 0.1, 2.0), hit=False)]
    path = tmp_path / "rays.txt"
    occupancy.write_rays(rays, path)
    assert occupancy.read_rays(path) == rays


def test_ray_file_errors(tmp_path):
    path = tmp_path / "rays.txt"
    path.write_text("1 2 3 4 5 6\n")
    with pytest.raises(ParseError, match="7 columns"):
        occupancy.read_rays(path)
    path.write_text("1 2 3 4 5 6 2\n")
    with pytest.raises(ParseError, match="hit flag"):
        occupancy.read_rays(path)
    path.write_text("1 2 3 4 x 6 1\n")
    with pytest.raises(ParseError, match="bad number"):
        occupancy.read_rays(path)


@pytest.mark.parametrize("line", [
    "nan 0 0 1 1 1 1",
    "0 0 0 inf 1 1 1",
    "0 0 0 1 -inf 1 0",
])
def test_ray_file_rejects_non_finite_coordinates(tmp_path, line):
    path = tmp_path / "rays.txt"
    path.write_text(f"0 0 0 1 1 1 1\n{line}\n")
    with pytest.raises(ParseError, match="rays.txt:2: non-finite"):
        occupancy.read_rays(path)


def test_tree_file_round_trip(tmp_path):
    tree = OccupancyTree()
    rng = np.random.default_rng(17)
    for _ in range(20):
        tree.integrate(Ray(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3),
                           hit=bool(rng.random() < 0.8)))
    path = tmp_path / "tree.txt"
    occupancy.write_tree(tree, path)
    back = occupancy.read_tree(path)
    assert back.config.voxel_size == tree.config.voxel_size
    assert back.cells == tree.cells


def test_config_validation():
    with pytest.raises(DomainError):
        OccupancyConfig(voxel_size=0.0)
    with pytest.raises(DomainError):
        OccupancyConfig(log_odds_min=1.0, log_odds_max=0.0)
