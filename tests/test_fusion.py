import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lod3recon import fusion
from lod3recon.errors import ConfigError, FrameMismatch, ParseError
from lod3recon.extraction import ExtractionConfig, extract_openings
from lod3recon.fusion import Cpt, default_cpt, posterior
from lod3recon.rasters import CONFLICT_CHANNELS, FacadeFrame, FacadeRaster

import oracles


def _entries(cpt: Cpt) -> dict:
    return dict(zip(fusion.COMBINATIONS, cpt.table.ravel().tolist()))


def _posterior(conflict, pc, tex, cpt) -> float:
    """The posterior at one pixel."""
    return float(posterior(np.asarray(conflict, dtype=float), pc, tex, cpt))


def _frame(width=4, height=3, cell=0.1) -> FacadeFrame:
    return FacadeFrame((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                       cell, width, height)


def _const_raster(frame, channels, values) -> FacadeRaster:
    r = FacadeRaster.zeros(frame, channels)
    r.data[:] = np.asarray(values, dtype=np.float32)
    return r


# ---------------------------------------------------------------------------
# table plumbing

def test_default_cpt_is_valid():
    assert fusion.validate_cpt(_entries(default_cpt())) == []


def test_default_cpt_is_monotone_in_every_parent():
    t = default_cpt().table
    # opening evidence (index 0) never scores below its "other" sibling
    assert (t[:, 0, :] >= t[:, 1, :]).all()
    assert (t[:, :, 0] >= t[:, :, 1]).all()
    # conflict states ordered conflicted >= unknown >= confirmed
    conflicted, confirmed, unknown = t
    assert (conflicted >= unknown).all()
    assert (unknown >= confirmed).all()


def test_cpt_entry_lookup():
    entries = _entries(default_cpt())
    assert entries[("conflicted", "opening", "opening")] == 0.95
    assert entries[("confirmed", "other", "other")] == 0.02
    assert entries[("unknown", "opening", "other")] == 0.45


def test_cpt_rejects_bad_shape():
    with pytest.raises(ConfigError):
        Cpt(np.zeros((2, 2, 2)))


def test_validate_cpt_out_of_range():
    table = default_cpt().table.copy()
    table[0, 0, 0] = 1.2
    out = fusion.validate_cpt(_entries(Cpt(table)))
    assert out == ["OutOfRange: conflicted/opening/opening = 1.2"]


def test_validate_cpt_missing_combination():
    entries = _entries(default_cpt())
    del entries[("unknown", "other", "other")]
    out = fusion.validate_cpt(entries)
    assert out == ["MissingCombination: unknown/other/other"]


def test_validate_cpt_unknown_combination():
    entries = _entries(default_cpt())
    entries[("nonsense", "opening", "opening")] = 0.5
    out = fusion.validate_cpt(entries)
    assert len(out) == 1 and out[0].startswith("UnknownCombination")


# ---------------------------------------------------------------------------
# marginalization

def test_posterior_one_hot_returns_entry():
    cpt = default_cpt()
    assert _posterior((1.0, 0.0, 0.0), 1.0, 1.0, cpt) == pytest.approx(0.95, abs=1e-15)
    assert _posterior((0.0, 0.0, 1.0), 0.0, 1.0, cpt) == pytest.approx(0.45, abs=1e-15)


def test_posterior_half_conflicted_worked_example():
    # hand marginalization with entries 0.95 and 0.60 on the op/op column:
    # 0.5 * 0.95 + 0.5 * 0.60 = 0.775
    table = default_cpt().table.copy()
    table[1, 0, 0] = 0.60
    assert _posterior((0.5, 0.5, 0.0), 1.0, 1.0, Cpt(table)) \
        == pytest.approx(0.775, abs=1e-12)


def test_posterior_uniform_cpt_is_constant_half():
    cpt = Cpt(np.full((3, 2, 2), 0.5))
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.random(3)
        c /= c.sum()
        assert _posterior(c, rng.random(), rng.random(), cpt) \
            == pytest.approx(0.5, abs=1e-12)


def test_posterior_matches_written_out_sum():
    cpt = default_cpt()
    entries = _entries(cpt)
    rng = np.random.default_rng(11)
    for _ in range(200):
        c = rng.random(3)
        c /= c.sum()
        pc, tex = rng.random(), rng.random()
        want = oracles.cpt_marginal(c, pc, tex, entries)
        assert _posterior(c, pc, tex, cpt) == pytest.approx(want, abs=1e-12)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_posterior_bounded_and_monotone(m, pc, tex, bump):
    cpt = default_cpt()
    conflict = (m, (1 - m) * 0.25, (1 - m) * 0.75)
    base = _posterior(conflict, pc, tex, cpt)
    assert 0.0 <= base <= 1.0
    more_pc = min(1.0, pc + bump)
    more_tex = min(1.0, tex + bump)
    assert _posterior(conflict, more_pc, tex, cpt) >= base - 1e-12
    assert _posterior(conflict, pc, more_tex, cpt) >= base - 1e-12


# ---------------------------------------------------------------------------
# raster fusion

def test_fuse_constant_rasters_matches_scalar():
    frame = _frame()
    conflict = _const_raster(frame, CONFLICT_CHANNELS, (0.2, 0.5, 0.3))
    pc = _const_raster(frame, ("window", "door", "wall"), (0.25, 0.15, 0.6))
    tex = _const_raster(frame, ("window", "door"), (0.6, 0.1))
    out = fusion.fuse_maps(conflict, pc, tex)
    assert out.channels == ("opening",)
    want = _posterior((0.2, 0.5, 0.3), 0.4, 0.7, default_cpt())
    assert out.data[:, :, 0] == pytest.approx(want, abs=1e-6)


def test_fuse_missing_texture_is_neutral():
    frame = _frame()
    conflict = _const_raster(frame, CONFLICT_CHANNELS, (1.0, 0.0, 0.0))
    pc = _const_raster(frame, ("window", "door"), (0.8, 0.1))
    out = fusion.fuse_maps(conflict, pc, None)
    want = _posterior((1.0, 0.0, 0.0), 0.9, 0.5, default_cpt())
    assert out.data[:, :, 0] == pytest.approx(want, abs=1e-6)


def test_fuse_missing_conflict_is_unknown():
    frame = _frame()
    pc = _const_raster(frame, ("window",), (0.9,))
    tex = _const_raster(frame, ("window",), (0.9,))
    out = fusion.fuse_maps(None, pc, tex)
    want = _posterior((0.0, 0.0, 1.0), 0.9, 0.9, default_cpt())
    assert out.data[:, :, 0] == pytest.approx(want, abs=1e-6)


def test_fuse_caps_opening_mass_at_one():
    frame = _frame()
    pc = _const_raster(frame, ("window", "door"), (0.8, 0.8))
    out = fusion.fuse_maps(None, pc, None)
    want = _posterior((0.0, 0.0, 1.0), 1.0, 0.5, default_cpt())
    assert out.data[:, :, 0] == pytest.approx(want, abs=1e-6)


def test_fuse_is_the_posterior_formula_in_float32():
    rng = np.random.default_rng(13)
    frame = _frame(width=7, height=5)
    conflict = FacadeRaster.zeros(frame, CONFLICT_CHANNELS)
    conflict.data[:] = rng.dirichlet((1.0, 1.0, 1.0), size=(5, 7))
    pc = FacadeRaster.zeros(frame, ("window", "door"))
    pc.data[:] = rng.random((5, 7, 2)) * 0.6
    tex = FacadeRaster.zeros(frame, ("door",))
    tex.data[:] = rng.random((5, 7, 1))
    for cpt in (default_cpt(), Cpt(rng.random((3, 2, 2)))):
        out = fusion.fuse_maps(conflict, pc, tex, cpt)
        want = posterior(conflict.data.astype(float),
                         fusion.opening_mass(pc, frame),
                         fusion.opening_mass(tex, frame), cpt)
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data[:, :, 0], want.astype(np.float32))


def test_fuse_requires_matching_frames():
    conflict = _const_raster(_frame(), CONFLICT_CHANNELS, (1.0, 0.0, 0.0))
    pc = _const_raster(_frame(width=5), ("window",), (0.5,))
    with pytest.raises(FrameMismatch):
        fusion.fuse_maps(conflict, pc, None)


def test_fuse_requires_some_evidence():
    with pytest.raises(ConfigError):
        fusion.fuse_maps(None, None, None)


# ---------------------------------------------------------------------------
# label disambiguation

def _label(pc, tex) -> str:
    """Label of the one opening covering the whole frame."""
    post = _const_raster(_frame(), ("opening",), (0.9,))
    (inst,) = extract_openings(post, ExtractionConfig(kernel=1), pc, tex, face_id="f")
    return inst.label


def test_disambiguate_prefers_stronger_class():
    frame = _frame()
    pc = _const_raster(frame, ("window", "door"), (0.8, 0.1))
    assert _label(pc, None) == "window"

    pc = _const_raster(frame, ("window", "door"), (0.2, 0.1))
    tex = _const_raster(frame, ("window", "door"), (0.1, 0.9))
    # 0.2 + 0.1 < 0.1 + 0.9
    assert _label(pc, tex) == "door"


def test_disambiguate_tie_goes_to_window():
    frame = _frame()
    pc = _const_raster(frame, ("window", "door"), (0.4, 0.4))
    assert _label(pc, None) == "window"
    assert _label(None, None) == "window"


# ---------------------------------------------------------------------------
# file format

def write_cpt(cpt: Cpt, path) -> None:
    """The `cpt <conflict> <pc> <tex> <p>` lines `read_cpt` reads."""
    lines = [f"cpt {s} {a} {b} {p!r}\n" for (s, a, b), p in _entries(cpt).items()]
    path.write_text("# cpt <conflict_state> <pc_state> <tex_state> <p_opening>\n"
                    + "".join(lines))


def test_cpt_round_trip(tmp_path):
    path = tmp_path / "weights.cpt"
    write_cpt(default_cpt(), path)
    back = fusion.read_cpt(path)
    assert np.array_equal(back.table, default_cpt().table)


@pytest.mark.parametrize("line", [
    "cpt conflicted opening opening",
    "weights conflicted opening opening 0.9",
    "cpt conflicted opening opening nope",
    "cpt bogus opening opening 0.9",
])
def test_cpt_parse_errors(tmp_path, line):
    path = tmp_path / "bad.cpt"
    path.write_text(line + "\n")
    with pytest.raises(ParseError):
        fusion.read_cpt(path)


def test_cpt_duplicate_combination(tmp_path):
    path = tmp_path / "dup.cpt"
    write_cpt(default_cpt(), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("cpt conflicted opening opening 0.5\n")
    with pytest.raises(ParseError, match="duplicate"):
        fusion.read_cpt(path)


def test_cpt_missing_combination_file(tmp_path):
    path = tmp_path / "short.cpt"
    write_cpt(default_cpt(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="MissingCombination"):
        fusion.read_cpt(path)
