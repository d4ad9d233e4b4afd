import cmath
import dataclasses
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import gaborscat as gs
from gaborscat import tables
from gaborscat.errors import DomainError
from gaborscat.cli import parse_config
from gaborscat.green import spatial_rule, spectral_rule

from .oracles import (spatial_table_adaptive, spectral_table_blockwise,
                      table_entry)

K0 = 1.45
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def setup(request):
    fp = gs.FrameParams(X=0.5, alpha=float(np.sqrt(2 / 3)),
                        beta=float(np.sqrt(2 / 3)), M=3, N=2)
    zg = gs.ZGrid(z_min=-0.3, delta=0.05, n_k=12)
    cfg = gs.EwaldConfig(split=gs.optimal_split(K0, zg.delta), k0=K0)
    spat = gs.build_spatial_table(fp, zg, cfg, 2, 3)
    spec = gs.build_spectral_table(fp, zg, cfg, 2, 3)
    return fp, zg, cfg, spat, spec


def _entry_oracle_spatial(q, p, d, fp, zg, cfg):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 16
    e, k0 = cfg.split, cfg.k0

    def f(x):
        x = float(x)
        fs = complex(gs.f_spatial(q, p, x, fp))
        gsv = complex(gs.g_z_spatial(d, x, zg))
        return mp.e ** (k0 * k0 / (4 * x * x)) / x * fs * gsv

    return complex(mp.quad(f, [e, 3 * e, 10 * e, 40 * e, 200 * e, mp.inf]))


def _entry_oracle_spectral(q, p, d, fp, zg, cfg):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 16
    e, k0 = cfg.split, cfg.k0
    big_k, dd = fp.K, zg.delta

    def f(w):
        # zeta_path, zeta_path_derivative and the kx-domain factors f~ and g~
        # at one node, written out in plain complex arithmetic; the erf difference
        # is taken directly, as erf_diff does away from saturated tails
        w = float(w)
        if w < 2 / e:
            num = w - (e * w * w - w) * 1j
            den = 1 + (e * w - 1) ** 2
            z = num / den
            dz = ((1 - (2 * e * w - 1) * 1j) * den
                  - num * 2 * (e * w - 1) * e) / den ** 2
        else:
            z = (1 - 1j) / 2 * w
            dz = (1 - 1j) / 2
        den = big_k * big_k * z * z + 8 * math.pi
        f_spec = cmath.sqrt(math.pi / den) * cmath.exp(
            4 * math.pi ** 2 / den * (fp.beta * p + 1j * fp.alpha * q) ** 2
            - math.pi / 2 * fp.beta ** 2 * p * p)
        lo, hi = d * dd / z, (d + 1) * dd / z
        g_spec = (math.sqrt(math.pi) * (d + 1) / 2 * z
                  * complex(special.erf(hi) - special.erf(lo))
                  + z * z / (2 * dd) * (cmath.exp(-hi * hi) - cmath.exp(-lo * lo)))
        return cmath.exp(k0 * k0 * z * z / 4) * f_spec * g_spec * dz

    head = mp.quad(f, [1 / e, 1.5 / e, 2 / e])
    tail = mp.quadosc(f, [2 / e, mp.inf],
                      zeros=lambda n: mp.sqrt(8 * mp.pi * n / (k0 * k0)
                                              + (2 / e) ** 2))
    return complex(head + tail)


def test_spatial_entries_match_high_precision(setup):
    fp, zg, cfg, spat, _ = setup
    for (q, p, d) in [(0, 0, 0), (1, 2, 0), (0, 0, -1), (2, -1, 3)]:
        oracle = _entry_oracle_spatial(q, p, d, fp, zg, cfg)
        got = table_entry(spat, q, p, d)
        assert abs(got - oracle) <= 1e-9 * max(abs(oracle), 1e-12)


def test_spectral_entries_match_high_precision(setup):
    # the oracle integrates the kx-domain form; the table stores it in the
    # spatial scale and orientation, T[q] = sqrt(2)/X T_kx[-q]
    fp, zg, cfg, _, spec = setup
    for (q, p, d) in [(0, 0, 0), (2, -1, 3)]:
        oracle = np.sqrt(2) / fp.X * _entry_oracle_spectral(-q, p, d, fp, zg, cfg)
        got = table_entry(spec, q, p, d)
        assert abs(got - oracle) <= 1e-8 * max(abs(oracle), 1e-12)


def test_qp_symmetry(setup):
    _, _, _, spat, spec = setup
    for t in (spat, spec):
        scale = np.abs(t.data).max()
        assert np.abs(t.data - t.data[::-1, ::-1, :]).max() <= 1e-12 * scale


def test_rebuild_bit_identical(setup):
    fp, zg, cfg, spat, spec = setup
    again = gs.build_spatial_table(fp, zg, cfg, 2, 3)
    assert np.array_equal(spat.data, again.data)
    again = gs.build_spectral_table(fp, zg, cfg, 2, 3)
    assert np.array_equal(spec.data, again.data)


def test_spatial_d_decay_envelope(setup):
    # |T[q,p,d]| / |T[q,p,0]| tracks exp(-d^2 Delta^2 E^2) within a factor 10
    # for moderate positive d (the large-xi Gaussian of the z kernel)
    fp, zg, cfg, spat, _ = setup
    e = cfg.split
    for d in (2, 3, 4, 5):
        ratio = (abs(table_entry(spat, 0, 0, d))
                 / abs(table_entry(spat, 0, 0, 0)))
        bound = np.exp(-d * d * zg.delta ** 2 * e * e)
        assert bound / 10 < ratio < bound * 10


def test_spectral_table_matches_blockwise_tail(setup):
    # the deformed tail path against the real-axis tail summed per d in phase
    # blocks and extrapolated by averaged_limit, on every (q, p), in the
    # kx-domain form and converted to the stored T[q] = sqrt(2)/X T_kx[-q]:
    # same zero pattern, entries within 1e-12 of max|T| (measured 2.0e-13;
    # the two routes differ by more than rounding)
    fp, zg, cfg, _, spec = setup
    ref = np.sqrt(2) / fp.X * spectral_table_blockwise(fp, zg, cfg, 2, 3)[::-1]
    assert np.array_equal(spec.data == 0, ref == 0)
    scale = np.abs(ref).max()
    assert np.abs(spec.data - ref).max() <= 1e-12 * scale


def test_no_spectral_column_dropped():
    # no (q, p) column the fold reads is left zero while its value, every
    # column integrated, exceeds cfg.negligible of the largest entry; N = 3 takes
    # p_max to 9, where a rule cutting p by envelopes left 36 columns zero
    # that held up to 1.7e-9 of it
    fp = gs.FrameParams(X=0.5, alpha=float(np.sqrt(2 / 3)),
                        beta=float(np.sqrt(2 / 3)), M=1, N=3)
    zg = gs.ZGrid(z_min=-0.1, delta=0.05, n_k=4)
    cfg = gs.EwaldConfig(split=gs.optimal_split(K0, zg.delta), k0=K0)
    spec = gs.build_spectral_table(fp, zg, cfg, 2, 3)
    ref = np.sqrt(2) / fp.X * spectral_table_blockwise(fp, zg, cfg, 2, 3)[::-1]
    zero = ~np.any(spec.data != 0, axis=2)
    column = np.abs(ref).max(axis=2)
    assert np.all(column[zero] <= cfg.negligible * np.abs(ref).max())


def test_spatial_table_matches_adaptive(setup, monkeypatch):
    # the fixed-node contraction against per-d adaptive quad_vec runs, each
    # to its own d's cutoff: same zero pattern, entries equal up to rounding.
    # The table's own panel break (derived from Delta) decides only where
    # its nodes sit
    fp, zg, cfg, spat, _ = setup

    def check(table):
        ref = spatial_table_adaptive(fp, zg, cfg, 2, 3)
        assert np.array_equal(table.data == 0, ref == 0)
        scale = np.abs(ref).max()
        assert np.abs(table.data - ref).max() <= 1e-13 * scale

    check(spat)
    monkeypatch.setattr(gs.EwaldConfig, "negligible", 1e-6)
    check(gs.build_spatial_table(fp, zg, cfg, 2, 3))


def test_tables_build_without_adaptive_quadrature(setup, monkeypatch):
    fp, zg, cfg, spat, spec = setup

    def no_quad_vec(*args, **kwargs):
        raise AssertionError("table build called adaptive quadrature")

    monkeypatch.setattr("scipy.integrate.quad_vec", no_quad_vec)
    assert np.array_equal(gs.build_spatial_table(fp, zg, cfg, 2, 3).data, spat.data)
    assert np.array_equal(gs.build_spectral_table(fp, zg, cfg, 2, 3).data, spec.data)


@pytest.mark.parametrize("name", ["circle", "rectangle", "grating"])
def test_spatial_live_rule_drops_only_quadrature_noise(name):
    # every (q, p >= 0, d) contracted on the build's own nodes: the entries
    # the live-q/live-d rule keeps are bit-identical to it, and the ones it
    # drops, below cfg.negligible = quad_tol / 1e4 at the lower limit, hold
    # at most quad_tol of max|T|: at quad_tol 1e-10 1.6e-14, 2.6e-14 and
    # 7.3e-14 on these configs (so a cfg.negligible bound would not hold),
    # at 1e-6 1.0e-9, 1.4e-10 and 5.6e-10
    # (the p >= 0 half: the p < 0 half is its exact mirror)
    rc = parse_config(CONFIGS / f"{name}.json")
    fp, zg = rc.fp, rc.zg
    q_max, p_max = gs.index_bounds(fp, rc.n_u, rc.n_v)
    ds = np.arange(-zg.n_k, zg.n_k + 1)
    for quad_tol in (1e-10, 1e-6):
        cfg = dataclasses.replace(rc.ewald, quad_tol=quad_tol)
        full = tables._contract(q_max, p_max, ds, *spatial_rule(cfg, zg.delta, 2),
                                fp, zg)
        spat = gs.build_spatial_table(fp, zg, cfg, rc.n_u, rc.n_v).data[:, p_max:]
        kept = spat != 0
        assert np.array_equal(spat[kept], full[kept])
        assert np.abs(full[~kept]).max() <= cfg.quad_tol * np.abs(full).max()


@pytest.mark.parametrize("quad_tol", [1e-12, 1e-6])
@pytest.mark.parametrize("delta", [0.2, 0.05, 0.01])
def test_spatial_break_leaves_nothing_beyond_it(delta, quad_tol):
    # spatial_rule's break sqrt(4 - ln negligible)/Delta against one ten
    # times farther (rho = Delta/10): every (q, p >= 0, d) of the circle's
    # frame on a z-grid of spacing Delta, at its optimal split, agrees
    # within quad_tol of max|T|
    rc = parse_config(CONFIGS / "circle.json")
    fp, k0 = rc.fp, rc.ewald.k0
    zg = gs.ZGrid(z_min=0.0, delta=delta, n_k=8)
    cfg = gs.EwaldConfig(split=gs.optimal_split(k0, delta), k0=k0,
                         quad_tol=quad_tol)
    q_max, p_max = gs.index_bounds(fp, rc.n_u, rc.n_v)
    ds = np.arange(-zg.n_k, zg.n_k + 1)
    near, far = (tables._contract(q_max, p_max, ds, *spatial_rule(cfg, rho, 2),
                                  fp, zg) for rho in (delta, delta / 10))
    assert np.abs(near - far).max() <= quad_tol * np.abs(far).max()


def _assert_x_factor_matches_closed_form(fp, q_max, p_max, xi):
    # the q-recurrence against f_spatial itself at every (q, p >= 0, node),
    # in node blocks: finite everywhere and within 1e-12 of each node's
    # largest |f|
    q = np.arange(-q_max, q_max + 1)[:, None, None]
    p = np.arange(p_max + 1)[None, :, None]
    for block in np.array_split(xi, -(-len(xi) // 256)):
        got = tables._x_factor(q_max, p_max, block, fp)
        ref = gs.f_spatial(q, p, block, fp)
        assert np.all(np.isfinite(got))
        scale = np.abs(ref).max(axis=(0, 1))
        assert np.all(np.abs(got - ref).max(axis=(0, 1)) <= 1e-12 * scale)


@pytest.mark.parametrize("name", ["circle", "rectangle", "grating"])
def test_x_factor_recurrence_matches_closed_form(name):
    rc = parse_config(CONFIGS / f"{name}.json")
    fp, zg, cfg = rc.fp, rc.zg, rc.ewald
    q_max, p_max = gs.index_bounds(fp, rc.n_u, rc.n_v)
    phase = tables.spectral_phase_coeff(fp, zg, rc.n_u, rc.n_v)
    xi = np.concatenate([spectral_rule(cfg, phase, 2)[0],
                         spatial_rule(cfg, zg.delta, 2)[0]])
    _assert_x_factor_matches_closed_form(fp, q_max, p_max, xi)


def test_x_factor_recurrence_on_a_wide_frame():
    # M = 30, N = 20 (a (125, 44) half box) on the circle's spectral nodes:
    # where the q = 0 row underflows the recurrence leaves the rows it seeds
    # zero, where f_spatial is at most 3.7e-251.  The largest difference,
    # 6.0e-13 of the node's max|f|, is at an exponent of modulus 1.6e3,
    # where f_spatial itself is 2.1e-13 from an mpmath value
    rc = parse_config(CONFIGS / "circle.json")
    fp = gs.FrameParams(X=rc.fp.X, alpha=rc.fp.alpha, beta=rc.fp.beta, M=30, N=20)
    zg, cfg = rc.zg, rc.ewald
    q_max, p_max = gs.index_bounds(fp, rc.n_u, rc.n_v)
    phase = tables.spectral_phase_coeff(fp, zg, rc.n_u, rc.n_v)
    _assert_x_factor_matches_closed_form(
        fp, q_max, p_max, spectral_rule(cfg, phase, 1)[0])


def test_build_records_doubling_diff(setup, tmp_path):
    # each build keeps its panel-doubling difference; a table read back from
    # its cache file carries none
    fp, zg, cfg, spat, spec = setup
    for table in (spat, spec):
        assert 0 < table.doubling_diff <= cfg.quad_tol
        path = gs.save_table(table, tmp_path / f"{table.kind}.bin")
        loaded = gs.load_table(path, fp, zg, cfg, 2, 3, table.kind)
        assert loaded.doubling_diff is None


def test_zero_skip_far_entries(setup, monkeypatch):
    # entries with the q-Gaussian below cfg.negligible at the lower limit
    # are zero
    fp, zg, cfg, spat, _ = setup
    assert table_entry(spat, spat.q_max, 0, 0) == 0
    # d-skip needs m_d * Delta * E above the log threshold; force it with a
    # loose negligible level on a throwaway build
    monkeypatch.setattr(gs.EwaldConfig, "negligible", 1e-2)
    small = gs.build_spatial_table(fp, zg, cfg, 2, 3)
    assert table_entry(small, 0, 0, zg.n_k) == 0
    assert table_entry(small, 0, 0, 0) != 0


def test_cache_round_trip_bit_exact(setup, tmp_path):
    fp, zg, cfg, spat, spec = setup
    for table in (spat, spec):
        path = gs.cache_path(tmp_path, table.kind, fp, zg, cfg, 2, 3)
        gs.save_table(table, path)
        back = gs.load_table(path, fp, zg, cfg, 2, 3, table.kind)
        assert np.array_equal(back.data, table.data)
        assert back.data.tobytes() == table.data.tobytes()


def test_cache_rejects_mismatched_parameters(setup, tmp_path):
    fp, zg, cfg, spat, _ = setup
    path = gs.cache_path(tmp_path, "spatial", fp, zg, cfg, 2, 3)
    gs.save_table(spat, path)
    other = gs.EwaldConfig(split=cfg.split * 1.5, k0=K0)
    with pytest.raises(DomainError):
        gs.load_table(path, fp, zg, other, 2, 3, "spatial")


def test_load_or_build_cache_hit(setup, tmp_path):
    fp, zg, cfg, *_ = setup
    _, _, hit1 = gs.load_or_build(tmp_path, fp, zg, cfg, 2, 3)
    spat2, spec2, hit2 = gs.load_or_build(tmp_path, fp, zg, cfg, 2, 3)
    assert not hit1 and hit2
    assert spat2.kind == "spatial" and spec2.kind == "spectral"


def test_table_read_beside_missing_partner(setup, tmp_path, monkeypatch):
    # each table file is read or rebuilt on its own: a valid spatial file
    # next to a missing spectral one is read, not rebuilt, and the pair is
    # no cache hit
    fp, zg, cfg, spat, spec = setup
    gs.save_table(spat, gs.cache_path(tmp_path, "spatial", fp, zg, cfg, 2, 3))

    def not_reached(*args, **kwargs):
        raise AssertionError("a valid cached table was rebuilt")

    monkeypatch.setattr(tables, "build_spatial_table", not_reached)
    got_spat, got_spec, hit = gs.load_or_build(tmp_path, fp, zg, cfg, 2, 3)
    assert not hit
    assert got_spat.data.tobytes() == spat.data.tobytes()
    assert got_spec.data.tobytes() == spec.data.tobytes()
    assert gs.cache_path(tmp_path, "spectral", fp, zg, cfg, 2, 3).exists()


def test_load_or_build_without_cache_writes_nothing(setup, tmp_path,
                                                    monkeypatch):
    fp, zg, cfg, spat, spec = setup
    monkeypatch.chdir(tmp_path)
    got_spat, got_spec, hit = gs.load_or_build(None, fp, zg, cfg, 2, 3)
    assert not hit
    assert got_spat.data.tobytes() == spat.data.tobytes()
    assert got_spec.data.tobytes() == spec.data.tobytes()
    assert list(tmp_path.iterdir()) == []


def test_magic_bytes(setup, tmp_path):
    fp, zg, cfg, spat, _ = setup
    path = gs.cache_path(tmp_path, "spatial", fp, zg, cfg, 2, 3)
    gs.save_table(spat, path)
    assert path.read_bytes()[:4] == b"EGKT"


def test_truncated_cache_file_rejected_and_rebuilt(setup, tmp_path):
    fp, zg, cfg, *_ = setup
    spat, _, hit = gs.load_or_build(tmp_path, fp, zg, cfg, 2, 3)
    assert not hit
    path = gs.cache_path(tmp_path, "spatial", fp, zg, cfg, 2, 3)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(DomainError, match="data bytes"):
        gs.load_table(path, fp, zg, cfg, 2, 3, "spatial")
    again, _, hit = gs.load_or_build(tmp_path, fp, zg, cfg, 2, 3)
    assert not hit
    assert np.array_equal(again.data, spat.data)
    assert gs.load_table(path, fp, zg, cfg, 2, 3, "spatial").data.tobytes() \
        == spat.data.tobytes()


def test_save_table_leaves_no_temporary(setup, tmp_path):
    fp, zg, cfg, spat, _ = setup
    path = gs.cache_path(tmp_path, "spatial", fp, zg, cfg, 2, 3)
    gs.save_table(spat, path)
    gs.save_table(spat, path)                   # replaces an existing file
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_older_format_version_rejected_and_rebuilt(setup, tmp_path):
    # a file of an older format version sits under the same name (the cache
    # key leaves the version out): the header check rejects it and
    # load_or_build replaces it with a current build
    fp, zg, cfg, spat, spec = setup
    for table in (spat, spec):
        path = gs.save_table(table, gs.cache_path(tmp_path, table.kind, fp, zg,
                                                  cfg, 2, 3))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", tables._FORMAT_VERSION - 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(DomainError, match="does not match"):
            gs.load_table(path, fp, zg, cfg, 2, 3, table.kind)
    again_spat, again_spec, hit = gs.load_or_build(tmp_path, fp, zg, cfg, 2, 3)
    assert not hit
    assert np.array_equal(again_spat.data, spat.data)
    assert np.array_equal(again_spec.data, spec.data)
    for table in (spat, spec):
        path = gs.cache_path(tmp_path, table.kind, fp, zg, cfg, 2, 3)
        assert struct.unpack("<I", path.read_bytes()[4:8])[0] == tables._FORMAT_VERSION


def test_cache_doc_matches_code(setup, tmp_path):
    # docs/table-cache.md marks the version that _FORMAT_VERSION writes as
    # current, and its file-size formula gives the size of a saved table
    doc = (Path(__file__).resolve().parents[1] / "docs" / "table-cache.md").read_text()
    assert re.findall(r"^- \*\*(\d+)\*\* \(current\)", doc, flags=re.M) \
        == [str(tables._FORMAT_VERSION)]
    assert f"format version ({tables._FORMAT_VERSION})" in doc
    formula = re.search(r"a file holds `([^`]+)` bytes", doc).group(1)
    expr = re.sub(r"(\d|\))\s*([A-Za-z(])", r"\1*\2", formula)  # 16 (, 4M, )(
    fp, zg, cfg, spat, spec = setup
    size = eval(expr, {"__builtins__": {}},
                {"M": fp.M, "N": fp.N, "N_u": 2, "N_v": 3, "n_k": zg.n_k})
    for table in (spat, spec):
        path = gs.save_table(table, gs.cache_path(tmp_path, table.kind, fp, zg,
                                                  cfg, 2, 3))
        assert path.stat().st_size == size
