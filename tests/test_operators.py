import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import gaborscat as gs
from gaborscat import operators, tables
from gaborscat.errors import DimensionMismatch, DomainError, SizeCap

from .oracles import (active_unknowns, analyze, full_grid_contrast_multiply,
                      full_system_matrix, kx_domain_tables, unit_source_field,
                      xfactor_green_apply, xfactor_green_matrix)


def unit_coeffs(fp, zg, m=0, n=0, k=None):
    c = np.zeros(gs.coeff_shape(fp, zg), dtype=complex)
    c[fp.M + m, fp.N + n, zg.n_k // 2 if k is None else k] = 1.0
    return c


def synth_at_points(coeffs, fp, zg, points):
    """Expansion field at (x, z-node-index) probe pairs."""
    out = []
    for x, zi in points:
        vals = gs.synthesize(coeffs[:, :, zi][:, :, None], np.array([x]), fp)
        out.append(vals[0, 0])
    return np.array(out)


def random_tables(fp, zg, cfg, dual, seed=0):
    """Spatial/spectral tables with every (q, p, d) entry random and nonzero."""
    rng = np.random.default_rng(seed)
    q_max, p_max = gs.index_bounds(fp, dual.n_u, dual.n_v)
    shape = (2 * q_max + 1, 2 * p_max + 1, 2 * zg.n_k + 1)
    return [gs.KernelTable(data=rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape),
                           kind=kind, fp=fp, zg=zg, cfg=cfg,
                           n_u=dual.n_u, n_v=dual.n_v)
            for kind in ("spatial", "spectral")]


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("tables", ["built", "random", "spatial-only",
                                    "spectral-only"])
def test_folded_kernel_matches_xfactor_contraction(
        tables, scene_small_circle, fp_small, zg_small, cfg_small, dual_small,
        tables_small):
    # the one-sided inputs zero the other table, so each side, the spectral
    # one through its kx-domain x-factors, is checked on its own
    pair = tables_small if tables == "built" else random_tables(
        fp_small, zg_small, cfg_small, dual_small)
    if tables.endswith("-only"):
        pair = [t if tables == f"{t.kind}-only"
                else replace(t, data=np.zeros_like(t.data)) for t in pair]
    op = gs.build_operator(scene_small_circle, dual_small, *pair)
    kx_pair = kx_domain_tables(pair)
    rng = np.random.default_rng(3)
    shape = gs.coeff_shape(fp_small, zg_small)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = xfactor_green_apply(c, dual_small, kx_pair)
    assert rel_err(gs.green_apply(c, op), ref) <= 1e-12
    assert rel_err(gs.assemble_green_matrix(op),
                   xfactor_green_matrix(dual_small, kx_pair)) <= 1e-12


def test_fold_is_symmetric_in_the_tables(scene_small_circle, dual_small,
                                         tables_small):
    # the fold reads the plain sum of the two tables, so handing them over in
    # either order gives the same kernel, bit for bit
    spatial, spectral = tables_small
    op = gs.build_operator(scene_small_circle, dual_small, spatial, spectral)
    swapped = gs.build_operator(scene_small_circle, dual_small, spectral, spatial)
    assert np.array_equal(swapped.kernel_fft, op.kernel_fft)


def test_kernel_cache_round_trip_bit_exact(tmp_path, dual_small, tables_small):
    fresh = gs.build_operator(None, dual_small, *tables_small)
    cold = gs.build_operator(None, dual_small, *tables_small, cache_dir=tmp_path)
    warm = gs.build_operator(None, dual_small, *tables_small, cache_dir=tmp_path)
    assert [fresh.kernel_cache_hit, cold.kernel_cache_hit,
            warm.kernel_cache_hit] == [False, False, True]
    path = gs.kernel_cache_path(tmp_path, tables_small[0])
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    for op in (cold, warm):
        assert op.kernel_fft.tobytes() == fresh.kernel_fft.tobytes()


@pytest.mark.parametrize("damage", ["dual", "truncated", "lengthened",
                                    "version"])
def test_kernel_cache_rejects_and_rewrites(tmp_path, damage, dual_small,
                                           tables_small):
    # a file folded from dual coefficients one ulp off in one entry, one cut
    # short, one with bytes past its payload, or one of an older format
    # version is a miss: the kernel is folded again and the file rewritten
    op = gs.build_operator(None, dual_small, *tables_small, cache_dir=tmp_path)
    path = gs.kernel_cache_path(tmp_path, tables_small[0])
    good = path.read_bytes()
    if damage == "dual":
        a = dual_small.a.copy()
        a.flat[3] = np.nextafter(a.flat[3].real, np.inf) + 1j * a.flat[3].imag
        gs.save_kernel_fft(path, tables_small[0], a, op.kernel_fft)
        match = "other dual coefficients"
    elif damage == "truncated":
        path.write_bytes(good[:-16])
        match = "data bytes"
    elif damage == "lengthened":
        path.write_bytes(good + bytes(16))
        match = "data bytes"
    else:
        raw = bytearray(good)
        raw[4:8] = struct.pack("<I", tables._FORMAT_VERSION - 1)
        path.write_bytes(bytes(raw))
        match = "does not match"
    with pytest.raises(DomainError, match=match):
        gs.load_kernel_fft(path, tables_small[0], dual_small.a,
                           op.kernel_fft.shape)
    again = gs.build_operator(None, dual_small, *tables_small, cache_dir=tmp_path)
    assert not again.kernel_cache_hit
    assert path.read_bytes() == good
    assert again.kernel_fft.tobytes() == op.kernel_fft.tobytes()


def test_kernel_cache_misses_under_another_table_version(
        tmp_path, monkeypatch, dual_small, tables_small):
    # a kernel DFT written while another table format version was current is
    # a miss, so tables rebuilt under a new format are never paired with a
    # kernel folded from the old ones
    with monkeypatch.context() as patch:
        patch.setattr(tables, "_FORMAT_VERSION", tables._FORMAT_VERSION - 1)
        assert not gs.build_operator(None, dual_small, *tables_small,
                                     cache_dir=tmp_path).kernel_cache_hit
    again = gs.build_operator(None, dual_small, *tables_small, cache_dir=tmp_path)
    assert not again.kernel_cache_hit
    assert gs.build_operator(None, dual_small, *tables_small,
                             cache_dir=tmp_path).kernel_cache_hit


def test_kernel_cache_doc_matches_code(tmp_path, fp_small, zg_small,
                                       dual_small, tables_small):
    # docs/table-cache.md states that the kernel header holds the table
    # format version, and its size formula gives a saved file's size
    doc = (Path(__file__).resolve().parents[1] / "docs" / "table-cache.md").read_text()
    assert f"| 4 | `u32` | table format version ({tables._FORMAT_VERSION}) |" in doc
    formula = re.search(r"a kernel file holds\s+`([^`]+)` bytes", doc).group(1)
    expr = re.sub(r"(\d|\))\s*(?=[A-Za-z(])", r"\1*", formula)     # 16 (, 2N, )(
    expr = re.sub(r"([A-Za-z]\w*)\s+(?=[A-Za-z(])", r"\1*", expr)  # L_m L_k (
    size = eval(expr, {"__builtins__": {}},
                {"M": fp_small.M, "N": fp_small.N, "n_k": zg_small.n_k,
                 "N_u": dual_small.n_u, "N_v": dual_small.n_v,
                 "L_m": scipy.fft.next_fast_len(4 * fp_small.M + 1),
                 "L_k": scipy.fft.next_fast_len(2 * zg_small.n_k + 1)})
    gs.build_operator(None, dual_small, *tables_small, cache_dir=tmp_path)
    assert gs.kernel_cache_path(tmp_path, tables_small[0]).stat().st_size == size


def test_operator_x_matrices_come_from_frame(op_small, fp_small, zg_small,
                                             dual_small, scene_small_circle):
    # the frame's matrices on the whole analysis grid, at the points where
    # chi is nonzero on some z slice
    xs = gs.analysis_grid(fp_small)
    chi = np.array([gs.contrast_at(xs, z, scene_small_circle)
                    for z in zg_small.nodes])
    support = np.any(chi != 0, axis=0)
    assert 0 < support.sum() < len(xs)
    assert np.array_equal(op_small.grid, xs[support])
    assert np.array_equal(op_small.chi_slices, chi[:, support])
    assert np.array_equal(op_small.synth_matrix,
                          gs.synthesis_matrix(xs, fp_small)[support])
    assert np.array_equal(op_small.analysis_matrix,
                          gs.analysis_matrix(xs, dual_small, fp_small)[:, support])


def test_operator_memory_grating_size(zg_small, cfg_small):
    # grating box: the folded kernel and its DFT, not M^2 N^2 x-factor tensors
    fp = gs.FrameParams(X=0.5, alpha=float(np.sqrt(2 / 3)),
                        beta=float(np.sqrt(2 / 3)), M=11, N=7)
    zg = gs.ZGrid(z_min=-0.825, delta=0.05, n_k=33)
    rng = np.random.default_rng(8)
    dual = gs.DualWindow(a=rng.standard_normal((5, 7)) + 0j, n_u=2, n_v=3,
                         residual=0.0)
    tables = random_tables(fp, zg, cfg_small, dual)
    op = gs.build_operator(None, dual, *tables)
    held = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    held += [t.data for t in tables]
    assert sum(a.nbytes for a in held) < 100e6


def test_fold_reads_every_edge_column(fp_small, zg_small, cfg_small,
                                      dual_small):
    # index_bounds is the box the fold reads, edge to edge: perturbing any
    # (q, p) column with |q| = q_max or |p| = p_max, in either table, moves K.
    # The smallest fold weight, e^{-pi/2 beta^2 n_v^2} at the p-edge corners,
    # is about 5e-8; the 1e-12 floor is far above rounding
    rng = np.random.default_rng(5)
    shape = dual_small.a.shape
    dual = gs.DualWindow(a=rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape),
                         n_u=dual_small.n_u, n_v=dual_small.n_v, residual=0.0)
    pair = random_tables(fp_small, zg_small, cfg_small, dual)
    base = operators._fold_kernel(fp_small, dual, *pair)
    q_max, p_max = pair[0].q_max, pair[0].p_max
    edges = [(q, p) for q in range(-q_max, q_max + 1)
             for p in range(-p_max, p_max + 1)
             if abs(q) == q_max or abs(p) == p_max]
    for side, table in enumerate(pair):
        for q, p in edges:
            data = table.data.copy()
            data[q + q_max, p + p_max] += 1.0
            moved = list(pair)
            moved[side] = replace(table, data=data)
            change = operators._fold_kernel(fp_small, dual, *moved) - base
            assert np.abs(change).max() > 1e-12 * np.abs(base).max(), \
                (table.kind, q, p)


def test_build_operator_rejects_small_table_box(fp_small, zg_small, cfg_small,
                                                 dual_small):
    # tables built for a narrower or a wider dual window than the one given
    for d_u, d_v in [(-1, -1), (-1, 0), (0, 1), (1, 1)]:
        n_u, n_v = dual_small.n_u + d_u, dual_small.n_v + d_v
        other = gs.DualWindow(a=np.ones((2 * n_u + 1, 2 * n_v + 1), dtype=complex),
                              n_u=n_u, n_v=n_v, residual=0.0)
        with pytest.raises(DimensionMismatch):
            gs.build_operator(None, dual_small,
                              *random_tables(fp_small, zg_small, cfg_small, other))


def test_build_operator_rejects_mismatched_tables(fp_small, zg_small,
                                                  cfg_small, dual_small):
    # the operator takes fp, zg and k0 from the tables, so the spatial and
    # spectral tables must share them
    spatial, _ = random_tables(fp_small, zg_small, cfg_small, dual_small)
    others = [(replace(fp_small, M=fp_small.M + 1), zg_small, cfg_small),
              (fp_small, replace(zg_small, n_k=zg_small.n_k + 2), cfg_small),
              (fp_small, zg_small, replace(cfg_small, split=2 * cfg_small.split))]
    for fp, zg, cfg in others:
        _, spectral = random_tables(fp, zg, cfg, dual_small)
        with pytest.raises(DimensionMismatch, match="spatial and spectral"):
            gs.build_operator(None, dual_small, spatial, spectral)


def test_build_operator_rejects_scene_at_other_k0(scene_small_circle,
                                                  dual_small, tables_small):
    # the operator works at the tables' k0 and the source projection at the
    # scene's, so the two must be the same wavenumber
    other = replace(scene_small_circle, k0=2 * scene_small_circle.k0)
    with pytest.raises(DimensionMismatch, match="k0"):
        gs.build_operator(other, dual_small, *tables_small)


def test_green_apply_zero(op_small, fp_small, zg_small):
    zero = np.zeros(gs.coeff_shape(fp_small, zg_small), dtype=complex)
    assert np.all(gs.green_apply(zero, op_small) == 0)


def test_green_apply_linearity(op_small, fp_small, zg_small):
    rng = np.random.default_rng(1)
    shape = gs.coeff_shape(fp_small, zg_small)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lhs = gs.green_apply(a + 2j * b, op_small)
    rhs = gs.green_apply(a, op_small) + 2j * gs.green_apply(b, op_small)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


def test_green_apply_dimension_mismatch(op_small, fp_small, zg_small):
    # both maps take one (m, n, k) array: trailing batch axes are refused too
    batched = np.zeros(gs.coeff_shape(fp_small, zg_small) + (1,), dtype=complex)
    for apply in (gs.green_apply, gs.contrast_multiply):
        for c in (np.zeros((3, 3, 3), dtype=complex), batched):
            with pytest.raises(DimensionMismatch):
                apply(c, op_small)


def test_green_apply_workspace_keeps_no_state(scene_small_circle, dual_small,
                                              tables_small, fp_small,
                                              zg_small):
    # calls in a row through one operator's workspace, a zero input among
    # them, give what each gives on an operator of its own
    rng = np.random.default_rng(9)
    shape = gs.coeff_shape(fp_small, zg_small)
    inputs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for _ in range(2)]
    inputs = [inputs[0], np.zeros(shape, dtype=complex), inputs[1], inputs[0]]
    op = gs.build_operator(scene_small_circle, dual_small, *tables_small)
    for c in inputs:
        fresh = gs.build_operator(scene_small_circle, dual_small,
                                  *tables_small)
        assert np.array_equal(gs.green_apply(c, op), gs.green_apply(c, fresh))


def test_matvec_results_share_no_memory(op_small, fp_small, zg_small):
    # GMRES keeps the vectors it is handed, so neither map may return a view
    # of the operator's arrays (its workspace included) or of its input
    rng = np.random.default_rng(10)
    shape = gs.coeff_shape(fp_small, zg_small)
    held = [v for v in vars(op_small).values() if isinstance(v, np.ndarray)]
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for apply in (gs.green_apply, gs.contrast_multiply):
        out = apply(c, op_small)
        assert not any(np.shares_memory(out, a) for a in held + [c])


@pytest.mark.slow
def test_unit_source_matches_brute_force(fp_unit, zg_small, dual_unit,
                                         tables_unit):
    """The decisive end-to-end check: one unit coefficient radiated through the
    tables against direct quadrature of the exact Green function."""
    op = gs.build_operator(None, dual_unit, *tables_unit)
    k_mid = zg_small.n_k // 2
    out = gs.green_apply(unit_coeffs(fp_unit, zg_small, k=k_mid), op)
    k0 = tables_unit[0].cfg.k0
    probes = [(x, zi) for x in np.linspace(-1.0, 1.0, 7)
              for zi in (3, 5, 6, 8)]
    green = lambda r: gs.green_exact(r, k0)
    ref = np.array([k0 * k0 * unit_source_field(x, zg_small.nodes[zi], 0, 0,
                                                k_mid, green, fp_unit, zg_small)
                    for x, zi in probes])
    got = synth_at_points(out, fp_unit, zg_small, probes)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-3


@pytest.mark.slow
def test_unit_source_translation_quasi_invariance(fp_unit, zg_small, dual_unit,
                                                  tables_unit):
    # shifting the source one window over and the probes by alpha X reproduces
    # the same field values (homogeneous background)
    op = gs.build_operator(None, dual_unit, *tables_unit)
    k_mid = zg_small.n_k // 2
    out0 = gs.green_apply(unit_coeffs(fp_unit, zg_small, m=0, k=k_mid), op)
    out1 = gs.green_apply(unit_coeffs(fp_unit, zg_small, m=1, k=k_mid), op)
    shift = fp_unit.alpha * fp_unit.X
    probes0 = [(x, zi) for x in np.linspace(-0.8, 0.8, 5) for zi in (5, 6)]
    probes1 = [(x + shift, zi) for x, zi in probes0]
    f0 = synth_at_points(out0, fp_unit, zg_small, probes0)
    f1 = synth_at_points(out1, fp_unit, zg_small, probes1)
    assert np.linalg.norm(f1 - f0) / np.linalg.norm(f0) < 1e-6


@pytest.mark.parametrize("scene", ["circle", "partial", "grating", "none"])
def test_contrast_multiply_matches_full_grid(scene, scene_small_circle,
                                             scene_partial, fp_small,
                                             zg_small, dual_small,
                                             tables_small):
    # the operator keeps its x-matrices only where chi is nonzero on some
    # slice, which is exact: the whole-grid product differs by rounding only.
    # The grating's blocks leave gaps in that support
    grating = gs.Scene(shape=gs.Grating(n_blocks=2, block_w=0.3, block_h=0.4,
                                        spacing=0.8),
                       eps_r=2.0, k0=1.45, theta=0.0)
    s = {"circle": scene_small_circle, "partial": scene_partial,
         "grating": grating, "none": None}[scene]
    op = gs.build_operator(s, dual_small, *tables_small)
    rng = np.random.default_rng(12)
    shape = gs.coeff_shape(fp_small, zg_small) + (2,)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = full_grid_contrast_multiply(c, s, dual_small, fp_small, zg_small)
    got = np.stack([gs.contrast_multiply(c[..., b], op)
                    for b in range(shape[-1])], axis=-1)
    if s is None:
        assert np.all(got == 0) and np.all(ref == 0)
    else:
        assert rel_err(got, ref) <= 1e-14


def test_contrast_multiply_zero_scene(fp_small, zg_small, dual_small,
                                      tables_small):
    op = gs.build_operator(None, dual_small, *tables_small)
    rng = np.random.default_rng(2)
    shape = gs.coeff_shape(fp_small, zg_small)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.all(gs.contrast_multiply(c, op) == 0)


def test_contrast_multiply_unity_round_trip(fp_unit, zg_small, dual_unit,
                                            tables_unit):
    # chi == 1 across the whole grid: output approximates the projection of the
    # input; in-range coefficients, spectral box wide enough for the dual spread
    wide = gs.Scene(shape=gs.Rectangle(width=50.0, height=50.0), eps_r=2.0,
                    k0=1.45, theta=0.0, center=(0.0, 0.0))
    op = gs.build_operator(wide, dual_unit, *tables_unit)
    grid = gs.analysis_grid(fp_unit)
    f0 = np.exp(-np.pi * grid ** 2 / (1.2 * fp_unit.X) ** 2) * np.exp(1j * grid)
    c = analyze(np.tile(f0[:, None], (1, zg_small.n_k + 1)), grid,
                dual_unit, fp_unit)
    out = gs.contrast_multiply(c, op)
    assert np.linalg.norm(out - c) / np.linalg.norm(c) < 1e-3


def test_contrast_multiply_support(scene_small_circle, fp_unit, zg_small,
                                   dual_unit, tables_unit):
    # output field rings below 1e-3 of peak outside the circle (bounded by the
    # spectral-box truncation of the analyze/synthesize pair)
    op = gs.build_operator(scene_small_circle, dual_unit, *tables_unit)
    grid0 = gs.analysis_grid(fp_unit)
    f0 = (np.exp(-np.pi * grid0 ** 2 / (2.0 * fp_unit.X) ** 2)
          * np.exp(1j * 1.45 * grid0))
    c = analyze(np.tile(f0[:, None], (1, zg_small.n_k + 1)), grid0,
                dual_unit, fp_unit)
    out = gs.contrast_multiply(c, op)
    grid = gs.analysis_grid(fp_unit)
    fields = gs.synthesize(out, grid, fp_unit)
    outside = np.abs(grid) > scene_small_circle.shape.radius + 2 * fp_unit.X
    peak = np.abs(fields).max()
    assert np.abs(fields[outside, :]).max() < 1e-3 * peak


def test_forward_zero_contrast_identity(fp_small, zg_small, dual_small,
                                        tables_small):
    op = gs.build_operator(None, dual_small, *tables_small)
    rng = np.random.default_rng(4)
    shape = gs.coeff_shape(fp_small, zg_small)
    j = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = gs.forward_residual(j, j, op)
    assert np.all(r == 0)


def test_forward_affine_linearity(op_small, fp_small, zg_small):
    rng = np.random.default_rng(5)
    shape = gs.coeff_shape(fp_small, zg_small)
    j1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    j2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    zero = np.zeros(shape, dtype=complex)
    j0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lhs = gs.forward_residual(j1 + j2, j0, op_small)
    rhs = (gs.forward_residual(j1, j0, op_small)
           + gs.forward_residual(j2, j0, op_small)
           - gs.forward_residual(zero, j0, op_small))
    assert np.abs(lhs - rhs).max() <= 1e-11 * max(np.abs(lhs).max(), 1.0)


def test_assemble_dense_matches_forward(op_small, fp_small, zg_small):
    a = gs.assemble_dense(op_small)
    rng = np.random.default_rng(6)
    shape = gs.coeff_shape(fp_small, zg_small)
    n = a.shape[0]
    zero = np.zeros(shape, dtype=complex)
    for _ in range(5):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        via_matrix = (a @ v.reshape(n)).reshape(shape)
        via_forward = gs.forward_residual(v, zero, op_small)
        assert np.abs(via_matrix - via_forward).max() \
            <= 1e-12 * np.abs(via_matrix).max()


def test_assemble_dense_identity_for_zero_contrast(dual_small, tables_small):
    op = gs.build_operator(None, dual_small, *tables_small)
    a = gs.assemble_dense(op)
    assert np.array_equal(a, np.eye(a.shape[0]))


def test_assemble_dense_size_cap(op_small, monkeypatch):
    monkeypatch.setattr(operators, "_DENSE_CAP", 10)
    with pytest.raises(SizeCap):
        gs.assemble_dense(op_small)


def test_assemble_dense_checks_memory_before_allocating(op_small,
                                                       monkeypatch):
    # the n^2 complex entries of the dense matrix: one byte over the memory
    # reading is refused before anything is gathered, an exact fit assembles
    n = len(gs.active_slices(op_small)) * int(
        np.prod(gs.coeff_shape(op_small.fp, op_small.zg)[:2]))
    monkeypatch.setattr("gaborscat.errors._physical_memory",
                        lambda: n * n * 16 - 1)
    with monkeypatch.context() as m:
        m.setattr(operators, "assemble_green_matrix", _not_gathered)
        with pytest.raises(SizeCap, match="dense system matrix"):
            gs.assemble_dense(op_small)
    monkeypatch.setattr("gaborscat.errors._physical_memory",
                        lambda: n * n * 16)
    assert gs.assemble_dense(op_small).shape == (n, n)


def _not_gathered(*args, **kwargs):
    raise AssertionError("the dense matrix was gathered")


def test_fast_len_matches_scipy():
    # the kernel DFT lengths, and so the kernel cache file, are those that
    # scipy.fft.next_fast_len gives for complex transforms
    assert [operators._fast_len(n) for n in range(1, 4097)] == \
        [scipy.fft.next_fast_len(n) for n in range(1, 4097)]


def test_assemble_dense_is_active_block_of_full_system(op_partial, dual_small,
                                                       tables_small):
    # chi == 0 on the outer slices: their rows of the full I - chi*G are exact
    # identity rows, and assemble_dense keeps the block of the other slices
    nk = op_partial.zg.n_k + 1
    active = gs.active_slices(op_partial)
    assert 0 < len(active) < nk
    assert not np.any(op_partial.chi_slices[np.setdiff1d(np.arange(nk), active)])
    rows = active_unknowns(op_partial)
    n = int(np.prod(gs.coeff_shape(op_partial.fp, op_partial.zg)))
    idle = np.setdiff1d(np.arange(n), rows)
    kx_pair = kx_domain_tables(tables_small)
    full = full_system_matrix(op_partial, dual_small, kx_pair)
    assert np.array_equal(full[idle], np.eye(n)[idle])
    block = np.ix_(rows, rows)
    green = xfactor_green_matrix(dual_small, kx_pair)
    assert rel_err(gs.assemble_green_matrix(op_partial, active),
                   green[block]) <= 1e-12
    assert rel_err(gs.assemble_dense(op_partial), full[block]) <= 1e-12


def test_assemble_dense_cap_counts_active_unknowns(op_partial, monkeypatch):
    n_active = len(active_unknowns(op_partial))
    assert n_active < np.prod(gs.coeff_shape(op_partial.fp, op_partial.zg))
    monkeypatch.setattr(operators, "_DENSE_CAP", n_active - 1)
    with pytest.raises(SizeCap):
        gs.assemble_dense(op_partial)
    monkeypatch.setattr(operators, "_DENSE_CAP", n_active)
    assert gs.assemble_dense(op_partial).shape == (n_active,) * 2


@pytest.mark.slow
def test_field_reciprocity(fp_unit, zg_small, dual_unit, tables_unit):
    # field of source A at B's center equals field of B at A's center
    op = gs.build_operator(None, dual_unit, *tables_unit)
    a_idx = (0, 0, 5)
    b_idx = (2, 0, 7)
    out_a = gs.green_apply(unit_coeffs(fp_unit, zg_small, *a_idx), op)
    out_b = gs.green_apply(unit_coeffs(fp_unit, zg_small, *b_idx), op)
    xa = fp_unit.alpha * a_idx[0] * fp_unit.X
    xb = fp_unit.alpha * b_idx[0] * fp_unit.X
    f_ab = synth_at_points(out_a, fp_unit, zg_small, [(xb, b_idx[2])])[0]
    f_ba = synth_at_points(out_b, fp_unit, zg_small, [(xa, a_idx[2])])[0]
    assert abs(f_ab - f_ba) / abs(f_ab) < 1e-4


@pytest.mark.slow
def test_split_invariance_at_operator_level(fp_small, zg_small, dual_small):
    # moving the splitting parameter shifts weight between the two tables but
    # not their sum
    k0 = 1.45
    rng = np.random.default_rng(7)
    shape = gs.coeff_shape(fp_small, zg_small)
    j = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    outs = []
    for factor in (1.0, 1.5):
        cfg = gs.EwaldConfig(split=factor * gs.optimal_split(k0, zg_small.delta),
                             k0=k0)
        tables = gs.load_or_build(None, fp_small, zg_small, cfg,
                                  dual_small.n_u, dual_small.n_v)[:2]
        op = gs.build_operator(None, dual_small, *tables)
        outs.append(gs.green_apply(j, op))
    diff = np.linalg.norm(outs[0] - outs[1]) / np.linalg.norm(outs[0])
    assert diff < 1e-6
