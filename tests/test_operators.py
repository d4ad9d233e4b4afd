import numpy as np
import pytest

import gaborscat as gs
from gaborscat.errors import DimensionMismatch, SizeCap

from .oracles import (active_unknowns, full_system_matrix, unit_source_field,
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


@pytest.mark.parametrize("tables", ["built", "random"])
def test_folded_kernel_matches_xfactor_contraction(
        tables, scene_small_circle, fp_small, zg_small, cfg_small, dual_small,
        tables_small):
    pair = tables_small if tables == "built" else random_tables(
        fp_small, zg_small, cfg_small, dual_small)
    op = gs.build_operator(scene_small_circle, fp_small, zg_small, dual_small,
                           *pair)
    rng = np.random.default_rng(3)
    shape = gs.coeff_shape(fp_small, zg_small) + (2, 3)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert rel_err(gs.green_apply(c[..., 0, 0], op),
                   xfactor_green_apply(c[..., 0, 0], op)) <= 1e-12
    batched = gs.green_apply(c, op)
    assert batched.shape == shape
    assert rel_err(batched, xfactor_green_apply(c, op)) <= 1e-12
    assert rel_err(gs.assemble_green_matrix(op), xfactor_green_matrix(op)) <= 1e-12


def test_operator_x_matrices_come_from_frame(op_small, fp_small, dual_small):
    assert np.array_equal(op_small.synth_matrix,
                          gs.synthesis_matrix(op_small.grid, fp_small))
    assert np.array_equal(op_small.analysis_matrix,
                          gs.analysis_matrix(op_small.grid, dual_small, fp_small))


def test_operator_memory_grating_size(zg_small, cfg_small):
    # grating box: the folded kernel and its DFT, not M^2 N^2 x-factor tensors
    fp = gs.FrameParams(X=0.5, alpha=float(np.sqrt(2 / 3)),
                        beta=float(np.sqrt(2 / 3)), M=11, N=7)
    zg = gs.ZGrid(z_min=-0.825, delta=0.05, n_k=33)
    rng = np.random.default_rng(8)
    dual = gs.DualWindow(a=rng.standard_normal((5, 7)) + 0j, n_u=2, n_v=3,
                         residual=0.0)
    op = gs.build_operator(None, fp, zg, dual,
                           *random_tables(fp, zg, cfg_small, dual))
    held = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    held += [op.spatial_table.data, op.spectral_table.data]
    assert sum(a.nbytes for a in held) < 100e6


def test_build_operator_rejects_small_table_box(fp_small, zg_small, cfg_small,
                                                 dual_small):
    narrow = gs.DualWindow(a=np.ones((3, 3), dtype=complex), n_u=1, n_v=1,
                           residual=0.0)
    with pytest.raises(DimensionMismatch):
        gs.build_operator(None, fp_small, zg_small, dual_small,
                          *random_tables(fp_small, zg_small, cfg_small, narrow))


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


def test_green_apply_dimension_mismatch(op_small):
    with pytest.raises(DimensionMismatch):
        gs.green_apply(np.zeros((3, 3, 3), dtype=complex), op_small)


@pytest.mark.slow
def test_unit_source_matches_brute_force(fp_unit, zg_small, dual_unit,
                                         tables_unit):
    """The decisive end-to-end check: one unit coefficient radiated through the
    tables against direct quadrature of the exact Green function."""
    op = gs.build_operator(None, fp_unit, zg_small, dual_unit, *tables_unit)
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
    op = gs.build_operator(None, fp_unit, zg_small, dual_unit, *tables_unit)
    k_mid = zg_small.n_k // 2
    out0 = gs.green_apply(unit_coeffs(fp_unit, zg_small, m=0, k=k_mid), op)
    out1 = gs.green_apply(unit_coeffs(fp_unit, zg_small, m=1, k=k_mid), op)
    shift = fp_unit.alpha * fp_unit.X
    probes0 = [(x, zi) for x in np.linspace(-0.8, 0.8, 5) for zi in (5, 6)]
    probes1 = [(x + shift, zi) for x, zi in probes0]
    f0 = synth_at_points(out0, fp_unit, zg_small, probes0)
    f1 = synth_at_points(out1, fp_unit, zg_small, probes1)
    assert np.linalg.norm(f1 - f0) / np.linalg.norm(f0) < 1e-6


def test_contrast_multiply_zero_scene(fp_small, zg_small, dual_small,
                                      tables_small):
    op = gs.build_operator(None, fp_small, zg_small, dual_small, *tables_small)
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
    op = gs.build_operator(wide, fp_unit, zg_small, dual_unit, *tables_unit)
    grid = op.grid
    f0 = np.exp(-np.pi * grid ** 2 / (1.2 * fp_unit.X) ** 2) * np.exp(1j * grid)
    c = gs.analyze(np.tile(f0[:, None], (1, zg_small.n_k + 1)), grid,
                   dual_unit, fp_unit)
    out = gs.contrast_multiply(c, op)
    assert np.linalg.norm(out - c) / np.linalg.norm(c) < 1e-3


def test_contrast_multiply_support(scene_small_circle, fp_unit, zg_small,
                                   dual_unit, tables_unit):
    # output field rings below 1e-3 of peak outside the circle (bounded by the
    # spectral-box truncation of the analyze/synthesize pair)
    op = gs.build_operator(scene_small_circle, fp_unit, zg_small, dual_unit,
                           *tables_unit)
    grid0 = op.grid
    f0 = (np.exp(-np.pi * grid0 ** 2 / (2.0 * fp_unit.X) ** 2)
          * np.exp(1j * 1.45 * grid0))
    c = gs.analyze(np.tile(f0[:, None], (1, zg_small.n_k + 1)), grid0,
                   dual_unit, fp_unit)
    out = gs.contrast_multiply(c, op)
    grid = op.grid
    fields = gs.synthesize(out, grid, fp_unit)
    outside = np.abs(grid) > scene_small_circle.shape.radius + 2 * fp_unit.X
    peak = np.abs(fields).max()
    assert np.abs(fields[outside, :]).max() < 1e-3 * peak


def test_forward_zero_contrast_identity(fp_small, zg_small, dual_small,
                                        tables_small):
    op = gs.build_operator(None, fp_small, zg_small, dual_small, *tables_small)
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


def test_assemble_dense_identity_for_zero_contrast(fp_small, zg_small,
                                                   dual_small, tables_small):
    op = gs.build_operator(None, fp_small, zg_small, dual_small, *tables_small)
    a = gs.assemble_dense(op)
    assert np.array_equal(a, np.eye(a.shape[0]))


def test_assemble_dense_size_cap(op_small):
    with pytest.raises(SizeCap):
        gs.assemble_dense(op_small, cap=10)


def test_assemble_dense_is_active_block_of_full_system(op_partial):
    # chi == 0 on the outer slices: their rows of the full I - chi*G are exact
    # identity rows, and assemble_dense keeps the block of the other slices
    nk = op_partial.zg.n_k + 1
    active = gs.active_slices(op_partial)
    assert 0 < len(active) < nk
    assert not np.any(op_partial.chi_slices[np.setdiff1d(np.arange(nk), active)])
    rows = active_unknowns(op_partial)
    idle = np.setdiff1d(np.arange(op_partial.n_unknowns), rows)
    full = full_system_matrix(op_partial)
    assert np.array_equal(full[idle], np.eye(op_partial.n_unknowns)[idle])
    block = np.ix_(rows, rows)
    assert rel_err(gs.assemble_green_matrix(op_partial, active),
                   xfactor_green_matrix(op_partial)[block]) <= 1e-12
    assert rel_err(gs.assemble_dense(op_partial), full[block]) <= 1e-12


def test_assemble_dense_cap_counts_active_unknowns(op_partial):
    n_active = len(active_unknowns(op_partial))
    assert n_active < op_partial.n_unknowns
    with pytest.raises(SizeCap):
        gs.assemble_dense(op_partial, cap=n_active - 1)
    assert gs.assemble_dense(op_partial, cap=n_active).shape == (n_active,) * 2


@pytest.mark.slow
def test_field_reciprocity(fp_unit, zg_small, dual_unit, tables_unit):
    # field of source A at B's center equals field of B at A's center
    op = gs.build_operator(None, fp_unit, zg_small, dual_unit, *tables_unit)
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
        tables = gs.build_tables(fp_small, zg_small, cfg, dual_small.n_u,
                                 dual_small.n_v)
        op = gs.build_operator(None, fp_small, zg_small, dual_small, *tables)
        outs.append(gs.green_apply(j, op))
    diff = np.linalg.norm(outs[0] - outs[1]) / np.linalg.norm(outs[0])
    assert diff < 1e-6
