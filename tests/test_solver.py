import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import gaborscat as gs
from gaborscat import operators, solver
from gaborscat.errors import NonConvergence, SizeCap

from .oracles import analyze, full_system_matrix, kx_domain_tables


@pytest.fixture(scope="module")
def solve_ctx(dual_small, tables_small):
    def run(scene, **kw):
        return gs.solve(scene, gs.build_operator(scene, dual_small, *tables_small),
                        **kw)
    return run


def small_circle(eps_r=2.0, e0=1.0):
    return gs.Scene(shape=gs.Circle(radius=0.45), eps_r=eps_r, k0=1.45,
                    theta=0.0, e0=e0)


def test_zero_contrast_returns_incident(solve_ctx):
    sol = solve_ctx(small_circle(eps_r=1.0))
    assert np.array_equal(sol.J, sol.J_inc) or \
        np.abs(sol.J - sol.J_inc).max() < 1e-14
    assert sol.residual_norm == 0.0
    assert sol.iterations == 0


def test_direct_solve_residual(solve_ctx):
    sol = solve_ctx(small_circle(), method="direct")
    assert sol.residual_norm < 1e-8
    assert np.isfinite(sol.condition_estimate)
    assert sol.condition_estimate < 1e4


def test_born_limit(solve_ctx, dual_small, tables_small):
    # eps_r = 1 + 1e-6: first-order correction matches one operator application
    scene = small_circle(eps_r=1.0 + 1e-6)
    op = gs.build_operator(scene, dual_small, *tables_small)
    for method in solver.METHODS:
        sol = solve_ctx(scene, method=method)
        born = gs.contrast_multiply(gs.green_apply(sol.J_inc, op), op)
        delta = sol.J - sol.J_inc
        assert np.linalg.norm(delta - born) / np.linalg.norm(born) < 1e-4


def test_direct_vs_iterative(solve_ctx):
    tol = 1e-8
    direct = solve_ctx(small_circle(), method="direct", tol=tol)
    iterative = solve_ctx(small_circle(), method="iterative", tol=tol)
    diff = (np.linalg.norm(direct.J - iterative.J)
            / np.linalg.norm(direct.J))
    assert diff <= 10 * tol
    assert iterative.iterations > 0
    assert iterative.residual_norm <= tol
    assert iterative.factored_unknowns == 0


def test_direct_solve_factors_active_slices(op_partial, scene_partial,
                                            zg_small, dual_small,
                                            tables_small):
    sol = gs.solve(scene_partial, op_partial, method="direct")
    full = full_system_matrix(op_partial, dual_small,
                              kx_domain_tables(tables_small))
    ref = np.linalg.solve(full, sol.J_inc.ravel())
    assert np.linalg.norm(sol.J.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)
    idle = np.setdiff1d(np.arange(zg_small.n_k + 1),
                        gs.active_slices(op_partial))
    assert np.all(sol.J_inc[:, :, idle] == 0)
    assert np.array_equal(sol.J[:, :, idle], sol.J_inc[:, :, idle])
    a = gs.assemble_dense(op_partial)
    assert sol.factored_unknowns == a.shape[0] < sol.J.size
    kappa = np.linalg.cond(a, 1)
    assert kappa / 10 <= sol.condition_estimate <= kappa * (1 + 1e-8)


def test_linearity_in_amplitude(solve_ctx):
    # doubling E0 scales the rhs by exactly 2; GMRES (the default solve)
    # starts from the normalized rhs, so its solution doubles bit-for-bit
    # (powers of two are exact in floating point)
    sol1 = solve_ctx(small_circle(e0=1.0))
    sol2 = solve_ctx(small_circle(e0=2.0))
    assert np.array_equal(sol2.J, 2.0 * sol1.J)


def test_determinism(solve_ctx):
    a = solve_ctx(small_circle())
    b = solve_ctx(small_circle())
    assert np.array_equal(a.J, b.J)


def test_size_cap(solve_ctx, monkeypatch):
    monkeypatch.setattr(operators, "_DENSE_CAP", 10)
    with pytest.raises(SizeCap):
        solve_ctx(small_circle(), method="direct")


def _no_dense(*args, **kwargs):
    raise AssertionError("the solve took the dense path")


def test_default_solve_is_matrix_free(solve_ctx, monkeypatch):
    # the default method solves by GMRES alone and matches the direct solve
    tol = 1e-8
    direct = solve_ctx(small_circle(), method="direct", tol=tol)
    monkeypatch.setattr(gs.operators, "assemble_dense", _no_dense)
    monkeypatch.setattr(solver, "assemble_dense", _no_dense)
    monkeypatch.setattr(scipy.linalg, "lu_factor", _no_dense)
    default = solve_ctx(small_circle())
    assert (np.linalg.norm(default.J - direct.J)
            / np.linalg.norm(direct.J)) <= 10 * tol
    assert default.residual_norm <= tol
    assert default.factored_unknowns == 0
    assert default.condition_estimate is None
    assert 0 < len(default.gmres_residuals) <= default.iterations
    assert direct.gmres_residuals == []


def test_gmres_matvec_budget(solve_ctx, monkeypatch):
    # _MAX_ITER bounds matvecs, not restart cycles: an unreachable tolerance
    # ends in NonConvergence after at most the budget
    calls = []
    green_apply = solver.green_apply

    def counting(c, op):
        calls.append(1)
        return green_apply(c, op)

    monkeypatch.setattr(solver, "_MAX_ITER", 7)
    monkeypatch.setattr(solver, "green_apply", counting)
    with pytest.raises(NonConvergence) as info:
        solve_ctx(small_circle(), method="iterative", tol=1e-300)
    assert 0 < len(calls) <= 7
    # the error carries the matvecs spent and the residual history
    assert info.value.matvecs == len(calls)
    assert 0 < len(info.value.residuals) <= info.value.matvecs
    assert all(r > 0 for r in info.value.residuals)


def test_gmres_budget_below_one_cycle(solve_ctx, monkeypatch):
    # a budget of 1 leaves no room for a cycle (one matvec plus its true
    # residual): NonConvergence with nothing spent, not an error from the loop
    monkeypatch.setattr(solver, "_MAX_ITER", 1)
    with pytest.raises(NonConvergence) as info:
        solve_ctx(small_circle(), method="iterative")
    assert info.value.matvecs == 0
    assert info.value.residuals == []


def _no_gmres(*args, **kwargs):
    raise AssertionError("GMRES started")


def test_gmres_memory_estimate_before_allocation(op_small, scene_small_circle,
                                                 monkeypatch):
    # the Krylov basis, n (restart + 1) complex entries with restart 199 at
    # _MAX_ITER 2000, plus the operator's FFT workspace: one byte over the
    # memory reading is refused before GMRES starts, an exact fit solves
    n = int(np.prod(gs.coeff_shape(op_small.fp, op_small.zg)))
    need = (n * 200 * 16 + op_small.spectrum.nbytes
            + op_small.product.nbytes)
    monkeypatch.setattr("gaborscat.errors._physical_memory",
                        lambda: need - 1)
    with monkeypatch.context() as m:
        m.setattr(solver, "_restarted_gmres", _no_gmres)
        with pytest.raises(SizeCap, match="GMRES"):
            gs.solve(scene_small_circle, op_small)
    monkeypatch.setattr("gaborscat.errors._physical_memory", lambda: need)
    assert gs.solve(scene_small_circle, op_small).iterations > 0


def _scipy_gmres(matvec, b, rtol, restart, cycles):
    """scipy.sparse.linalg.gmres, the reference the package's GMRES is
    ported from: (x, info, matvecs, pr_norm history)."""
    calls, history = [], []

    def counted(v):
        calls.append(1)
        return matvec(v)

    lin = scipy.sparse.linalg.LinearOperator((b.size, b.size), matvec=counted,
                                             dtype=complex)
    x, info = scipy.sparse.linalg.gmres(
        lin, b, rtol=rtol, atol=0.0, maxiter=cycles, restart=restart,
        callback=history.append, callback_type="pr_norm")
    return x, info, len(calls), history


def test_gmres_restarts_match_scipy_reference(op_small, scene_small_circle):
    # on the small operator in restart cycles of 4 steps (the gh-8400 inner
    # tolerance control at work): the same matvecs, the same residual
    # estimates and the same solution as scipy's gmres
    tol, restart = 1e-8, 4
    shape = gs.coeff_shape(op_small.fp, op_small.zg)
    b = gs.project_source(scene_small_circle, op_small.zg, op_small.grid,
                          op_small.chi_slices,
                          op_small.analysis_matrix).reshape(-1)

    def matvec(v):
        c = v.reshape(shape)
        return (c - gs.contrast_multiply(gs.green_apply(c, op_small),
                                         op_small)).reshape(-1)

    calls = []

    def counted(v):
        calls.append(1)
        return matvec(v)

    def residual(x):
        calls.append(1)
        return b - matvec(x)

    ref, info, ref_matvecs, ref_history = _scipy_gmres(matvec, b, tol / 10,
                                                       restart, 40)
    x, r_norm, history, converged = solver._restarted_gmres(
        counted, residual, b, tol / 10, restart, 40)
    assert info == 0 and converged
    assert len(calls) == ref_matvecs
    assert len(history) == len(ref_history) > restart
    assert np.abs(np.array(history) - ref_history).max() <= 1e-10
    assert np.linalg.norm(x - ref) <= 10 * tol * np.linalg.norm(ref)
    assert r_norm == pytest.approx(np.linalg.norm(b - matvec(x)), rel=1e-6)
    assert r_norm <= tol / 10 * np.linalg.norm(b)


def test_gmres_solve_matches_scipy_reference(op_small, scene_small_circle):
    # the solve's GMRES, its true residual through forward_residual, against
    # scipy's with the same restart split of the matvec budget
    tol = 1e-8
    shape = gs.coeff_shape(op_small.fp, op_small.zg)
    sol = gs.solve(scene_small_circle, op_small, tol=tol)
    b = sol.J_inc.reshape(-1)

    def matvec(v):
        c = v.reshape(shape)
        return (c - gs.contrast_multiply(gs.green_apply(c, op_small),
                                         op_small)).reshape(-1)

    cycles = -(-solver._MAX_ITER // (solver._RESTART + 1))
    ref, info, ref_matvecs, ref_history = _scipy_gmres(
        matvec, b, tol / 10, solver._MAX_ITER // cycles - 1, cycles)
    assert info == 0
    assert sol.iterations == ref_matvecs
    assert np.abs(np.array(sol.gmres_residuals) - ref_history).max() <= 1e-10
    assert np.linalg.norm(sol.J.reshape(-1) - ref) <= \
        10 * tol * np.linalg.norm(ref)
    residual = gs.forward_residual(sol.J, sol.J_inc, op_small)
    assert sol.residual_norm == \
        np.linalg.norm(residual) / np.linalg.norm(sol.J_inc)


def test_gmres_breakdown_matches_scipy_reference():
    # a Krylov space that holds the solution after one step ends the cycle
    # at once (the breakdown branch), as scipy's does
    a = 2.0 * np.eye(6, dtype=complex)
    b = np.arange(1, 7) * (1 + 1j)
    ref, info, ref_matvecs, ref_history = _scipy_gmres(
        lambda v: a @ v, b, 1e-10, 5, 3)
    calls = []

    def counted(v):
        calls.append(1)
        return a @ v

    x, r_norm, history, converged = solver._restarted_gmres(
        counted, lambda x: b - counted(x), b, 1e-10, 5, 3)
    assert info == 0 and converged
    assert len(calls) == ref_matvecs == 2
    assert history == ref_history
    assert np.array_equal(x, ref)
    assert np.allclose(x, b / 2, rtol=1e-15, atol=0)


def test_synthesize_points_matches_pointwise_loop(solve_ctx):
    sol = solve_ctx(small_circle())
    rng = np.random.default_rng(9)
    xs = rng.uniform(-1.0, 1.0, 40)
    zs = rng.uniform(-0.3, 0.3, 40)
    loop = np.array([gs.synthesize_field(sol, np.array([x]), np.array([z]))[0, 0]
                     for x, z in zip(xs, zs)])
    got = gs.synthesize_points(sol, xs, zs)
    assert np.abs(got - loop).max() <= 1e-13 * np.abs(loop).max()


def test_synthesize_field_selectors(solve_ctx, fp_small, zg_small):
    sol = solve_ctx(small_circle())
    xs = np.linspace(-1.0, 1.0, 21)
    zs = zg_small.nodes[3:9]
    total = gs.synthesize_field(sol, xs, zs, which="chiE_total")
    inc = gs.synthesize_field(sol, xs, zs, which="chiE_inc")
    scat = gs.synthesize_field(sol, xs, zs, which="chiE_s")
    assert total.shape == (len(zs), len(xs))
    assert np.allclose(total - inc, scat)


def test_scattered_field_zero_for_zero_contrast(solve_ctx, zg_small):
    sol = solve_ctx(small_circle(eps_r=1.0))
    xs = np.linspace(-1.0, 1.0, 11)
    field = gs.synthesize_field(sol, xs, zg_small.nodes, which="chiE_s")
    assert np.abs(field).max() < 1e-14


def test_contrast_source_vanishes_outside_support(solve_ctx, fp_small,
                                                  zg_small):
    # chi E^s synthesized beyond the object support decays below 1e-2 of peak
    sol = solve_ctx(small_circle())
    xs = np.linspace(-2.5, 2.5, 201)
    field = gs.synthesize_field(sol, xs, zg_small.nodes, which="chiE_s")
    peak = np.abs(field).max()
    outside = np.abs(xs) > 0.45 + 2 * fp_small.X
    assert np.abs(field[:, outside]).max() < 1e-2 * peak


def test_solve_projects_source_with_the_operator_matrix(
        op_small, scene_small_circle, fp_small, zg_small, dual_small,
        monkeypatch):
    # J_inc comes from op.analysis_matrix, bit-identical to analyze() on the
    # operator grid, and the solve forms no frame matrix of its own
    s, grid = scene_small_circle, op_small.grid
    fields = np.array([gs.contrast_at(grid, z, s) * gs.incident_field(grid, z, s)
                       for z in zg_small.nodes]).T
    expect = analyze(fields, grid, dual_small, fp_small)

    def no_frame_matrix(*args, **kwargs):
        raise AssertionError("solve formed a frame matrix")

    monkeypatch.setattr("gaborscat.frame.frame_matrix", no_frame_matrix)
    for method in ("direct", "iterative"):
        sol = gs.solve(s, op_small, method=method)
        assert np.array_equal(sol.J_inc, expect)
