"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` for the one-line-per-criterion
report (a summary table also prints at session end).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import gaborscat as gs
from gaborscat.cli import main as cli_main

from .conftest import RT23
from .oracles import (analyze, f_on_contour, g_on_contour,
                      half_triangle_integral, kx_integral,
                      spectral_frame_element, unit_source_field,
                      xx_double_integral)

RESULTS: list[tuple[str, bool, str]] = []


def report(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    RESULTS.append((name, ok, detail))
    assert ok, line


pytestmark = pytest.mark.acceptance

TABLE1_K0 = (0.8388, 1.45, 1.5)
DELTA = 0.05


# ---------------------------------------------------------------------------
def test_criterion_1_split_identity():
    t0 = time.perf_counter()
    worst = 0.0
    k0r = np.logspace(-3, np.log10(30.0), 30)
    for k0 in TABLE1_K0:
        split = gs.optimal_split(k0, DELTA)
        errs = gs.split_identity_error(k0, k0r / k0, split)
        worst = max(worst, float(errs.max()))
    elapsed = time.perf_counter() - t0
    report("criterion 1 (Ewald split identity)",
           worst <= 1e-8 and elapsed < 10.0,
           f"worst rel {worst:.2e} (<=1e-8), {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
def test_criterion_2_kernel_reduction_oracles():
    t0 = time.perf_counter()
    fp = gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=3, N=2)
    zg = gs.ZGrid(z_min=-0.3, delta=DELTA, n_k=12)
    split = gs.optimal_split(1.45, DELTA)
    rng = np.random.default_rng(2024)
    worst = {"f_spatial": 0.0, "g_spatial": 0.0, "f_spectral": 0.0,
             "g_spectral": 0.0}

    # tuples are rejection-sampled so the compared value stays well above the
    # quadrature oracle's absolute noise floor (~1e-12); the 1e-8 relative
    # bound is only meaningful there
    accepted = 0
    while accepted < 50:
        m, s = rng.integers(-2, 3, 2)
        u = int(rng.integers(-2, 3))
        n, t = rng.integers(-2, 3, 2)
        v = int(n - t + rng.integers(-2, 3))        # keep |v+t-n| <= 2
        xi = split * (1 + 2 * rng.random())
        closed = (2 * np.sqrt(np.pi) * fp.X ** 2
                  * np.exp(2j * np.pi * fp.alpha * fp.beta
                           * (s * v + m * n - (s + u) * (t + v)))
                  * np.exp(-np.pi / 2 * fp.beta ** 2 * (v + t - n) ** 2)
                  * gs.f_spatial(m - s - u, n + t + v, xi, fp))
        if abs(closed) < 1e-4:
            continue
        accepted += 1
        oracle = xx_double_integral(m, n, s, t, u, v, xi, fp, half_width=3.5)
        worst["f_spatial"] = max(worst["f_spatial"],
                                 abs(closed - oracle) / abs(oracle))

    for _ in range(50):
        d = int(rng.integers(-4, 5))
        xi = split * (1 + 2 * rng.random())
        oracle = half_triangle_integral(d, xi * xi, zg.delta)
        got = gs.g_z_spatial(d, xi, zg)
        worst["g_spatial"] = max(worst["g_spatial"],
                                 abs(got - oracle) / max(abs(oracle), 1e-12))

    accepted = 0
    while accepted < 50:
        n, m = rng.integers(-2, 3, 2)
        t, s = rng.integers(-2, 3, 2)
        u = int(n - t + rng.integers(-2, 3))        # keep |n-t-u| <= 2
        v = int(rng.integers(-2, 3))
        w = (1 + 3 * rng.random()) / split
        zeta = complex(gs.zeta_path(w, split))
        closed = (2 ** 1.5 * fp.X ** 2 * fp.K
                  * np.exp(-2j * np.pi * fp.alpha * fp.beta * t * v)
                  * np.exp(-np.pi / 2 * fp.beta ** 2 * (n - t - u) ** 2)
                  * f_on_contour(s + v - m, n + t + u, zeta, fp))
        if abs(closed) < 1e-3:
            continue
        accepted += 1
        oracle = kx_integral(n, m, t, s, u, v, zeta, fp)
        worst["f_spectral"] = max(worst["f_spectral"],
                                  abs(closed - oracle) / abs(oracle))

    for _ in range(50):
        d = int(rng.integers(-4, 5))
        w = (1 + 3 * rng.random()) / split
        zeta = complex(gs.zeta_path(w, split))
        oracle = half_triangle_integral(d, 1 / (zeta * zeta), zg.delta)
        got = g_on_contour(d, zeta, zg)
        worst["g_spectral"] = max(worst["g_spectral"],
                                  abs(got - oracle) / max(abs(oracle), 1e-12))

    elapsed = time.perf_counter() - t0
    worst_all = max(worst.values())
    report("criterion 2 (kernel reductions vs quadrature)",
           worst_all <= 1e-8 and elapsed < 60.0,
           f"worst rel {worst_all:.2e} (<=1e-8) over 4x50 tuples, "
           f"{elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
def test_criterion_3_unit_source_end_to_end():
    t0 = time.perf_counter()
    k0 = 1.45
    fp = gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=5, N=5)
    zg = gs.ZGrid(z_min=-0.5, delta=DELTA, n_k=20)
    cfg = gs.EwaldConfig(split=gs.optimal_split(k0, DELTA), k0=k0)
    xs, eta = gs.zak_dual_window(fp)
    dw = gs.fit_dual_coeffs(eta, xs, 3, 4, fp)
    tables = gs.load_or_build(None, fp, zg, cfg, dw.n_u, dw.n_v)[:2]
    op = gs.build_operator(None, dw, *tables)
    k_mid = zg.n_k // 2
    coeffs = np.zeros(gs.coeff_shape(fp, zg), dtype=complex)
    coeffs[fp.M, fp.N, k_mid] = 1.0
    out = gs.green_apply(coeffs, op)

    xs_p = np.linspace(-1.0, 1.0, 20)
    zi_p = np.arange(20)
    green = lambda r: gs.green_exact(r, k0)
    got = np.empty((20, 20), dtype=complex)
    ref = np.empty((20, 20), dtype=complex)
    for j, zi in enumerate(zi_p):
        vals = gs.synthesize(out[:, :, zi][:, :, None], xs_p, fp)
        got[:, j] = vals[:, 0]
        for i, x in enumerate(xs_p):
            ref[i, j] = k0 * k0 * unit_source_field(
                x, zg.nodes[zi], 0, 0, k_mid, green, fp, zg)
    rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    elapsed = time.perf_counter() - t0
    report("criterion 3 (unit-source brute force, 20x20 probes)",
           rel <= 1e-3 and elapsed < 300.0,
           f"rel L2 {rel:.2e} (<=1e-3), {elapsed:.0f}s (<300s)")


# ---------------------------------------------------------------------------
def test_criterion_4_asymptotic_envelopes():
    t0 = time.perf_counter()
    fp = gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=3, N=2)
    zg = gs.ZGrid(z_min=-0.3, delta=DELTA, n_k=12)
    k0 = 1.45
    e = gs.optimal_split(k0, DELTA)
    xi = 50.0 * e
    worst = 0.0
    for q, p in [(0, 0), (1, 1), (2, -1)]:
        base = np.exp(k0 * k0 / (4 * xi * xi)) / xi \
            * gs.f_spatial(q, p, xi, fp)
        for d, envelope in [
                (-1, 1 / (4 * fp.X * zg.delta * xi ** 4)),
                (0, np.sqrt(np.pi) / (4 * fp.X * xi ** 3)),
                (1, np.exp(-zg.delta ** 2 * xi * xi)
                 / (4 * fp.X * zg.delta * xi ** 4))]:
            got = abs(base * gs.g_z_spatial(d, xi, zg))
            expect = envelope * np.exp(-np.pi * fp.alpha ** 2 * q * q / 2)
            worst = max(worst, abs(got / expect - 1))
    w = 50.0 * (2 / e)
    zeta = complex(gs.zeta_path(w, e))
    dz = complex(gs.zeta_path_derivative(w, e))
    for q, p in [(0, 0), (1, 1), (3, 2)]:
        for d in (-1, 0, 1):
            got = abs(np.exp(k0 * k0 * zeta * zeta / 4)
                      * f_on_contour(q, p, zeta, fp)
                      * g_on_contour(d, zeta, zg) * dz)
            expect = (abs(np.sqrt(2 * np.pi) * zg.delta * (1 - 1j))
                      / (4 * fp.K * w) * np.exp(-np.pi / 2 * fp.beta ** 2 * p * p))
            worst = max(worst, abs(got / expect - 1))
    elapsed = time.perf_counter() - t0
    report("criterion 4 (asymptotic envelopes at 50x onset)",
           worst <= 0.10 and elapsed < 5.0,
           f"worst deviation {worst:.3f} (<=0.10), {elapsed:.1f}s (<5s)")


# ---------------------------------------------------------------------------
def test_criterion_5_split_balance_and_invariance():
    t0 = time.perf_counter()
    worst_balance = 0.0
    for k0 in TABLE1_K0:
        e = gs.optimal_split(k0, DELTA)
        worst_balance = max(worst_balance,
                            abs(DELTA ** 2 * e ** 2 - k0 * k0 / (2 * e * e)))
    worst_id = 0.0
    k0r = np.logspace(-3, np.log10(30.0), 10)
    for k0 in (1.45,):
        e_star = gs.optimal_split(k0, DELTA)
        for factor in (0.5, 2.0):
            errs = gs.split_identity_error(k0, k0r / k0, factor * e_star)
            worst_id = max(worst_id, float(errs.max()))
    elapsed = time.perf_counter() - t0
    report("criterion 5 (balance equation and split invariance)",
           worst_balance <= 1e-12 and worst_id <= 1e-8,
           f"balance {worst_balance:.1e} (<=1e-12), identity at E*/2, 2E* "
           f"{worst_id:.2e} (<=1e-8), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
def test_criterion_6_full_solve_vs_mom():
    t0 = time.perf_counter()
    results = []

    fp = gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=6, N=3)
    zg = gs.ZGrid.from_bounds(-1.4, 1.4, DELTA)
    cfg = gs.EwaldConfig(split=gs.optimal_split(1.45, DELTA), k0=1.45)
    xs, eta = gs.zak_dual_window(fp)
    dw = gs.fit_dual_coeffs(eta, xs, 2, 3, fp)
    tables = gs.load_or_build(None, fp, zg, cfg, dw.n_u, dw.n_v)[:2]
    scene = gs.Scene(shape=gs.Circle(radius=1.35), eps_r=2.0, k0=1.45,
                     theta=0.0)
    gs.validate_scene(scene, fp, zg)
    sol = gs.solve(scene, gs.build_operator(scene, dw, *tables))
    mom = gs.mom_solve(scene, gs.MoMConfig())          # cell = lambda/20
    series = gs.cylinder_reference_field(mom.x, mom.z, scene, which="scattered")
    inside = gs.interior_mask(mom)
    mom_err = (np.linalg.norm((mom.e_scattered - series)[inside])
               / np.linalg.norm(series[inside]))
    main = np.array([gs.synthesize_field(sol, np.array([x]), np.array([z]))[0, 0]
                     for x, z in zip(mom.x, mom.z)])
    metrics = gs.compare_fields(main, scene.chi * mom.e_scattered, inside)
    results.append(("circle", metrics["rel_l2"], mom_err))

    k0 = 0.8388
    fp = gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=6, N=3)
    zg = gs.ZGrid.from_bounds(-1.4, 1.4, DELTA)
    cfg = gs.EwaldConfig(split=gs.optimal_split(k0, DELTA), k0=k0)
    xs, eta = gs.zak_dual_window(fp)
    dw = gs.fit_dual_coeffs(eta, xs, 2, 3, fp)
    tables = gs.load_or_build(None, fp, zg, cfg, dw.n_u, dw.n_v)[:2]
    rect = gs.Scene(shape=gs.Rectangle(width=5.0, height=2.0), eps_r=2.0,
                    k0=k0, theta=np.pi / 2)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sol_r = gs.solve(rect, gs.build_operator(rect, dw, *tables))
    mom_r = gs.mom_solve(rect, gs.MoMConfig())
    inside_r = gs.interior_mask(mom_r)
    main_r = np.array([gs.synthesize_field(sol_r, np.array([x]),
                                           np.array([z]))[0, 0]
                       for x, z in zip(mom_r.x, mom_r.z)])
    m_r = gs.compare_fields(main_r, rect.chi * mom_r.e_scattered, inside_r)
    results.append(("rectangle", m_r["rel_l2"], None))

    elapsed = time.perf_counter() - t0
    circle_rel, mom_vs_series = results[0][1], results[0][2]
    rect_rel = results[1][1]
    ok = (circle_rel <= 0.05 and rect_rel <= 0.05 and mom_vs_series <= 0.01
          and elapsed < 900.0)
    report("criterion 6 (full solve vs MoM oracle)", ok,
           f"circle {circle_rel:.4f}, rectangle {rect_rel:.4f} (<=0.05), "
           f"MoM-vs-series {mom_vs_series:.4f} (<=0.01), {elapsed:.0f}s (<900s)")


# ---------------------------------------------------------------------------
def test_criterion_7_table_cache_reuse(tmp_path):
    t0 = time.perf_counter()
    cfg = json.loads((Path(__file__).resolve().parents[1]
                      / "configs" / "circle.json").read_text())
    cfg["output"]["out_dir"] = str(tmp_path / "out")
    cfg["cache"]["dir"] = str(tmp_path / "cache")
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(cfg))

    assert cli_main(["solve", str(path)]) == 0
    field1 = (tmp_path / "out" / "field.csv").read_bytes()
    metrics1 = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert cli_main(["solve", str(path)]) == 0
    field2 = (tmp_path / "out" / "field.csv").read_bytes()
    metrics2 = json.loads((tmp_path / "out" / "metrics.json").read_text())
    elapsed = time.perf_counter() - t0
    ok = (field1 == field2 and metrics1["table_cache_hit"] is False
          and metrics2["table_cache_hit"] is True
          and metrics2["wall_time_setup"] < metrics1["wall_time_setup"])
    report("criterion 7 (warm-cache byte-identical rerun)", ok,
           f"csv identical={field1 == field2}, cache hit flagged, "
           f"setup {metrics1['wall_time_setup']:.1f}s -> "
           f"{metrics2['wall_time_setup']:.1f}s, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
def test_criterion_8_property_suite(fp_small, zg_small, dual_small,
                                    tables_small):
    t0 = time.perf_counter()
    checks = {}

    # frame round-trip <= 1e-3
    fp = gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=10, N=8)
    xs, eta = gs.zak_dual_window(fp)
    dw = gs.fit_dual_coeffs(eta, xs, 3, 4, fp)
    grid = gs.analysis_grid(fp)
    c = np.zeros((2 * fp.M + 1, 2 * fp.N + 1), dtype=complex)
    c[fp.M, fp.N] = 1.0
    c[fp.M - 1, fp.N + 1] = 0.5 - 0.25j
    f = gs.synthesize(c, grid, fp)
    rec = gs.synthesize(analyze(f, grid, dw, fp), grid, fp)
    inner = np.abs(grid) < 3 * fp.alpha * fp.X
    checks["round-trip"] = (np.linalg.norm((rec - f)[inner])
                            / np.linalg.norm(f[inner]), 1e-3)

    # Fourier-duality phase rule <= 1e-8
    h = fp.X / 64
    xg = np.arange(-2 ** 12, 2 ** 12) * h
    m, n = 1, -2
    vals = gs.frame_matrix(xg, [m], [n], fp)[..., 0]
    kxs = np.linspace(-3 * fp.K, 3 * fp.K, 201)
    ft = h * np.exp(-1j * np.outer(kxs, xg)) @ vals
    expect = (np.exp(2j * np.pi * fp.alpha * fp.beta * m * n)
              * spectral_frame_element(kxs, n, m, fp))
    checks["duality"] = (np.linalg.norm(ft - expect)
                         / np.linalg.norm(expect), 1e-8)

    # operator linearity and zero-contrast identity (exact)
    op0 = gs.build_operator(None, dual_small, *tables_small)
    rng = np.random.default_rng(77)
    shape = gs.coeff_shape(fp_small, zg_small)
    j1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    j2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lin = np.abs(gs.green_apply(j1 + 2j * j2, op0)
                 - gs.green_apply(j1, op0) - 2j * gs.green_apply(j2, op0)).max()
    checks["linearity"] = (lin / np.abs(gs.green_apply(j1, op0)).max(), 1e-12)
    checks["zero-contrast"] = (
        float(np.abs(gs.forward_residual(j1, j1, op0)).max()), 1e-15)

    # Born limit <= 1e-4
    weak = gs.Scene(shape=gs.Circle(radius=0.45), eps_r=1.0 + 1e-6, k0=1.45,
                    theta=0.0)
    op_w = gs.build_operator(weak, dual_small, *tables_small)
    sol = gs.solve(weak, op_w)
    born = gs.contrast_multiply(gs.green_apply(sol.J_inc, op_w), op_w)
    checks["born"] = (np.linalg.norm(sol.J - sol.J_inc - born)
                      / np.linalg.norm(born), 1e-4)

    # kernel-table (q,p) -> (-q,-p) symmetry <= 1e-12
    sym = max(np.abs(t.data - t.data[::-1, ::-1, :]).max()
              / np.abs(t.data).max() for t in tables_small)
    checks["table-symmetry"] = (sym, 1e-12)

    elapsed = time.perf_counter() - t0
    ok = all(v <= tol for v, tol in checks.values()) and elapsed < 300.0
    detail = ", ".join(f"{k} {v:.2e}(<= {tol:.0e})"
                       for k, (v, tol) in checks.items())
    report("criterion 8 (property suite)", ok, f"{detail}, {elapsed:.0f}s")
