from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import gaborscat as gs
from gaborscat import tables
from gaborscat.cli import parse_config
from gaborscat.errors import DomainError
from gaborscat.green import spatial_rule, spectral_rule

from .conftest import RT23
from gaborscat.quadrature import panel_nodes, subdivided_panels, tail_path

from .oracles import (OverflowGuard, erf_complex, erf_diff, erf_maclaurin,
                      f_on_contour, f_spectral, g_on_contour, g_z_spatial_per_d,
                      g_z_spectral, g_z_spectral_per_d, h_z_spatial,
                      h_z_spectral, half_triangle_integral, kx_integral,
                      oscillatory_tail_bounds, xx_double_integral)

K0 = 1.45
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def fp():
    return gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=3, N=2)


@pytest.fixture(scope="module")
def zg():
    return gs.ZGrid(z_min=-0.3, delta=0.05, n_k=12)


@pytest.fixture(scope="module")
def split():
    return gs.optimal_split(K0, 0.05)


# ---------------------------------------------------------------------------
# ZGrid

def test_zgrid_bounds():
    zg = gs.ZGrid.from_bounds(-1.4, 1.4, 0.05)
    assert zg.n_k == 56
    assert zg.z_max == pytest.approx(1.4)
    with pytest.raises(DomainError):
        gs.ZGrid.from_bounds(-1.4, 1.4, 0.043)
    with pytest.raises(DomainError):
        gs.ZGrid(z_min=0.0, delta=-0.1, n_k=5)


# ---------------------------------------------------------------------------
# complex error function

def test_erf_zero_and_real_axis():
    assert erf_complex(0.0) == 0.0
    z = erf_complex(np.array([0.5, 1.0, 2.0]))
    assert np.all(np.abs(z.imag) < 1e-15)


def test_erf_matches_maclaurin():
    assert abs(erf_complex(1.0) - erf_maclaurin(1.0)) < 1e-12
    for z in (0.3 + 0.4j, -0.8 + 0.2j, 0.9 - 0.9j):
        assert abs(erf_complex(z) - erf_maclaurin(z, terms=25)) < 1e-12


@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_erf_odd_symmetry(z):
    assert erf_complex(-z) == pytest.approx(-erf_complex(z), abs=1e-13)


def test_erf_overflow_guard():
    with pytest.raises(OverflowGuard):
        erf_complex(1.0 + 28j)


def test_erf_diff_stable_in_saturated_tail(zg):
    # naive erf(b) - erf(a) collapses to 0 for large real arguments
    a, b = 8.0, 8.4
    got = erf_diff(a, b)
    from scipy.special import erfc
    expect = erfc(a) - erfc(b)
    assert got == pytest.approx(expect, rel=1e-13)
    assert erf_diff(-b, -a) == pytest.approx(expect, rel=1e-13)
    # and on the 45-degree ray (path arguments): against mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    za, zb = (1 + 1j) * 6.0, (1 + 1j) * 6.6
    expect = complex(mp.erf(zb) - mp.erf(za))
    assert abs(erf_diff(za, zb) - expect) < 1e-13 * abs(expect)


# ---------------------------------------------------------------------------
# x-side kernels against the defining double integrals

def test_f_spatial_even_in_qp(fp, split):
    xi = np.array([split, 2.3 * split])
    for q, p in [(1, 2), (3, -1), (-2, 0)]:
        a = gs.f_spatial(q, p, xi, fp)
        b = gs.f_spatial(-q, -p, xi, fp)
        assert np.array_equal(a, b)


def test_f_spatial_q0_p0_real(fp, split):
    got = gs.f_spatial(0, 0, split, fp)
    assert got == pytest.approx(1 / np.sqrt(4 * fp.X ** 2 * split ** 2 + 2 * np.pi))
    assert got.imag == 0


def test_f_spatial_reduction_matches_double_integral(fp, split):
    # the (u, v) term equality including prefactor, phases and decay factor;
    # (m,n,s,t,u,v) = (1,0,0,0,0,0) is the index set that pins the reduction
    cases = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, -1, 2, 1, 0, 0),
             (2, 1, -1, 0, 1, -2)]
    for (m, n, s, t, u, v) in cases:
        for xi in (split, 2.3 * split):
            q, p = m - s - u, n + t + v
            closed = (2 * np.sqrt(np.pi) * fp.X ** 2
                      * np.exp(2j * np.pi * fp.alpha * fp.beta
                               * (s * v + m * n - (s + u) * (t + v)))
                      * np.exp(-np.pi / 2 * fp.beta ** 2 * (v + t - n) ** 2)
                      * gs.f_spatial(q, p, xi, fp))
            oracle = xx_double_integral(m, n, s, t, u, v, xi, fp)
            assert abs(closed - oracle) / abs(oracle) < 1e-8


def test_f_spectral_even_and_value(fp, split):
    zeta = (1 - 1j) / split
    assert f_on_contour(2, 1, zeta, fp) == f_on_contour(-2, -1, zeta, fp)
    # the zeta -> 0 limit, 1/(2 sqrt(2)), reached to rounding at zeta = 1e-8
    assert f_on_contour(0, 0, 1e-8, fp) == pytest.approx(1 / (2 * np.sqrt(2)))


def test_f_spectral_reduction_matches_kx_integral(fp, split):
    cases = [(0, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0), (1, 2, -1, 0, 2, 1)]
    for (n, m, t, s, u, v) in cases:
        for zeta in (1 / split, 2 / split):
            q, p = s + v - m, n + t + u
            closed = (2 ** 1.5 * fp.X ** 2 * fp.K
                      * np.exp(-2j * np.pi * fp.alpha * fp.beta * t * v)
                      * np.exp(-np.pi / 2 * fp.beta ** 2 * (n - t - u) ** 2)
                      * f_on_contour(q, p, zeta, fp))
            oracle = kx_integral(n, m, t, s, u, v, zeta, fp)
            assert abs(closed - oracle) / abs(oracle) < 1e-8


def test_contour_factors_match_kx_domain_forms(fp, zg, split):
    # the spectral table contracts f and g at xi = 1/zeta: on every head node,
    # on the real-axis tail nodes of the phase-block reference and on the
    # nodes of the deformed tail path, zeta = (1-j)w/2 off the axis,
    # X/(sqrt(2) zeta) f(-q, p, 1/zeta) is f~ and g(d, 1/zeta) is g~
    # (measured to 3.1e-14 and 5.5e-12 of their maxima; g's largest
    # difference is on the ray, where Re xi^2 < 0 and the erf terms grow)
    q_max, p_max = gs.index_bounds(fp, 2, 3)
    phase_coeff = (8 * np.pi ** 2 * (fp.beta ** 2 * p_max ** 2
                                     + fp.alpha ** 2 * q_max ** 2) / fp.K ** 2
                   + 2 * (zg.n_k + 1) ** 2 * zg.delta ** 2)
    head, _ = panel_nodes(np.linspace(1 / split, 2 / split, 25))
    zone_a, zone_b = oscillatory_tail_bounds(2 / split, K0, phase_coeff,
                                             n_blocks=16, w_cap=200 / split)
    w = np.concatenate([head, subdivided_panels(zone_a)[0],
                        subdivided_panels(zone_b)[0]])
    assert len(zone_a) > 1 and w.max() > 100 / split
    path, _ = tail_path(2 / split, K0, phase_coeff, 1)
    assert path.imag.max() > 0 > path.imag.min()
    zeta = np.concatenate([gs.zeta_path(w, split), (1 - 1j) / 2 * path])
    qg = np.arange(-q_max, q_max + 1)[:, None, None]
    pg = np.arange(-p_max, p_max + 1)[None, :, None]
    ds = np.arange(-zg.n_k, zg.n_k + 1)[:, None]
    for got, ref in [(f_on_contour(qg, pg, zeta, fp), f_spectral(qg, pg, zeta, fp)),
                     (g_on_contour(ds, zeta, zg), g_z_spectral(ds, zeta, zg))]:
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# z-side kernels

def test_g_spatial_small_xi_limit(zg):
    got = gs.g_z_spatial(0, 1e-4, zg)
    assert got == pytest.approx(zg.delta / 2, rel=1e-6)


def test_g_spatial_large_xi_asymptote(zg):
    # leading form sqrt(pi)/(2 xi); the next term is -1/(2 Delta xi^2), a
    # relative correction 1/(sqrt(pi) Delta xi) = 2.8e-2 at xi*Delta = 20
    xi = 20.0 / zg.delta
    got = gs.g_z_spatial(0, xi, zg)
    lead = np.sqrt(np.pi) / (2 * xi)
    deviation = abs(got - lead) / lead
    expected_correction = 1 / (np.sqrt(np.pi) * zg.delta * xi)
    assert deviation == pytest.approx(expected_correction, rel=0.05)
    xi = 60.0 / zg.delta
    assert abs(gs.g_z_spatial(0, xi, zg) - np.sqrt(np.pi) / (2 * xi)) \
        < 1e-2 * np.sqrt(np.pi) / (2 * xi)


def test_g_spatial_matches_quadrature(zg, split):
    for d in (-2, -1, 0, 1, 2):
        for xi in (split, 3 * split):
            oracle = half_triangle_integral(d, xi * xi, zg.delta)
            got = gs.g_z_spatial(d, xi, zg)
            assert abs(got - oracle) <= 1e-10 * max(abs(oracle), 1e-8)


def test_g_spectral_matches_quadrature(zg, split):
    for d in (-2, -1, 0, 1, 2):
        for zeta in (1 / split, (1 - 1j) / split, (1 - 1j) * 3 / split):
            oracle = half_triangle_integral(d, 1 / (zeta * zeta), zg.delta)
            got = g_on_contour(d, zeta, zg)
            assert abs(got - oracle) <= 1e-10 * max(abs(oracle), 1e-8)


def test_g_spectral_large_zeta_asymptote(zg, split):
    w = 100.0 / split
    zeta = complex(gs.zeta_path(w, split))
    for d in (-1, 0, 3):
        assert abs(g_on_contour(d, zeta, zg) - zg.delta / 2) \
            < 0.02 * zg.delta / 2


def test_g_spectral_small_zeta_limit(zg):
    # Gaussian collapses to a point mass at the apex: leading term (sqrt(pi)/2) zeta
    zeta = 1e-3 * zg.delta
    got = g_on_contour(0, zeta, zg)
    assert abs(got - np.sqrt(np.pi) / 2 * zeta) < 1e-2 * abs(got)
    assert abs(got) <= 1e-3 * zg.delta


def _rounding_scale(d, step, c_erf, c_gauss):
    """Summand sizes of c_erf*(erf b1 - erf b0) + c_gauss*(e^{-b1^2} - e^{-b0^2}),
    b0 = d*step and b1 = (d+1)*step, each boundary weighted by 1 + 2|b|^2
    (the relative condition of erf, erfc and exp at b).  In an interval
    saturated at both ends on one side the erf values are replaced by the
    erfc values that are differenced there, so the scale shrinks with them."""
    b0 = np.asarray(d * step, dtype=complex)
    b1 = np.asarray((d + 1) * step, dtype=complex)
    sat = (((b0.real >= 2) & (b1.real >= 2)) | ((b0.real <= -2) & (b1.real <= -2)))
    out = 0.0
    for b in (b0, b1):
        e = np.where(sat, special.erfc(np.where(b.real > 0, b, -b)), special.erf(b))
        out = out + (np.abs(c_erf) * np.abs(e) + np.abs(c_gauss)
                     * np.abs(np.exp(-b * b))) * (1 + 2 * np.abs(b) ** 2)
    return out


def _interval_kinds(d, step):
    """Which intervals (b0, b1) are saturated at both ends (+ or - side),
    at one end only, or at neither."""
    r0, r1 = (d * step).real, ((d + 1) * step).real
    pos0, pos1, neg0, neg1 = r0 >= 2, r1 >= 2, r0 <= -2, r1 <= -2
    return {"both_pos": pos0 & pos1, "both_neg": neg0 & neg1,
            "mixed": (pos0 ^ pos1) | (neg0 ^ neg1),
            "free": ~(pos0 | pos1 | neg0 | neg1)}


def test_g_z_full_range_matches_per_d_form(zg, split):
    # all of d = -n_k..n_k at once (each boundary evaluated once) against
    # erf_diff taken afresh per d, on steps that put both signs of d,
    # unsaturated, half-saturated and doubly saturated intervals in the range
    eps = np.finfo(float).eps
    ds = np.arange(-zg.n_k, zg.n_k + 1)[:, None]
    w = np.concatenate([np.linspace(1 / split, 2 / split, 9),
                        np.geomspace(2 / split, 200 / split, 12)])
    zeta = np.concatenate([gs.zeta_path(w, split),
                           [0.04, 0.05 * (1 - 1j), 0.1, 0.2 * (1 - 1j)]])[None, :]
    xi = np.geomspace(split, 28.0, 25)[None, :]
    cases = [(g_on_contour, g_z_spectral_per_d, zeta, zg.delta / zeta,
              np.sqrt(np.pi) * (ds + 1) / 2 * zeta, zeta * zeta / (2 * zg.delta)),
             (gs.g_z_spatial, g_z_spatial_per_d, xi, xi * zg.delta,
              (ds + 1) * np.sqrt(np.pi) / (2 * xi), 1 / (2 * zg.delta * xi * xi))]
    for new, per_d, x, step, c_erf, c_gauss in cases:
        kinds = _interval_kinds(ds, step)
        assert all(k.any() for k in kinds.values()), new.__name__
        got = new(ds, x, zg)
        ref = per_d(ds, x, zg)
        assert got.shape == ref.shape and np.all(ref != 0)
        scale = _rounding_scale(ds, step, c_erf, c_gauss)
        assert np.all(np.abs(got - ref) <= 4 * eps * scale), new.__name__
        # a scalar d (two boundaries) meets the same bound
        for i in (0, zg.n_k - 1, zg.n_k, 2 * zg.n_k):
            row = np.array([new(int(ds[i, 0]), v, zg) for v in x[0]])
            assert np.all(np.abs(row - ref[i]) <= 4 * eps * scale[i]), (new.__name__, i)


def test_g_spectral_large_w_matches_high_precision(split):
    # at w = 30 on the contour tail (zeta = 15(1 - j)) the two terms of
    # g(d, 1/zeta) cancel against zeta^2/(2 Delta); over the whole d range of
    # the circle grid it must agree with its exact value (dps 40) to a few roundings of
    # its largest summands
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eps = np.finfo(float).eps
    zg = gs.ZGrid(z_min=-1.4, delta=0.05, n_k=56)
    w = 30.0
    zeta = complex(gs.zeta_path(w, split))
    assert zeta == (1 - 1j) / 2 * w
    ds = np.arange(-zg.n_k, zg.n_k + 1)
    got = g_on_contour(ds, zeta, zg)
    z, dd = mp.mpc(zeta.real, zeta.imag), mp.mpf(1) / 20
    ref = np.array([complex(mp.sqrt(mp.pi) * (d + 1) / 2 * z
                            * (mp.erf((d + 1) * dd / z) - mp.erf(d * dd / z))
                            + z * z / (2 * dd) * (mp.exp(-((d + 1) * dd / z) ** 2)
                                                  - mp.exp(-(d * dd / z) ** 2)))
                    for d in map(int, ds)])
    scale = _rounding_scale(ds, zg.delta / zeta, np.sqrt(np.pi) * (ds + 1) / 2 * zeta,
                            zeta * zeta / (2 * zg.delta))
    assert np.all(np.abs(got - ref) <= 4 * eps * scale)


def _table_nodes(name, rng):
    """The z-grid of bundled config `name` and 9 of the nodes xi its cold
    table build evaluates g at: two at random from each of `spatial_rule`
    and `spectral_rule` at refine 1 and 2, and the spectral node farthest
    off the real axis."""
    rc = parse_config(CONFIGS / f"{name}.json")
    fp, zg, cfg = rc.fp, rc.zg, rc.ewald
    phase = tables.spectral_phase_coeff(fp, zg, rc.n_u, rc.n_v)
    picked = []
    for k in (1, 2):
        for xi in (spatial_rule(cfg, zg.delta, k)[0],
                   spectral_rule(cfg, phase, k)[0]):
            picked.append(rng.choice(xi, 2, replace=False))
    picked.append([xi[np.argmax(np.abs(np.angle(xi)))]])
    return zg, np.concatenate(picked).astype(complex)


def _switch_nodes(delta):
    """Nodes xi whose boundaries c = j*delta*xi lie a few roundings either
    side of the evaluator's switches |c| = 1 (j = 1, on the real axis and
    34 degrees off it) and Re c = 2 (j = 2, on and off the real axis)."""
    k = np.array([-3, 3]) * np.finfo(float).eps
    return np.concatenate([(1 + k) / delta, np.exp(-0.6j) * (1 + k) / delta,
                           (1 + k + 0.8j) / delta])


def _g_high_precision(ds, xi, delta):
    """g(d, xi) for each d of ds from its closed form in mpmath at the
    working precision.  erf(b_j), b_j = j*delta*xi, is rho_j erf(|j| s) with
    s = sigma*delta*xi, sigma = +-1 so that Re s >= 0, and rho_j =
    sigma*sign(j); where both ends of an interval lie on one side
    (rho_d = rho_{d+1} != 0) the erf difference is taken as the erfc
    difference, which does not cancel however small erfc is."""
    import mpmath as mp
    x, dd = mp.mpc(xi.real, xi.imag), mp.mpf(delta)
    sigma = 1 if xi.real >= 0 else -1
    t = [j * sigma * dd * x for j in range(int(np.abs(ds).max()) + 2)]
    erf, erfc = [mp.erf(v) for v in t], [mp.erfc(v) for v in t]
    gauss = [mp.exp(-v * v) for v in t]
    out = []
    for d in map(int, ds):
        r0, r1 = sigma * np.sign(d), sigma * np.sign(d + 1)
        if r0 == r1 != 0:
            bracket = r0 * (erfc[abs(d)] - erfc[abs(d + 1)])
        else:
            bracket = r1 * erf[abs(d + 1)] - r0 * erf[abs(d)]
        out.append(complex((d + 1) * mp.sqrt(mp.pi) / (2 * x) * bracket
                           + (gauss[abs(d + 1)] - gauss[abs(d)]) / (2 * dd * x * x)))
    return np.array(out)


def _assert_g_matches_high_precision(zg, xi, name):
    """g over every d of grid zg at nodes xi against its closed form at dps
    40: within 4 roundings of its largest summands; entries whose scale
    underflows come out below the normal range."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    ds = np.arange(-zg.n_k, zg.n_k + 1)[:, None]
    step = zg.delta * xi
    assert all(k.any() for k in _interval_kinds(ds, step).values()), name
    got = gs.g_z_spatial(ds, xi, zg)
    ref = np.stack([_g_high_precision(ds[:, 0], v, zg.delta) for v in xi], axis=1)
    scale = _rounding_scale(ds, step, (ds + 1) * np.sqrt(np.pi) / (2 * xi),
                            1 / (2 * zg.delta * xi * xi))
    normal = scale >= tiny
    assert np.all(np.isfinite(got)), name
    assert np.all(np.abs(got - ref)[normal] <= 4 * eps * scale[normal]), name
    assert np.all(np.abs(got[~normal]) < tiny), name


def test_numpy_erf_matches_mpmath_on_table_boundaries():
    # the numpy erf as the tables run it, checked through g: g over every d
    # of each bundled config on nodes of both table rules (up to 66 degrees
    # off the real axis), against its closed form at dps 40 (measured
    # 0.16-0.22 of the bound)
    rng = np.random.default_rng(21)
    steepest = 0.0
    for name in ("circle", "rectangle", "grating"):
        zg, xi = _table_nodes(name, rng)
        steepest = max(steepest, np.degrees(np.abs(np.angle(xi))).max())
        _assert_g_matches_high_precision(zg, xi, name)
    assert steepest > 60


def test_numpy_erf_matches_mpmath_on_real_axis():
    # g over every d of each bundled config on real nodes whose boundaries
    # c = j*delta*xi reach from |c| <= 1 to past where erfc leaves the
    # double range (c = 30), and on nodes that put boundaries either side of
    # the series switches, against its closed form at dps 40
    for name in ("circle", "rectangle", "grating"):
        zg = parse_config(CONFIGS / f"{name}.json").zg
        switch = _switch_nodes(zg.delta)
        c1, c2 = np.abs(zg.delta * switch), (2 * (zg.delta * switch)).real
        for c, at in ((c1, 1), (c2, 2)):
            near = c[np.abs(c - at) < 1e-14]
            assert (near < at).any() and (near > at).any(), (name, at)
        real = np.geomspace(1, 30, 4) / ((zg.n_k + 1) * zg.delta) + 0j
        _assert_g_matches_high_precision(zg, np.concatenate([real, switch]), name)


def test_h_boundary_cases(zg, split):
    xi = split
    interior = h_z_spatial(5, 5, xi, zg)
    assert interior == pytest.approx(2 * gs.g_z_spatial(0, xi, zg))
    assert h_z_spatial(0, 0, xi, zg) == pytest.approx(gs.g_z_spatial(0, xi, zg))
    assert h_z_spatial(zg.n_k, zg.n_k, xi, zg) == pytest.approx(
        gs.g_z_spatial(0, xi, zg))
    # interior symmetry h(k, l) == h(l, k)
    assert h_z_spatial(4, 6, xi, zg) == pytest.approx(h_z_spatial(6, 4, xi, zg))
    zeta = (1 - 1j) / split
    assert h_z_spectral(zg.n_k, zg.n_k, zeta, zg) == pytest.approx(
        g_on_contour(0, zeta, zg))
    assert h_z_spectral(3, 7, zeta, zg) == pytest.approx(
        h_z_spectral(7, 3, zeta, zg))


def test_h_small_xi_triangle_areas(zg):
    # interior k = l: full triangle area Delta; boundary: half
    assert h_z_spatial(5, 5, 1e-4, zg) == pytest.approx(zg.delta, rel=1e-6)
    assert h_z_spatial(0, 0, 1e-4, zg) == pytest.approx(zg.delta / 2, rel=1e-6)


def test_h_index_error(zg):
    with pytest.raises(IndexError):
        h_z_spatial(zg.n_k + 1, 0, 1.0, zg)
    with pytest.raises(IndexError):
        h_z_spectral(0, -1, 1.0, zg)


def test_triangle_interpolatory(zg):
    for k in (0, 3, zg.n_k):
        vals = gs.triangle_value(zg.nodes, k, zg)
        expect = np.zeros(zg.n_k + 1)
        expect[k] = 1.0
        assert np.allclose(vals, expect)


# ---------------------------------------------------------------------------
# randomized kernel-vs-integral property (smaller version of the acceptance run)

def test_randomized_kernel_oracle_sample(fp, zg, split):
    rng = np.random.default_rng(42)
    for _ in range(8):
        d = int(rng.integers(-3, 4))
        xi = split * (1 + 2 * rng.random())
        oracle = half_triangle_integral(d, xi * xi, zg.delta)
        assert abs(gs.g_z_spatial(d, xi, zg) - oracle) \
            <= 1e-8 * max(abs(oracle), 1e-10)
