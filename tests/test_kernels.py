import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaborscat as gs
from gaborscat.errors import DomainError, OverflowGuard

from .conftest import RT23
from .oracles import (erf_complex, erf_maclaurin, h_z_spatial, h_z_spectral,
                      half_triangle_integral, kx_integral, xx_double_integral)

K0 = 1.45


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
    got = gs.erf_diff(a, b)
    from scipy.special import erfc
    expect = erfc(a) - erfc(b)
    assert got == pytest.approx(expect, rel=1e-13)
    assert gs.erf_diff(-b, -a) == pytest.approx(expect, rel=1e-13)
    # and on the 45-degree ray (path arguments): against mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    za, zb = (1 + 1j) * 6.0, (1 + 1j) * 6.6
    expect = complex(mp.erf(zb) - mp.erf(za))
    assert abs(gs.erf_diff(za, zb) - expect) < 1e-13 * abs(expect)


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
    assert gs.f_spectral(2, 1, zeta, fp) == gs.f_spectral(-2, -1, zeta, fp)
    assert gs.f_spectral(0, 0, 0.0, fp) == pytest.approx(1 / (2 * np.sqrt(2)))


def test_f_spectral_reduction_matches_kx_integral(fp, split):
    cases = [(0, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0), (1, 2, -1, 0, 2, 1)]
    for (n, m, t, s, u, v) in cases:
        for zeta in (1 / split, 2 / split):
            q, p = s + v - m, n + t + u
            closed = (2 ** 1.5 * fp.X ** 2 * fp.K
                      * np.exp(-2j * np.pi * fp.alpha * fp.beta * t * v)
                      * np.exp(-np.pi / 2 * fp.beta ** 2 * (n - t - u) ** 2)
                      * gs.f_spectral(q, p, zeta, fp))
            oracle = kx_integral(n, m, t, s, u, v, zeta, fp)
            assert abs(closed - oracle) / abs(oracle) < 1e-8


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
            got = gs.g_z_spectral(d, zeta, zg)
            assert abs(got - oracle) <= 1e-10 * max(abs(oracle), 1e-8)


def test_g_spectral_large_zeta_asymptote(zg, split):
    w = 100.0 / split
    zeta = complex(gs.zeta_path(w, split))
    for d in (-1, 0, 3):
        assert abs(gs.g_z_spectral(d, zeta, zg) - zg.delta / 2) \
            < 0.02 * zg.delta / 2


def test_g_spectral_small_zeta_limit(zg):
    # Gaussian collapses to a point mass at the apex: leading term (sqrt(pi)/2) zeta
    zeta = 1e-3 * zg.delta
    got = gs.g_z_spectral(0, zeta, zg)
    assert abs(got - np.sqrt(np.pi) / 2 * zeta) < 1e-2 * abs(got)
    assert abs(got) <= 1e-3 * zg.delta


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
        gs.g_z_spectral(0, zeta, zg))
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
