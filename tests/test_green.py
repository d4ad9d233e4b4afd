import numpy as np
import pytest

import gaborscat as gs
from gaborscat.errors import DomainError

from .oracles import (J0_TABLE, Y0_TABLE, bessel_j0, bessel_y0,
                      green_spectral_phase_blocks, hankel2_0, xi_path)

K0 = 1.45
DELTA = 0.05


@pytest.fixture(scope="module")
def cfg():
    return gs.EwaldConfig(split=gs.optimal_split(K0, DELTA), k0=K0)


# ---------------------------------------------------------------------------
# exact Green function

def test_bessel_oracle_against_published_tables():
    for x, v in J0_TABLE.items():
        assert abs(bessel_j0(x) - v) < 5e-10
    for x, v in Y0_TABLE.items():
        assert abs(bessel_y0(x) - v) < 5e-10


def test_bessel_oracle_series_asymptotic_consistency():
    # both branches available near the switch point
    for x in (11.2, 11.9):
        j_series, y_series = bessel_j0(x), bessel_y0(x)
        from .oracles import _hankel_asymptotic
        j_asym, y_asym = _hankel_asymptotic(x)
        assert abs(j_series - j_asym) < 2e-11
        assert abs(y_series - y_asym) < 2e-11


def test_green_exact_golden():
    got = gs.green_exact(1.0, K0)
    # value from the independent J0/Y0 oracle, frozen
    golden = -0.09025184932340362 - 0.13488532009959958j
    assert abs(got - golden) < 1e-12
    oracle = hankel2_0(K0 * 1.0) / 4j
    assert abs(got - oracle) < 1e-10


def test_green_exact_y0_divergence_sign():
    # Im(4j G) = -Y0(k0 R) -> +inf as R -> 0+ (Y0 log-diverges to -inf)
    near = (4j * gs.green_exact(1e-6, K0)).imag
    far = (4j * gs.green_exact(1e-4, K0)).imag
    assert near > far > 0


def test_green_exact_large_argument_asymptotics():
    r = 50.0 / K0
    mag = abs(gs.green_exact(r, K0))
    assert abs(mag - 0.25 * np.sqrt(2 / (np.pi * 50.0))) / mag < 1e-2


def test_green_exact_domain_error():
    with pytest.raises(DomainError):
        gs.green_exact(0.0, K0)
    with pytest.raises(DomainError):
        gs.green_exact(-1.0, K0)


# ---------------------------------------------------------------------------
# contour paths

def test_xi_path_branch_values(cfg):
    e = cfg.split
    assert xi_path(e / 4, e) == pytest.approx((1 + 1j) * e / 4)
    assert xi_path(e, e) == pytest.approx(e + 0j)
    assert xi_path(2 * e, e) == pytest.approx(2 * e + 0j)


def test_xi_path_continuity(cfg):
    e = cfg.split
    for w in (e / 2, e):
        lo = xi_path(w - 1e-13, e)
        hi = xi_path(w + 1e-13, e)
        assert abs(lo - hi) < 1e-10


def test_xi_path_re_xi_squared_nonnegative(cfg):
    # the initial 45-degree leg has Re(xi^2) exactly 0 (marginal convergence);
    # beyond w = E/2 it is strictly positive
    e = cfg.split
    w = np.linspace(1e-6, 3 * e, 4001)
    re2 = (xi_path(w, e) ** 2).real
    assert np.all(re2 > -1e-12 * e * e)
    assert np.all(re2[w > 0.51 * e] > 0)


def test_zeta_path_values_and_continuity(cfg):
    e = cfg.split
    assert gs.zeta_path(1 / e, e) == pytest.approx(1 / e + 0j)
    assert gs.zeta_path(2 / e + 1e-14, e) == pytest.approx((1 - 1j) / e, abs=1e-10)
    lo = gs.zeta_path(2 / e - 1e-13, e)
    hi = gs.zeta_path(2 / e + 1e-13, e)
    assert abs(lo - hi) < 1e-10


def test_zeta_is_reciprocal_of_xi(cfg):
    e = cfg.split
    for w in np.linspace(1.01 / e, 8 / e, 37):
        assert gs.zeta_path(w, e) * xi_path(1 / w, e) == pytest.approx(1.0)


def test_zeta_derivative_matches_finite_difference(cfg):
    e = cfg.split
    h = 1e-7
    for w in (1.3 / e, 1.9 / e, 3.0 / e):
        fd = (gs.zeta_path(w + h, e) - gs.zeta_path(w - h, e)) / (2 * h)
        assert abs(gs.zeta_path_derivative(w, e) - fd) < 1e-6


# ---------------------------------------------------------------------------
# splitting parameter

def test_optimal_split_values():
    assert gs.optimal_split(1.45, 0.05) == pytest.approx(4.52836578, abs=1e-6)
    assert gs.optimal_split(1.5, 0.05) == pytest.approx(2 ** -0.25 * np.sqrt(30))


def test_optimal_split_balance():
    e = gs.optimal_split(1.45, 0.05)
    assert abs(0.05 ** 2 * e ** 2 - 1.45 ** 2 / (2 * e ** 2)) < 1e-12


# ---------------------------------------------------------------------------
# the split itself

def test_split_identity_selected_radii(cfg):
    for k0r in (0.05, 0.5, 1.0, 5.0, 20.0):
        r = k0r / K0
        total = gs.green_spatial(r, 0.0, cfg) + gs.green_spectral(r, 0.0, cfg)
        exact = gs.green_exact(r, K0)
        assert abs(total - exact) / abs(exact) < 1e-8


def test_sum_invariant_under_split_change(cfg):
    r = 0.8 / K0
    for factor in (0.5, 2.0):
        other = gs.EwaldConfig(split=factor * cfg.split, k0=K0)
        t1 = gs.green_spatial(r, 0.0, cfg) + gs.green_spectral(r, 0.0, cfg)
        t2 = gs.green_spatial(r, 0.0, other) + gs.green_spectral(r, 0.0, other)
        assert abs(t1 - t2) / abs(t1) < 1e-8


def test_split_identity_at_four_times_auto_split():
    # the green-check sweep at k0 = 3 and 4E*: adaptive Gauss-Kronrod halves
    # reached 3.1e-7 here without a QuadratureFailure; the node rules refine
    # by panel doubling until they agree
    k0 = 3.0
    k0r = np.logspace(-3, np.log10(30.0), 30)
    errs = gs.split_identity_error(k0, k0r / k0, 4 * gs.optimal_split(k0, DELTA))
    assert errs.max() <= 1e-8


def test_parts_depend_only_on_radius(cfg):
    a = gs.green_spatial(3.0, 4.0, cfg)
    b = gs.green_spatial(5.0, 0.0, cfg)
    assert abs(a - b) <= 1e-12 * abs(b)
    a = gs.green_spectral(0.3, 0.4, cfg)
    b = gs.green_spectral(0.5, 0.0, cfg)
    assert abs(a - b) <= 1e-12 * abs(b)


def test_green_spatial_rejects_origin(cfg):
    with pytest.raises(DomainError):
        gs.green_spatial(0.0, 0.0, cfg)
    with pytest.raises(DomainError):
        gs.green_spatial(np.array([0.5, 0.0]), 0.0, cfg)


@pytest.mark.parametrize("k0", [0.84, 1.45, 3.0])
def test_green_spectral_matches_phase_block_tail(k0):
    # the deformed tail path against the real-axis tail summed in phase
    # blocks, from near the origin to R = 8, where e^{-2jR^2/w^2} puts a thin
    # layer at the foot of the path's rise
    cfg = gs.EwaldConfig(split=gs.optimal_split(k0, DELTA), k0=k0)
    r = np.geomspace(0.02, 8.0, 40)
    got = gs.green_spectral(r, 0.0, cfg)
    ref = green_spectral_phase_blocks(r, cfg)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_green_spectral_rejects_origin(cfg):
    with pytest.raises(DomainError):
        gs.green_spectral(0.0, 0.0, cfg)


def test_green_spatial_series_crosscheck(cfg):
    # independent exponential-integral series for the real-axis part; radii
    # kept where the short-range value is well above the underflow floor
    from scipy.special import expn
    for r in (0.05, 0.2, 0.7, 1.2):
        acc = 0.0
        pref = 1.0
        for q in range(25):
            acc += pref * expn(q + 1, cfg.split ** 2 * r * r)
            pref *= (K0 * K0 / (4 * cfg.split ** 2)) / (q + 1)
        series = acc / (4 * np.pi)
        got = gs.green_spatial(r, 0.0, cfg)
        assert abs(got - series) / abs(series) < 1e-9
