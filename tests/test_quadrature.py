from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import special

from gaborscat.errors import QuadratureFailure
from gaborscat.quadrature import doubling_checked, panel_nodes, tail_path

from .oracles import (adaptive_quad, averaged_limit, limit_weights,
                      oscillatory_tail_bounds)


# ---------------------------------------------------------------------------
# the adaptive reference kept in the oracles

def test_adaptive_quad_scalar_complex():
    val = adaptive_quad(lambda x: np.exp(1j * x), 0.0, np.pi)
    assert abs(val - (np.sin(np.pi) + 1j * (1 - np.cos(np.pi)))) < 1e-12


def test_adaptive_quad_vector():
    val = adaptive_quad(lambda x: np.array([x, x * x, np.exp(-x)]), 0.0, 2.0)
    assert np.allclose(val, [2.0, 8 / 3, 1 - np.exp(-2)], rtol=1e-11)


def test_adaptive_quad_failure():
    # pathological: discontinuous everywhere at rational points via rounding noise
    rng = np.random.default_rng(3)

    def noisy(x):
        return float(rng.standard_normal()) * 1e6

    with pytest.raises(QuadratureFailure):
        adaptive_quad(np.vectorize(noisy), 0.0, 1.0, rtol=1e-12, limit=3)


# ---------------------------------------------------------------------------
# fixed-node rules

def test_doubling_checked_rejects_disagreement():
    # a rule whose integral moves under refinement fails at any budget; a
    # smooth one returns the first refined value that agrees, with the
    # relative difference of the last doubling
    rule = lambda k: panel_nodes(np.linspace(0.0, 1.0, 2 * k + 1))
    moving = lambda nodes, weights: np.array([len(nodes) * np.sum(weights)])
    for budget in (2, 16):
        with pytest.raises(QuadratureFailure, match="doubling"):
            doubling_checked(moving, rule, 1e-10, "test integral", budget)
    smooth = lambda nodes, weights: np.array([weights @ np.exp(nodes)])
    got, diff = doubling_checked(smooth, rule, 1e-10, "test integral", 2)
    assert abs(got[0] - (np.e - 1)) < 1e-14
    assert diff == abs(smooth(*rule(1))[0] - got[0]) / abs(got[0])


def test_doubling_checked_refines_until_agreement():
    # 2k Gauss-Legendre panels on [0, 1] resolve cos(200 x) only from k = 8
    # on, so k = 8 and k = 16 are the first pair to agree: a budget of 8 runs
    # out after k = 8, a budget of 16 returns the k = 16 value
    rule = lambda k: panel_nodes(np.linspace(0.0, 1.0, 2 * k + 1))
    calls = []

    def wave(nodes, weights):
        calls.append(len(nodes) // 32)
        return np.array([weights @ np.cos(200 * nodes)])

    with pytest.raises(QuadratureFailure, match="up to refine 8"):
        doubling_checked(wave, rule, 1e-10, "test integral", 8)
    assert calls == [1, 2, 4, 8]
    calls.clear()
    got, diff = doubling_checked(wave, rule, 1e-10, "test integral", 1024)
    assert calls == [1, 2, 4, 8, 16]
    assert abs(got[0] - np.sin(200.0) / 200) < 1e-15
    assert diff <= 1e-10


def test_panel_nodes_integrate_polynomial():
    bounds = np.array([0.0, 0.3, 1.0, 2.0])
    nodes, weights = panel_nodes(bounds)
    assert abs(np.sum(weights * nodes ** 5) - 2.0 ** 6 / 6) < 1e-12


@pytest.mark.parametrize("a, w0", [(0.26, 0.4), (1.0, 1.3), (0.1, 0.05)])
def test_oscillatory_tail_vs_exponential_integral(a, w0):
    # int_{w0}^inf exp(-j a w^2) / w dw = E1(j a w0^2) / 2 (substitute u = w^2),
    # taken along the deformed tail path; at w0 = 0.05 the ray's panels must
    # resolve 1/w near its start
    k0 = np.sqrt(8 * a)          # phase convention k0^2 w^2 / 8 = a w^2
    f = lambda w: np.exp(-1j * a * w * w) / w
    nodes, weights = tail_path(w0, k0, 0.0, 1)
    got = f(nodes) @ weights
    expect = special.exp1(1j * a * w0 * w0) / 2
    assert abs(got - expect) / abs(expect) < 1e-13


def test_oscillatory_tail_mixed_phase():
    # add a 1/w^2 phase strong enough to make the total phase non-monotone
    mp = pytest.importorskip("mpmath")
    a, c, w0 = 0.26, 40.0, 0.4
    k0 = np.sqrt(8 * a)
    f = lambda w: np.exp(-1j * a * w * w - 1j * c / (w * w)) / w
    nodes, weights = tail_path(w0, k0, c, 1)
    got = f(nodes) @ weights
    # reference in u = w^2: phase a u + c/u falls to its minimum at u* = sqrt(c/a)
    # then rises; solve the phase for explicit half-period boundaries on each
    # monotone branch (quadratic in u) and hand them to mpmath
    mp.mp.dps = 30
    fu = lambda u: mp.e ** (-1j * a * u - 1j * c / u) / (2 * u)
    u0 = w0 * w0
    u_star = np.sqrt(c / a)
    phi = lambda u: a * u + c / u
    n_down = int((phi(u0) - phi(u_star)) / np.pi)
    bs = phi(u0) - np.arange(n_down + 1) * np.pi
    down = (bs - np.sqrt(bs * bs - 4 * a * c)) / (2 * a)
    ref = complex(mp.quad(fu, [u0] + list(down) + [u_star], maxdegree=10))
    up = lambda n: float((phi(u_star) + n * np.pi
                          + np.sqrt((phi(u_star) + n * np.pi) ** 2 - 4 * a * c))
                         / (2 * a))
    ref += complex(mp.quadosc(fu, [u_star, mp.inf], zeros=up))
    assert abs(got - ref) / abs(ref) < 1e-13


# ---------------------------------------------------------------------------
# the phase-block tail kept in the oracles as the reference for the path

def test_averaged_limit_alternating_series():
    # sum (-1)^n / (n+1) = ln 2, via "blocks" of the alternating series
    n = np.arange(200)
    blocks = (-1.0) ** n / (n + 1)
    assert abs(averaged_limit(blocks) - np.log(2)) < 1e-14


@pytest.mark.parametrize("n_blocks, depth", [(160, 40), (42, 40), (41, 40),
                                             (12, 40), (1, 40), (50, 3)])
def test_limit_weights_reproduce_averaged_limit(n_blocks, depth):
    # uneven blocks of 1..19 nodes; the weighted node sum must equal the
    # averaged limit of the block sums up to the rounding of either sum
    rng = np.random.default_rng(n_blocks * 100 + depth)
    sizes = rng.integers(1, 20, n_blocks)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    n = int(sizes.sum())
    vals = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    expect = averaged_limit(np.add.reduceat(vals, offsets, axis=-1), depth)
    got = vals @ limit_weights(offsets, n, depth)
    scale = np.abs(vals).sum(axis=-1)
    assert np.all(np.abs(got - expect) <= 1e-15 * scale)


@pytest.mark.parametrize("n_blocks, depth", [(160, 40), (41, 40), (7, 40),
                                             (50, 3)])
def test_limit_weights_are_exact_binomial_tails(n_blocks, depth):
    # block n_blocks-1-D+m carries sum_{k>=m} C(D, k) / 2^D, D = min(depth,
    # n_blocks-1); earlier blocks carry 1 (exactly, in floating point)
    offsets = np.arange(n_blocks) * 3
    got = limit_weights(offsets, 3 * n_blocks, depth)[::3]
    dd = min(depth, n_blocks - 1)
    tails = [Fraction(sum(comb(dd, k) for k in range(m, dd + 1)), 2 ** dd)
             for m in range(1, dd + 1)]
    expect = [Fraction(1)] * (n_blocks - dd) + tails
    assert [Fraction(float(c)) for c in got] == expect


def test_tail_bounds_cap_extends_blocks():
    b_a, b_b = oscillatory_tail_bounds(0.4, 1.45, 0.0, n_blocks=4, w_cap=40.0)
    assert b_b[-1] >= 40.0
    assert len(b_b) > 5
