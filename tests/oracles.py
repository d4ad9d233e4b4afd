"""Independent reference implementations used only by the tests.

Everything here is written against the defining formulas, not against the
package internals, so each check is a genuine dual route.  The module also
holds helpers that only the tests use (the dense least-squares dual, the
Fourier-side frame elements and dual coefficients, the Ewald contour xi(w),
the guarded complex erf and its OverflowGuard,
the per-d erf_diff form of the half-triangle z' integrals and the
full-triangle ones, the kx-domain reductions f~ and g~ of the contour
head, the signed-index kernel-table lookup, the real-axis phase-block
tail with its averaging extrapolation that the deformed tail path replaced,
and the adaptive Gauss-Kronrod quadrature that the package's fixed-node
rules replaced); the tests check those in their own right.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
from scipy import special
from scipy.integrate import quad_vec

from gaborscat.errors import GaborscatError, QuadratureFailure, SingularFrame
from gaborscat.frame import (TWO_QUARTER, analysis_grid, analysis_matrix,
                             frame_matrix, synthesis_matrix, window_value)
from gaborscat.green import zeta_path, zeta_path_derivative
from gaborscat.kernels import _boundary_differences, f_spatial, g_z_spatial, x_rate
from gaborscat.quadrature import panel_nodes, subdivided_panels
from gaborscat.scene import contrast_at
from gaborscat.tables import _spatial_envelope, index_bounds

# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature: the reference route for the fixed-node
# contour rules (the spectral head of green_spectral_phase_blocks and the
# per-d spatial table of spatial_table_adaptive)

def adaptive_quad(f, a: float, b: float, *, rtol: float = 1e-10,
                  atol: float = 1e-15, limit: int = 2000):
    """Adaptive Gauss-Kronrod quadrature of a (vector-valued) complex integrand."""
    val, err = quad_vec(f, a, b, epsrel=rtol, epsabs=atol, limit=limit,
                        norm="max", quadrature="gk21")
    scale = np.max(np.abs(val)) if np.ndim(val) else abs(val)
    if not np.all(np.isfinite(err)) or err > max(atol, rtol * max(scale, atol)) * 1e3:
        raise QuadratureFailure(
            f"quad_vec error estimate {err:.3e} on [{a:.6g}, {b:.6g}] "
            f"exceeds budget (rtol={rtol:.1e})")
    return val


# ---------------------------------------------------------------------------
# Bessel J0/Y0 from scratch: power series for small argument, Hankel's
# asymptotic expansion for large, cross-checked against published table values.

_EULER_GAMMA = 0.5772156649015329


def bessel_j0(x: float) -> float:
    x = float(abs(x))
    if x < 12.0:
        term = 1.0
        acc = 1.0
        for k in range(1, 60):
            term *= -(x * x / 4) / (k * k)
            acc += term
            if abs(term) < 1e-18 * abs(acc):
                break
        return acc
    return _hankel_asymptotic(x)[0]


def bessel_y0(x: float) -> float:
    x = float(x)
    if x <= 0:
        raise ValueError("Y0 requires x > 0")
    if x < 12.0:
        # Y0 = (2/pi)[(ln(x/2)+gamma) J0 + sum_k (-1)^{k+1} H_k (x^2/4)^k/(k!)^2]
        term = 1.0
        acc = 0.0
        harmonic = 0.0
        for k in range(1, 60):
            term *= (x * x / 4) / (k * k)
            harmonic += 1.0 / k
            acc += (-1) ** (k + 1) * harmonic * term
            if term < 1e-18:
                break
        return 2 / np.pi * ((np.log(x / 2) + _EULER_GAMMA) * bessel_j0(x) + acc)
    return _hankel_asymptotic(x)[1]


def _hankel_asymptotic(x: float):
    """Large-argument P/Q expansion of J0 and Y0."""
    p, q = 1.0, -1.0 / (8 * x)
    term_p, term_q = 1.0, q
    mu = 0.0  # nu = 0: mu = 4 nu^2 = 0
    for k in range(1, 9):
        # P series: even factors; Q series: odd
        a = (mu - (4 * k - 3) ** 2) * (mu - (4 * k - 1) ** 2)
        term_p *= -a / ((2 * k - 1) * (2 * k) * (8 * x) ** 2)
        p += term_p
        b = (mu - (4 * k - 1) ** 2) * (mu - (4 * k + 1) ** 2)
        term_q *= -b / ((2 * k) * (2 * k + 1) * (8 * x) ** 2)
        q += term_q
    chi = x - np.pi / 4
    amp = np.sqrt(2 / (np.pi * x))
    j0 = amp * (p * np.cos(chi) - q * np.sin(chi))
    y0 = amp * (p * np.sin(chi) + q * np.cos(chi))
    return j0, y0


def hankel2_0(x: float) -> complex:
    return bessel_j0(x) - 1j * bessel_y0(x)


# published values (Abramowitz & Stegun, Table 9.1)
J0_TABLE = {1.0: 0.7651976866, 2.0: 0.2238907791, 5.0: -0.1775967713}
Y0_TABLE = {1.0: 0.0882569642, 2.0: 0.5103756726, 5.0: -0.3085176252}


# ---------------------------------------------------------------------------
# dense least-squares frame reconstruction: best box-limited synthesis of a
# sampled signal, independent of any dual window

def lstsq_reconstruction(f_vals: np.ndarray, xs: np.ndarray, fp, box_m: int,
                         box_n: int) -> np.ndarray:
    cols = []
    for m in range(-box_m, box_m + 1):
        gm = 2 ** 0.25 * np.exp(-np.pi * (xs - fp.alpha * m * fp.X) ** 2 / fp.X ** 2)
        for n in range(-box_n, box_n + 1):
            cols.append(gm * np.exp(1j * fp.beta * fp.K * n * xs))
    design = np.array(cols).T
    coef, *_ = np.linalg.lstsq(design, f_vals, rcond=None)
    return design @ coef


# ---------------------------------------------------------------------------
# dense frame-operator dual for lattices without a rational structure, and the
# Fourier-side frame elements

_LSTSQ_SV_CUT = 1e-2      # relative singular-value floor of the frame span


def lstsq_dual_window(fp, grid: np.ndarray):
    """Dense frame-operator dual for lattices without a rational structure.

    Solves S eta = g with S = sum_mn <., g_mn> g_mn discretized on the grid
    (pseudo-inverse restricted to the frame span), over a box of shifts large
    enough to emulate the infinite lattice near the center.  The true frame
    operator has a spectral floor; singular values below _LSTSQ_SV_CUT of the
    top belong to box-edge artifacts and are dropped (this covers
    oversampling up to alpha*beta ~ 0.9).  Best-effort: accurate to a few
    1e-3 near the center, degrading toward the box edge.
    """
    box_m, box_n = 2 * fp.M + 4, 2 * fp.N + 4
    xs = np.asarray(grid, dtype=float)
    h = float(xs[1] - xs[0])
    gmat = frame_matrix(xs, np.arange(-box_m, box_m + 1),
                        np.arange(-box_n, box_n + 1), fp)   # (ngrid, nframe)
    # S = h * G G^H via the thin SVD of G; pseudo-inverse on the span
    u, sv, _ = np.linalg.svd(gmat, full_matrices=False)
    keep = sv > _LSTSQ_SV_CUT * sv[0]
    if not np.any(keep):
        raise SingularFrame("frame operator numerically singular on this grid")
    g0 = window_value(xs, fp)
    proj = u[:, keep].conj().T @ g0
    return xs, u[:, keep] @ (proj / (h * sv[keep] ** 2))


def spectral_dual_coeffs(dw, fp):
    """Coefficients of the Fourier-transformed dual in the spectral frame.

    FT(g_uv) = e^{2 pi j alpha beta u v} ghat_vu, so the transformed sum reads
    sum ahat[u', v'] ghat_{u'v'} with ahat[u', v'] = a[v', u'] e^{2 pi j ab u'v'};
    the primed u' indexes the kx shift (bound n_v) and v' the phase (bound n_u).
    """
    uh = np.arange(-dw.n_v, dw.n_v + 1)[:, None]
    vh = np.arange(-dw.n_u, dw.n_u + 1)[None, :]
    return dw.a.T * np.exp(2j * np.pi * fp.alpha * fp.beta * uh * vh)


def spectral_window_value(kx, fp):
    """Fourier transform of the window, 2^(1/4) X exp(-pi kx^2 / K^2)."""
    kx = np.asarray(kx, dtype=float)
    return TWO_QUARTER * fp.X * np.exp(-np.pi * kx * kx / (fp.K * fp.K))


def spectral_frame_element(kx, n: int, m: int, fp):
    """Spectral frame element ghat(kx - n beta K) e^{-j m alpha X kx}.

    The forward transform of frame_element(., m, n) equals
    e^{2 pi j alpha beta m n} times this element.
    """
    kx = np.asarray(kx, dtype=float)
    return (spectral_window_value(kx - n * fp.beta * fp.K, fp)
            * np.exp(-1j * m * fp.alpha * fp.X * kx))


# ---------------------------------------------------------------------------
# Gabor sums written out per index: the fitted dual window as a double loop
# over (u, v), analysis and synthesis as loops over the window shift m

def _window(x, fp):
    return 2 ** 0.25 * np.exp(-np.pi * x * x / (fp.X * fp.X))


def dual_window_loop(x, dw, fp):
    """eta(x) = sum_uv a_uv g(x - alpha u X) e^{j beta K v x}."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for iu, u in enumerate(range(-dw.n_u, dw.n_u + 1)):
        gu = _window(x - fp.alpha * u * fp.X, fp)
        for iv, v in enumerate(range(-dw.n_v, dw.n_v + 1)):
            out += dw.a[iu, iv] * gu * np.exp(1j * fp.beta * fp.K * v * x)
    return out


def analyze_loop(f_sampled, grid, dw, fp):
    """<f, eta_mn> = h sum_x f(x) conj(eta(x - alpha m X) e^{j beta K n x}),
    with trailing batch axes after the grid axis."""
    xs = np.asarray(grid, dtype=float)
    h = xs[1] - xs[0]
    f = np.asarray(f_sampled)
    coeffs = np.empty((2 * fp.M + 1, 2 * fp.N + 1) + f.shape[1:], dtype=complex)
    mod = np.exp(-1j * fp.beta * fp.K * np.outer(fp.n_range, xs))
    for im, m in enumerate(fp.m_range):
        eta_m = np.conj(dual_window_loop(xs - fp.alpha * m * fp.X, dw, fp))
        coeffs[im] = h * np.tensordot(mod * eta_m[None, :], f, axes=(1, 0))
    return coeffs


def analyze(f_sampled, grid, dw, fp):
    """<f, eta_mn> through the package's analysis matrix, with trailing batch
    axes after the grid axis."""
    f = np.asarray(f_sampled)
    coeffs = analysis_matrix(grid, dw, fp) @ f.reshape(len(f), -1)
    return coeffs.reshape((2 * fp.M + 1, 2 * fp.N + 1) + f.shape[1:])


def synthesize_loop(coeffs, grid, fp):
    """sum_mn c_mn g(x - alpha m X) e^{j beta K n x}, with trailing batch axes
    after (m, n)."""
    xs = np.asarray(grid, dtype=float)
    c = np.asarray(coeffs, dtype=complex)
    mod = np.exp(1j * fp.beta * fp.K * np.outer(xs, fp.n_range))
    out = np.zeros((len(xs),) + c.shape[2:], dtype=complex)
    for im, m in enumerate(fp.m_range):
        gm = _window(xs - fp.alpha * m * fp.X, fp)
        out += gm.reshape((len(xs),) + (1,) * (c.ndim - 2)) \
            * np.tensordot(mod, c[im], axes=(1, 0))
    return out


# ---------------------------------------------------------------------------
# the Ewald contour in the forward variable; the package integrates along its
# inverse, zeta(w) = 1/xi(1/w)

def xi_path(w, split: float):
    """Ewald contour xi(w): (1+j)w, then w + (E-w)j, then the real tail."""
    w = np.asarray(w, dtype=float)
    out = np.empty(w.shape, dtype=complex)
    m1 = w < split / 2
    m2 = (w >= split / 2) & (w < split)
    m3 = w >= split
    out[m1] = (1 + 1j) * w[m1]
    out[m2] = w[m2] + (split - w[m2]) * 1j
    out[m3] = w[m3]
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# kx-domain reductions of the contour head: the x-factor f~ of the kx integral
# and the z-factor g~ with the inverse-variable Gaussian e^{-s^2/zeta^2}.  The
# spectral table contracts the real-axis factors at xi = 1/zeta instead
# (f_on_contour, g_on_contour), and f~ and g~ are their reference: f~ an
# independent closed form, g~ one that shares the package's erf-boundary
# helper (g_z_spectral_per_d below shares nothing).

def f_spectral(q, p, zeta, fp):
    """Gaussian kx-coupling factor of the inverse-variable (spectral) integrand."""
    q = np.asarray(q)
    p = np.asarray(p)
    zeta = np.asarray(zeta)
    den = fp.K * fp.K * zeta * zeta + 8 * np.pi
    quad = (fp.beta * p + 1j * fp.alpha * q) ** 2
    return np.sqrt(np.pi / den) * np.exp(4 * np.pi ** 2 / den * quad
                                         - np.pi / 2 * fp.beta ** 2 * p ** 2)


def g_z_spectral(d, zeta, zg):
    """Half-triangle z' integral with the inverse-variable Gaussian e^{-s^2/zeta^2}."""
    d = np.asarray(d)
    zeta = np.asarray(zeta)
    dd = zg.delta
    bracket, gauss = _boundary_differences(d, dd / zeta)
    return (np.sqrt(np.pi) * (d + 1) / 2 * zeta * bracket
            + zeta * zeta / (2 * dd) * gauss)


def f_on_contour(q, p, zeta, fp):
    """X/(sqrt(2) zeta) f(-q, p, 1/zeta): the package's x-factor on the contour
    head, in the kx-domain scale and orientation of f~."""
    return fp.X / (np.sqrt(2) * zeta) * f_spatial(-np.asarray(q), p, 1 / zeta, fp)


def g_on_contour(d, zeta, zg):
    """g(d, 1/zeta): the package's z-factor on the contour head."""
    return g_z_spatial(d, 1 / np.asarray(zeta), zg)


def table_entry(table, q: int, p: int, d: int) -> complex:
    """T[q, p, d] of a kernel table, by its signed indices."""
    return complex(table.data[q + table.q_max, p + table.p_max, d + table.zg.n_k])


def kx_domain_tables(tables):
    """(spatial, spectral) with the spectral table converted to the kx-domain
    convention T_kx[q] = X/sqrt(2) T[-q] of f~, in which the x-factor oracle
    below writes the spectral side."""
    spatial, spectral = tables
    scale = spectral.fp.X / np.sqrt(2)
    return [spatial, replace(spectral, data=scale * spectral.data[::-1])]


# ---------------------------------------------------------------------------
# quadrature oracles for the kernel reductions

def xx_double_integral(m, n, s, t, u, v, xi, fp, half_width=4.0):
    """Direct nested quadrature of the x/x' double integral for one (u, v) term
    of the dual-window sum (coefficient a*_uv excluded).

    The integrands are evaluated with scalar `math`/`cmath` arithmetic: quad_vec
    calls them one point at a time (about 3e5 inner points per value), where
    numpy's per-call overhead would dominate the oracle's run time. Each
    Gaussian window carries 2**0.25, hence the sqrt(2) in front."""
    # plain floats throughout: the indices may arrive as numpy integers, and
    # arithmetic on numpy scalars is several times slower than on floats
    a = math.pi / fp.X ** 2
    xi2 = float(xi) ** 2
    bk_n = float(fp.beta * fp.K * n)
    bk_t = float(fp.beta * fp.K * t)
    bk_v = float(fp.beta * fp.K * v)
    c_m = float(fp.alpha * m * fp.X)
    c_s = float(fp.alpha * s * fp.X)
    c_su = float(fp.alpha * (s + u) * fp.X)

    def inner(x):
        # exp(-(x - x')^2 xi^2) * g(x' - alpha m X) * exp(i beta K n x')
        def g(xp):
            xp = float(xp)
            return cmath.exp(complex(-(x - xp) ** 2 * xi2 - a * (xp - c_m) ** 2,
                                     bk_n * xp))

        val, _ = quad_vec(g, -half_width, half_width, epsabs=1e-13, epsrel=1e-12)
        return val

    def outer(x):
        # conj of g(y - alpha u X) exp(i beta K v y) exp(i beta K t x), y = x - alpha s X
        x = float(x)
        eta = cmath.exp(complex(-a * (x - c_su) ** 2, bk_v * (x - c_s) + bk_t * x))
        return eta.conjugate() * inner(x)

    val, _ = quad_vec(outer, -half_width, half_width, epsabs=1e-12, epsrel=1e-11)
    return math.sqrt(2) * val


def kx_integral(n, m, t, s, u, v, zeta, fp, half_width=None):
    """Direct quadrature of the kx integral for one (u, v) term of the
    transformed dual sum (coefficient ahat*_uv excluded)."""
    ghat = lambda k: 2 ** 0.25 * fp.X * np.exp(-np.pi * k * k / fp.K ** 2)
    if half_width is None:
        half_width = 6 * fp.K

    def ghat_nm(kx):
        return ghat(kx - n * fp.beta * fp.K) * np.exp(-1j * m * fp.alpha * fp.X * kx)

    def etahat_term(kx):
        kk = kx - t * fp.beta * fp.K
        return (ghat(kk - u * fp.beta * fp.K) * np.exp(-1j * v * fp.alpha * fp.X * kk)
                * np.exp(-1j * s * fp.alpha * fp.X * kx))

    f = lambda kx: (np.exp(-kx * kx * zeta * zeta / 4) * ghat_nm(kx)
                    * np.conj(etahat_term(kx)))
    val, _ = quad_vec(f, -half_width, half_width, epsabs=1e-13, epsrel=1e-12)
    return val


def half_triangle_integral(d, rate, delta):
    """Direct quadrature of int_{d D}^{(d+1) D} ((d+1) - s/D) exp(-s^2 * rate) ds;
    rate = xi^2 for the spatial kernel, 1/zeta^2 for the spectral one."""
    f = lambda sig: ((d + 1) - sig / delta) * np.exp(-sig * sig * rate)
    val, _ = quad_vec(f, d * delta, (d + 1) * delta, epsabs=1e-15, epsrel=1e-13)
    return val


def erf_maclaurin(z: complex, terms: int = 15) -> complex:
    """Series (2/sqrt(pi)) sum (-1)^n z^(2n+1) / (n! (2n+1))."""
    acc = 0.0
    fact = 1.0
    for n in range(terms):
        if n > 0:
            fact *= n
        acc += (-1) ** n * z ** (2 * n + 1) / (fact * (2 * n + 1))
    return 2 / np.sqrt(np.pi) * acc


# |Im z|^2 beyond this overflows exp() in double precision
_ERF_IM_LIMIT = 26.5


class OverflowGuard(GaborscatError):
    """Evaluation would overflow double precision; caller must pre-scale."""


def erf_complex(z):
    """Entire error function for complex argument via the Faddeeva route."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z.imag) > _ERF_IM_LIMIT):
        raise OverflowGuard(
            f"|Im z| > {_ERF_IM_LIMIT} would overflow exp(|Im z|^2)")
    return special.erf(z)


def erf_diff(a, b):
    """erf(b) - erf(a), stable when both arguments sit deep in a saturated tail.

    For Re >= 2 the values are computed as erfc(a) - erfc(b) (and mirrored for
    Re <= -2), avoiding the total cancellation of 1 - tiny against 1 - tiny.
    Arguments are assumed to lie within 45 degrees of the real axis, as they do
    on the Ewald contours (Re z^2 >= 0, so erfc stays bounded).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    both_pos = (a.real >= 2.0) & (b.real >= 2.0)
    both_neg = (a.real <= -2.0) & (b.real <= -2.0)
    mid = ~(both_pos | both_neg)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    if np.any(mid):
        am = np.broadcast_to(a, out.shape)[mid]
        bm = np.broadcast_to(b, out.shape)[mid]
        out[mid] = special.erf(bm) - special.erf(am)
    if np.any(both_pos):
        am = np.broadcast_to(a, out.shape)[both_pos]
        bm = np.broadcast_to(b, out.shape)[both_pos]
        out[both_pos] = special.erfc(am) - special.erfc(bm)
    if np.any(both_neg):
        am = np.broadcast_to(a, out.shape)[both_neg]
        bm = np.broadcast_to(b, out.shape)[both_neg]
        out[both_neg] = special.erfc(-bm) - special.erfc(-am)
    return out if out.shape else complex(out)


# the half-triangle z' integrals with both erf boundaries of every d taken
# afresh by erf_diff: the per-d route the package's boundary reuse replaces

def g_z_spatial_per_d(d, xi, zg):
    d = np.asarray(d)
    xi = np.asarray(xi)
    dd = zg.delta
    dp = d + 1
    bracket = erf_diff(xi * d * dd, xi * dp * dd)
    return (dp * np.sqrt(np.pi) / (2 * xi) * bracket
            + 1 / (2 * dd * xi * xi) * (np.exp(-dp * dp * dd * dd * xi * xi)
                                        - np.exp(-d * d * dd * dd * xi * xi)))


def g_z_spectral_per_d(d, zeta, zg):
    d = np.asarray(d)
    zeta = np.asarray(zeta)
    dd = zg.delta
    dp = d + 1
    bracket = erf_diff(d * dd / zeta, dp * dd / zeta)
    return (np.sqrt(np.pi) * dp / 2 * zeta * bracket
            + zeta * zeta / (2 * dd) * (np.exp(-dp * dp * dd * dd / (zeta * zeta))
                                        - np.exp(-d * d * dd * dd / (zeta * zeta))))


def _check_triangle_index(k: int, l: int, zg):
    if not (0 <= k <= zg.n_k and 0 <= l <= zg.n_k):
        raise IndexError(f"triangle indices must lie in [0, {zg.n_k}]")


def h_z_spatial(k: int, l: int, xi, zg):
    """Full triangle-k z' integral: both halves for interior k, one at the ends."""
    _check_triangle_index(k, l, zg)
    out = 0.0
    if k < zg.n_k:
        out = out + g_z_spatial(k - l, xi, zg)
    if k > 0:
        out = out + g_z_spatial(l - k, xi, zg)
    return out


def h_z_spectral(k: int, l: int, zeta, zg):
    """Spectral counterpart of h_z_spatial."""
    _check_triangle_index(k, l, zg)
    out = 0.0
    if k < zg.n_k:
        out = out + g_z_spectral(k - l, zeta, zg)
    if k > 0:
        out = out + g_z_spectral(l - k, zeta, zg)
    return out


# ---------------------------------------------------------------------------
# brute-force radiated field of one expansion function (singular kernel handled
# by panel splitting refined dyadically toward the probe)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _refined_edges(base: np.ndarray, point: float, levels: int = 16) -> np.ndarray:
    edges = np.unique(np.concatenate([base, [point]])) \
        if base[0] < point < base[-1] else base
    for _ in range(levels):
        i = np.searchsorted(edges, point)
        pts = []
        if 0 < i < len(edges):
            if edges[i - 1] < point:
                pts.append(0.5 * (edges[i - 1] + point))
            if edges[i] > point:
                pts.append(0.5 * (point + edges[i]))
        if not pts:
            break
        edges = np.unique(np.concatenate([edges, pts]))
    return edges


def _panel_quad(edges: np.ndarray):
    a, b = edges[:-1], edges[1:]
    nodes = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GL_X[None, :]).ravel()
    weights = (0.5 * (b - a)[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def unit_source_field(xp: float, zp: float, m: int, n: int, k: int,
                      green, fp, zg) -> complex:
    """k0^2 * int int green(R) g_mn(x') Lambda_k(z') dx' dz' by panel quadrature."""
    z_k = zg.z_min + k * zg.delta
    x_half = fp.alpha * abs(m) * fp.X + 3.6 * fp.X
    xedges = _refined_edges(np.linspace(-x_half, x_half, 49), xp)
    z_lo = max(z_k - zg.delta, zg.z_min)
    z_hi = min(z_k + zg.delta, zg.z_max)
    zedges = np.unique(np.concatenate([np.linspace(z_lo, z_hi, 9), [z_k]]))
    zedges = _refined_edges(zedges, zp)
    xn, xw = _panel_quad(xedges)
    zn, zw = _panel_quad(zedges)
    xg, zgr = np.meshgrid(xn, zn, indexing="ij")
    r = np.maximum(np.hypot(xp - xg, zp - zgr), 1e-13)
    gw_vals = (2 ** 0.25 * np.exp(-np.pi * (xg - fp.alpha * m * fp.X) ** 2 / fp.X ** 2)
               * np.exp(1j * fp.beta * fp.K * n * xg))
    tri = np.clip(1 - np.abs(zgr - z_k) / zg.delta, 0, None)
    vals = green(r) * gw_vals * tri
    return complex(np.einsum("i,j,ij->", xw, zw, vals))


# ---------------------------------------------------------------------------
# x-factor contraction of the forward map: the explicit factorization
#
#     G[(s,t,l),(m,n,k)] = sum_(q,p)  Xf[(s,t),(m,n);(q,p)] * Z[(q,p);(l,k)]
#
# with q = m-s-u, p = n+t+v on the spatial side and q = s+v-m, p = n+t+u on the
# spectral side, every (u, v) dual-window term, both diagonal phases and the
# scalar prefactors written out.  Dense in (s, t, m, n), so only for small boxes.

def _z_blocks(table):
    """Live (q,p) columns and their (l,k) coupling blocks.

    Z[c, l, k] = [k < n_k] T[q,p,k-l] + [k > 0] T[q,p,l-k]; the masks drop the
    triangle half that the z-interval boundary cuts away.
    """
    n_k = table.zg.n_k
    live = np.argwhere(np.abs(table.data).max(axis=2) > 0)
    if len(live) == 0:
        live = np.array([[table.q_max, table.p_max]])
    rows = table.data[live[:, 0], live[:, 1], :]         # (nlive, 2*n_k+1)
    l_idx = np.arange(n_k + 1)
    k_idx = np.arange(n_k + 1)
    d_fall = k_idx[None, :] - l_idx[:, None] + n_k       # k - l
    d_rise = l_idx[:, None] - k_idx[None, :] + n_k       # l - k
    z = (rows[:, d_fall] * (k_idx < n_k)[None, None, :]
         + rows[:, d_rise] * (k_idx > 0)[None, None, :])
    return live, z


def _x_factor_spatial(fp, dw, live, q_max, p_max, k0):
    """Xf[s,t,m,n,c] for live columns c; includes every scalar and phase factor."""
    ab = fp.alpha * fp.beta
    ms = fp.m_range
    ns = fp.n_range
    nm, nn = len(ms), len(ns)
    col_of = -np.ones((2 * q_max + 1, 2 * p_max + 1), dtype=int)
    col_of[live[:, 0], live[:, 1]] = np.arange(len(live))
    xf = np.zeros((nm, nn, nm, nn, len(live)), dtype=complex)
    s_g = ms[:, None]
    m_g = ms[None, :]
    for iu, u in enumerate(range(-dw.n_u, dw.n_u + 1)):
        q_idx = m_g - s_g - u + q_max                    # (ns, nm)
        q_ok = (q_idx >= 0) & (q_idx < 2 * q_max + 1)
        for iv, v in enumerate(range(-dw.n_v, dw.n_v + 1)):
            t_g = ns[:, None]
            n_g = ns[None, :]
            p_idx = n_g + t_g + v + p_max                # (nt, nn)
            p_ok = (p_idx >= 0) & (p_idx < 2 * p_max + 1)
            w_tn = (np.conj(dw.a[iu, iv])
                    * np.exp(-2j * np.pi * ab * u * (t_g + v))
                    * np.exp(-np.pi / 2 * fp.beta ** 2 * (v + t_g - n_g) ** 2))
            cols = col_of[np.clip(q_idx, 0, None)[:, :, None, None],
                          np.clip(p_idx, 0, None)[None, None, :, :]]
            valid = q_ok[:, :, None, None] & p_ok[None, None, :, :] & (cols >= 0)
            si, mi, ti, ni = np.nonzero(valid)
            np.add.at(xf, (si, ti, mi, ni, cols[valid]),
                      np.broadcast_to(w_tn[None, None, :, :],
                                      valid.shape)[valid])
    phase_row = np.exp(-2j * np.pi * ab * np.outer(ms, ns))     # e^{-2pi j ab s t}
    phase_col = np.exp(+2j * np.pi * ab * np.outer(ms, ns))     # e^{+2pi j ab m n}
    xf *= phase_row[:, :, None, None, None]
    xf *= phase_col[None, None, :, :, None]
    xf *= k0 * k0 * fp.X ** 2 / np.sqrt(np.pi)
    return xf


def _x_factor_spectral(fp, dw, live, q_max, p_max, k0):
    ab = fp.alpha * fp.beta
    a_hat = spectral_dual_coeffs(dw, fp)                 # (2 n_v+1, 2 n_u+1)
    ms = fp.m_range
    ns = fp.n_range
    nm, nn = len(ms), len(ns)
    col_of = -np.ones((2 * q_max + 1, 2 * p_max + 1), dtype=int)
    col_of[live[:, 0], live[:, 1]] = np.arange(len(live))
    xf = np.zeros((nm, nn, nm, nn, len(live)), dtype=complex)
    s_g = ms[:, None]
    m_g = ms[None, :]
    for ih, uh in enumerate(range(-dw.n_v, dw.n_v + 1)):    # kx-shift index
        t_g = ns[:, None]
        n_g = ns[None, :]
        p_idx = n_g + t_g + uh + p_max
        p_ok = (p_idx >= 0) & (p_idx < 2 * p_max + 1)
        decay = np.exp(-np.pi / 2 * fp.beta ** 2 * (n_g - t_g - uh) ** 2)
        for jv, vh in enumerate(range(-dw.n_u, dw.n_u + 1)):  # phase index
            q_idx = s_g + vh - m_g + q_max
            q_ok = (q_idx >= 0) & (q_idx < 2 * q_max + 1)
            w_tn = (np.conj(a_hat[ih, jv])
                    * np.exp(-2j * np.pi * ab * t_g * vh) * decay)
            cols = col_of[np.clip(q_idx, 0, None)[:, :, None, None],
                          np.clip(p_idx, 0, None)[None, None, :, :]]
            valid = q_ok[:, :, None, None] & p_ok[None, None, :, :] & (cols >= 0)
            si, mi, ti, ni = np.nonzero(valid)
            np.add.at(xf, (si, ti, mi, ni, cols[valid]),
                      np.broadcast_to(w_tn[None, None, :, :],
                                      valid.shape)[valid])
    phase_row = np.exp(-2j * np.pi * ab * np.outer(ms, ns))
    phase_col = np.exp(+2j * np.pi * ab * np.outer(ms, ns))
    xf *= phase_row[:, :, None, None, None]
    xf *= phase_col[None, None, :, :, None]
    xf *= k0 * k0 * fp.X * np.sqrt(2 / np.pi)
    return xf


def _x_factor_sides(dual, tables):
    """(Xf, Z) for the spatial and the spectral side of the forward map that
    build_operator makes from this dual window and (spatial, spectral) pair."""
    sides = []
    for table, x_factor in zip(tables,
                               (_x_factor_spatial, _x_factor_spectral)):
        live, z = _z_blocks(table)
        sides.append((x_factor(table.fp, dual, live, table.q_max, table.p_max,
                               table.cfg.k0), z))
    return sides


def xfactor_green_apply(coeffs, dual, tables):
    """k0^2 (G * J) for J given as (m, n, k), through the live (q,p)
    columns without forming G."""
    c = np.asarray(coeffs, dtype=complex)
    nm, nn, nk = c.shape
    c_by_k = c.reshape(nm * nn, nk).T
    out = np.zeros((nm * nn, nk), dtype=complex)
    for xf, z in _x_factor_sides(dual, tables):
        nc = z.shape[0]
        v = (z.reshape(nc * nk, nk) @ c_by_k).reshape(nc, nk, nm * nn)
        v = v.transpose(2, 0, 1).reshape(nm * nn * nc, nk)
        out += xf.reshape(nm * nn, -1) @ v
    return out.reshape(c.shape)


def xfactor_green_matrix(dual, tables):
    """Dense matrix of the same map in (m*nn + n)*nk + k flattening."""
    fp, zg = tables[0].fp, tables[0].zg
    nm, nn, nk = 2 * fp.M + 1, 2 * fp.N + 1, zg.n_k + 1
    n = nm * nn * nk
    out = np.zeros((n, n), dtype=complex)
    for xf, z in _x_factor_sides(dual, tables):
        big = xf.reshape(-1, xf.shape[-1]) @ z.reshape(z.shape[0], -1)
        big = big.reshape(nm, nn, nm, nn, nk, nk).transpose(0, 1, 4, 2, 3, 5)
        out += big.reshape(n, n)
    return out


def active_unknowns(op):
    """Indices, in the (m*nn + n)*nk + k flattening, of the unknowns on z
    slices where chi is nonzero, in the order assemble_dense uses."""
    nm, nn, nk = 2 * op.fp.M + 1, 2 * op.fp.N + 1, op.zg.n_k + 1
    active = np.flatnonzero(np.any(op.chi_slices != 0, axis=1))
    return (np.arange(nm * nn)[:, None] * nk + active[None, :]).ravel()


def full_system_matrix(op, dual, tables):
    """I - chi*G over every unknown: the x-factor Green matrix of op's dual
    window and tables, with op's contrast projector
    analysis * diag(chi(., z_l)) * synthesis applied to the rows of each z
    slice l."""
    nm, nn, nk = 2 * op.fp.M + 1, 2 * op.fp.N + 1, op.zg.n_k + 1
    n = nm * nn * nk
    g = xfactor_green_matrix(dual, tables).reshape(nm * nn, nk, n)
    for l in range(nk):
        proj = op.analysis_matrix @ (op.chi_slices[l][:, None] * op.synth_matrix)
        g[:, l] = proj @ g[:, l]
    return np.eye(n) - g.reshape(n, n)


def full_grid_contrast_multiply(coeffs, scene, dual, fp, zg):
    """chi*J per z slice l as analysis_matrix . diag(chi(., z_l)) .
    synthesis_matrix on the whole analysis grid (scene None: chi == 0), with
    trailing batch axes after (m, n, k)."""
    xs = analysis_grid(fp)
    synth, ana = synthesis_matrix(xs, fp), analysis_matrix(xs, dual, fp)
    c = np.asarray(coeffs, dtype=complex)
    flat = c.reshape(c.shape[0] * c.shape[1], c.shape[2], -1)
    out = np.empty_like(flat)
    for l, z in enumerate(zg.nodes):
        chi = np.zeros(len(xs)) if scene is None else contrast_at(xs, z, scene)
        out[:, l] = ana @ (chi[:, None] * (synth @ flat[:, l]))
    return out.reshape(c.shape)


# ---------------------------------------------------------------------------
# the phase-block tail that the deformed path replaced, kept as the reference
# for it: int_{w0}^inf on the real axis of integrands
# e^{-j k0^2 w^2/8 - j c/w^2} S(w).  Zone A resolves the mixed-phase region
# with panels of bounded phase variation; zone B sums half-period blocks of
# the quadratic phase and extrapolates the conditionally convergent remainder
# by repeated averaging of the partial sums.

def _psi_inverse(t, k0: float, c: float):
    """Invert psi(w) = k0^2 w^2/8 - c/w^2 for w > 0, stable for both signs of t."""
    t = np.asarray(t, dtype=float)
    disc = np.sqrt(t * t + k0 * k0 * c / 2)
    u = np.where(t >= 0, (t + disc) * 4 / (k0 * k0), 2 * c / (disc - t))
    return np.sqrt(u)


def oscillatory_tail_bounds(w0: float, k0: float, phase_coeff: float,
                            n_blocks: int, w_cap: float | None = None):
    """Panel boundaries for the two tail zones starting at w0.

    phase_coeff bounds the 1/w^2 phase contribution; zone A ends where the
    quadratic phase dominates, zone B holds n_blocks half-period blocks of
    k0^2 w^2 / 8 (extended to w_cap when given).
    """
    c = max(phase_coeff, 0.0)
    psi = lambda w: k0 * k0 * w * w / 8 - c / (w * w)
    w_s = max(w0, (27 * c / (k0 * k0)) ** 0.25) if c > 0 else w0
    if w_s > w0:
        n_a = max(1, int(np.ceil((psi(w_s) - psi(w0)) / np.pi)))
        bounds_a = _psi_inverse(np.linspace(psi(w0), psi(w_s), n_a + 1), k0, c)
        bounds_a[0] = w0
        bounds_a[-1] = w_s
    else:
        bounds_a = np.array([w0])
        w_s = w0
    phi0 = k0 * k0 * w_s * w_s / 8
    if w_cap is not None and w_cap > w_s:
        n_blocks = max(n_blocks, int(np.ceil((k0 * k0 * w_cap * w_cap / 8 - phi0) / np.pi)))
    bounds_b = np.sqrt((phi0 + np.arange(n_blocks + 1) * np.pi) * 8 / (k0 * k0))
    return bounds_a, bounds_b


def averaged_limit(block_sums: np.ndarray, depth: int = 40):
    """Limit of a conditionally convergent block series by repeated averaging.

    block_sums holds the per-block integrals along the last axis; consecutive
    blocks alternate in sign up to slow drift, so iterated means of the
    partial sums converge geometrically to the tail integral.
    """
    t = np.cumsum(block_sums, axis=-1)
    for _ in range(min(depth, t.shape[-1] - 1)):
        t = 0.5 * (t[..., :-1] + t[..., 1:])
    return t[..., -1]


def limit_weights(block_offsets: np.ndarray, n_nodes: int, depth: int = 40):
    """Per-node weights c with sum_n c_n v_n == averaged_limit(block sums of v).

    block_offsets holds the first node index of each block, as returned by
    block_panels.  averaged_limit is a fixed linear functional of the block
    sums: every block but the last depth+1 gets weight 1 and those get
    binomial tails, dyadic rationals that the averaging of the identity
    computes exactly.
    """
    per_block = averaged_limit(np.eye(len(block_offsets)), depth)
    return np.repeat(per_block, np.diff(block_offsets, append=n_nodes))


def block_panels(bounds: np.ndarray):
    """subdivided_panels over each block of bounds in turn: (nodes, weights,
    the first node index of each block)."""
    parts = [subdivided_panels(bounds[i:i + 2]) for i in range(len(bounds) - 1)]
    sizes = [len(nodes) for nodes, _ in parts]
    return (np.concatenate([nodes for nodes, _ in parts]),
            np.concatenate([weights for _, weights in parts]),
            np.cumsum([0] + sizes[:-1]))


def phase_block_tail(integrand, w0: float, k0: float, phase_coeff: float,
                     n_blocks: int = 170, depth: int = 40,
                     w_cap: float | None = None):
    """int_{w0}^inf integrand(w) dw on the real axis, integrand(w) with the
    node axis last: zone A as a plain node sum, zone B as one node sum under
    limit_weights."""
    bounds_a, bounds_b = oscillatory_tail_bounds(w0, k0, phase_coeff, n_blocks,
                                                 w_cap)
    nodes, weights, offsets = block_panels(bounds_b)
    total = integrand(nodes) @ (weights * limit_weights(offsets, len(nodes), depth))
    if len(bounds_a) > 1:
        nodes, weights, _ = block_panels(bounds_a)
        total = total + integrand(nodes) @ weights
    return total


def green_spectral_phase_blocks(r, cfg):
    """green_spectral at radii r > 0 with its tail summed in phase blocks:
    the same adaptive head on [1/E, 2/E], then phase_block_tail."""
    rc = np.asarray(r, dtype=float)[:, None]
    e, k0 = cfg.split, cfg.k0

    def head(w):
        z = zeta_path(np.atleast_1d(w), e)
        return (np.exp(-rc * rc / (z * z) + k0 * k0 * z * z / 4)
                * zeta_path_derivative(np.atleast_1d(w), e) / z)

    v = adaptive_quad(head, 1 / e, 2 / e, rtol=cfg.quad_tol)[:, 0]
    v = v + phase_block_tail(
        lambda w: np.exp(-2j * rc * rc / (w * w) - 1j * k0 * k0 * w * w / 8) / w,
        2 / e, k0, 2 * float(rc.max()) ** 2)
    return v / (2 * np.pi)


# ---------------------------------------------------------------------------
# spectral table with its tail summed in phase blocks, block by block: per d,
# the node terms are reduced to block sums and extrapolated by
# averaged_limit.  Every (q, p, d) is integrated (no mirror), in the
# kx-domain form with f~ and with g~ in its per-d form, on the package's own
# head panels.

def spectral_table_blockwise(fp, zg, cfg, n_u, n_v, head_panels=24,
                             averaging_depth=40):
    q_max, p_max = index_bounds(fp, n_u, n_v)
    qg = np.arange(-q_max, q_max + 1)[:, None, None].astype(float)
    pg = np.arange(-p_max, p_max + 1)[None, :, None].astype(float)
    ds = np.arange(-zg.n_k, zg.n_k + 1)
    e, k0 = cfg.split, cfg.k0
    w0, w1 = 1 / e, 2 / e
    phase_coeff = (8 * np.pi ** 2 * (fp.beta ** 2 * p_max ** 2
                                     + fp.alpha ** 2 * q_max ** 2) / fp.K ** 2
                   + 2 * (zg.n_k + 1) ** 2 * zg.delta ** 2)
    bounds_a, bounds_b = oscillatory_tail_bounds(
        w1, k0, phase_coeff, n_blocks=16, w_cap=200 / e)

    def node_factors(w_nodes):
        zeta = zeta_path(w_nodes, e)
        shared = (np.exp(k0 * k0 * zeta * zeta / 4)
                  * zeta_path_derivative(w_nodes, e))
        fvals = f_spectral(qg, pg, zeta[None, None, :], fp)
        gvals = np.array([g_z_spectral_per_d(d, zeta, zg) for d in ds])
        return fvals, gvals, shared

    def weighted_sum(w_nodes, weights):
        fvals, gvals, shared = node_factors(w_nodes)
        return np.einsum('qpn,dn,n->qpd', fvals, gvals, shared * weights)

    total = weighted_sum(*panel_nodes(np.linspace(w0, w1, 2 * head_panels + 1)))
    if len(bounds_a) > 1:
        total = total + weighted_sum(*block_panels(bounds_a)[:2])
    nodes_b, weights_b, block_offsets = block_panels(bounds_b)
    fvals, gvals, shared = node_factors(nodes_b)
    shared = shared * weights_b
    for di in range(len(ds)):
        node_terms = fvals * (gvals[di] * shared)[None, None, :]
        blocks = np.add.reduceat(node_terms, block_offsets, axis=-1)
        total[:, :, di] += averaged_limit(blocks, averaging_depth)
    return total


# ---------------------------------------------------------------------------
# spatial table by per-d adaptive quadrature: for each live d, quad_vec on
# [E, xc_d], xc_d that d's own envelope cutoff, plus the compactified
# remainder xi = xc_d/t, the route the fixed-node contraction replaces.  Every
# (q, p) is integrated (no mirror), with g in its per-d form.  The live-q and
# live-d rules are the package's own.

def _spatial_cutoff(d, fp, zg, cfg):
    """Where the q = 0 envelope of d falls below cfg.negligible, capped at
    100*split."""
    lo, hi = cfg.split, 100 * cfg.split
    env = lambda x: _spatial_envelope(x, d, fp, zg, cfg)
    if env(hi) > cfg.negligible:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if env(mid) > cfg.negligible:
            lo = mid
        else:
            hi = mid
    return hi


def spatial_table_adaptive(fp, zg, cfg, n_u, n_v):
    q_max, p_max = index_bounds(fp, n_u, n_v)
    qs = np.arange(-q_max, q_max + 1)
    ps = np.arange(-p_max, p_max + 1)
    data = np.zeros((len(qs), len(ps), 2 * zg.n_k + 1), dtype=complex)
    e, k0 = cfg.split, cfg.k0
    rate = x_rate(cfg.split, fp) * fp.alpha ** 2
    live_q = qs[np.exp(-rate * qs.astype(float) ** 2) >= cfg.negligible]
    qg = live_q[:, None, None].astype(float)
    pg = ps[None, :, None].astype(float)
    for di, d in enumerate(range(-zg.n_k, zg.n_k + 1)):
        if _spatial_envelope(e, d, fp, zg, cfg) <= cfg.negligible:
            continue
        xc = _spatial_cutoff(d, fp, zg, cfg)

        def body(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            shared = (np.exp(k0 * k0 / (4 * x * x)) / x
                      * g_z_spatial_per_d(d, x, zg))
            return f_spatial(qg, pg, x[None, None, :], fp) * shared

        val = adaptive_quad(lambda x: body(x)[..., 0], e, xc, rtol=cfg.quad_tol)
        val = val + adaptive_quad(lambda t: body(xc / t)[..., 0] * xc / t ** 2,
                                  1e-12, 1.0, rtol=cfg.quad_tol)
        data[live_q + q_max, :, di] = val
    return data
