"""Independent reference implementations used only by the tests.

Everything here is written against the defining formulas, not against the
package internals, so each check is a genuine dual route.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad_vec

from gaborscat.frame import spectral_dual_coeffs
from gaborscat.green import zeta_path, zeta_path_derivative
from gaborscat.kernels import f_spectral, g_z_spectral
from gaborscat.quadrature import (averaged_limit, oscillatory_tail_bounds,
                                  panel_nodes, subdivided_panels)
from gaborscat.tables import (_spectral_envelope, _spectral_head_envelope,
                              index_bounds)

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


def _x_factor_sides(op):
    """(Xf, Z) for the spatial and the spectral side of op's forward map."""
    sides = []
    for table, x_factor in ((op.spatial_table, _x_factor_spatial),
                            (op.spectral_table, _x_factor_spectral)):
        live, z = _z_blocks(table)
        sides.append((x_factor(op.fp, op.dual, live, table.q_max, table.p_max,
                               op.k0), z))
    return sides


def xfactor_green_apply(coeffs, op):
    """k0^2 (G * J) for J given as (m, n, k[, batch]), through the live (q,p)
    columns without forming G."""
    c = np.asarray(coeffs, dtype=complex)
    nm, nn, nk = c.shape[:3]
    batch = c.shape[3:]
    nb = int(np.prod(batch)) if batch else 1
    cb = c.reshape(nm * nn, nk, nb)
    c_by_k = np.ascontiguousarray(cb.transpose(1, 0, 2)).reshape(nk, -1)
    out = np.zeros((nm * nn, nk * nb), dtype=complex)
    for xf, z in _x_factor_sides(op):
        nc = z.shape[0]
        v = (z.reshape(nc * nk, nk) @ c_by_k).reshape(nc, nk, nm * nn, nb)
        v = np.ascontiguousarray(v.transpose(2, 0, 1, 3)).reshape(
            nm * nn * nc, nk * nb)
        out += xf.reshape(nm * nn, -1) @ v
    return out.reshape(c.shape)


def xfactor_green_matrix(op):
    """Dense matrix of the same map in (m*nn + n)*nk + k flattening."""
    nm, nn, nk = 2 * op.fp.M + 1, 2 * op.fp.N + 1, op.zg.n_k + 1
    n = nm * nn * nk
    out = np.zeros((n, n), dtype=complex)
    for xf, z in _x_factor_sides(op):
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


def full_system_matrix(op):
    """I - chi*G over every unknown: the x-factor Green matrix with the
    contrast projector analysis * diag(chi(., z_l)) * synthesis applied to
    the rows of each z slice l."""
    nm, nn, nk = 2 * op.fp.M + 1, 2 * op.fp.N + 1, op.zg.n_k + 1
    n = nm * nn * nk
    g = xfactor_green_matrix(op).reshape(nm * nn, nk, n)
    for l in range(nk):
        proj = op.analysis_matrix @ (op.chi_slices[l][:, None] * op.synth_matrix)
        g[:, l] = proj @ g[:, l]
    return np.eye(n) - g.reshape(n, n)


# ---------------------------------------------------------------------------
# spectral table with its phase-block tail summed block by block: per d, the
# node terms are reduced to block sums and extrapolated by averaged_limit,
# the route the weighted single-product build folds into per-node weights.
# The contour, panels and live-p rule are the package's own.

def spectral_table_blockwise(fp, zg, cfg, n_u, n_v, head_panels=24,
                             averaging_depth=40):
    q_max, p_max = index_bounds(fp, n_u, n_v)
    qs = np.arange(-q_max, q_max + 1)
    ps = np.arange(-p_max, p_max + 1)
    data = np.zeros((len(qs), len(ps), 2 * zg.n_k + 1), dtype=complex)
    e, k0 = cfg.split, cfg.k0
    w0, w1 = 1 / e, 2 / e
    live_p = ps[np.array([max(_spectral_envelope(w1, p, fp, zg),
                              _spectral_head_envelope(p, fp, zg, cfg))
                          for p in ps]) >= cfg.trunc_tol]
    qg = qs[:, None, None].astype(float)
    pg = live_p[None, :, None].astype(float)
    ds = np.arange(-zg.n_k, zg.n_k + 1)
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
        gvals = np.array([g_z_spectral(d, zeta, zg) for d in ds])
        return fvals, gvals, shared

    def weighted_sum(w_nodes, weights):
        fvals, gvals, shared = node_factors(w_nodes)
        return np.einsum('qpn,dn,n->qpd', fvals, gvals, shared * weights)

    total = weighted_sum(*panel_nodes(np.linspace(w0, w1, 2 * head_panels + 1)))
    if len(bounds_a) > 1:
        nodes_a, weights_a, _ = subdivided_panels(bounds_a)
        total = total + weighted_sum(nodes_a, weights_a)
    nodes_b, weights_b, block_offsets = subdivided_panels(bounds_b)
    fvals, gvals, shared = node_factors(nodes_b)
    shared = shared * weights_b
    for di in range(len(ds)):
        node_terms = fvals * (gvals[di] * shared)[None, None, :]
        blocks = np.add.reduceat(node_terms, block_offsets, axis=-1)
        total[:, :, di] += averaged_limit(blocks, averaging_depth)
    data[:, live_p + p_max, :] = total
    return data
