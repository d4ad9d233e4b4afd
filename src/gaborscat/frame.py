"""Gabor frame in x: Gaussian windows, canonical dual window, and the
modulated-Gaussian-sum approximation of the dual used by the analytic
coupling-integral reductions.

Every Gabor sum on a grid multiplies a shifted window (Gaussian or fitted dual)
by a modulation e^{j beta K n x}; `frame_matrix` is the one such evaluator.

The canonical dual is computed on a rational-oversampling lattice where the
frame operator block-diagonalizes over residue classes of the modulation
period (the discrete Zak / Walnut factorization); each block is solved with an
eigenvalue-thresholded inverse.  For irrational alpha*beta no such lattice
exists and `lstsq_dual_window` provides the dense fallback.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooCoarse, IllConditionedFit, SingularFrame

TWO_QUARTER = 2.0 ** 0.25
_SAMPLES_PER_SHIFT = 16   # Zak lattice points per window shift alpha*X
_SPAN_FACTOR = 9          # Zak lattice length in lattice periods
_COND_LIMIT = 1e12        # dual fit: truncated SVD above this normal-equation condition
_LSTSQ_SV_CUT = 1e-2      # dense dual: relative singular-value floor of the frame span


@dataclass(frozen=True)
class FrameParams:
    """Window width, oversampling rates, and index bounds of the frame."""
    X: float
    alpha: float
    beta: float
    M: int
    N: int

    def __post_init__(self):
        if self.X <= 0:
            raise DomainError("window width X must be positive")
        if not 0 < self.alpha * self.beta < 1:
            raise DomainError("alpha*beta must lie in (0, 1) for an oversampled frame")
        if self.M < 0 or self.N < 0:
            raise DomainError("index bounds M, N must be nonnegative")

    @property
    def K(self) -> float:
        """Spectral step 2*pi/X."""
        return 2 * np.pi / self.X

    @property
    def m_range(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)

    @property
    def n_range(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)


@dataclass(frozen=True)
class DualWindow:
    """Modulated-Gaussian-sum coefficients approximating the dual window."""
    a: np.ndarray          # complex, shape (2*n_u+1, 2*n_v+1)
    n_u: int
    n_v: int
    residual: float        # relative L2 misfit against the sampled dual
    condition: float = 0.0

    def __post_init__(self):
        if self.a.shape != (2 * self.n_u + 1, 2 * self.n_v + 1):
            raise DomainError("coefficient array shape inconsistent with (n_u, n_v)")
        if not np.all(np.isfinite(self.a)):
            raise DomainError("dual-window coefficients must be finite")


def window_value(x, fp: FrameParams):
    """Gaussian window 2^(1/4) exp(-pi x^2 / X^2)."""
    x = np.asarray(x, dtype=float)
    return TWO_QUARTER * np.exp(-np.pi * x * x / (fp.X * fp.X))


def _shifted_windows(x, ms, fp: FrameParams, dual: DualWindow | None = None):
    """Window (or fitted dual) at x - alpha m X, over a trailing m axis."""
    shifted = np.asarray(x, dtype=float)[..., None] - fp.alpha * np.asarray(ms) * fp.X
    return window_value(shifted, fp) if dual is None \
        else dual_window_value(shifted, dual, fp)


def _modulations(x, ns, fp: FrameParams):
    """Modulations e^{j beta K n x}, over a trailing n axis."""
    x = np.asarray(x, dtype=float)
    return np.exp(1j * fp.beta * fp.K * np.multiply.outer(x, ns))


def frame_matrix(x, ms, ns, fp: FrameParams, dual: DualWindow | None = None):
    """Frame elements g(x - alpha m X) e^{j beta K n x} over one trailing axis
    in m*len(ns) + n order, shape x.shape + (len(ms)*len(ns),); with `dual`
    the window g is replaced by the fitted dual window eta."""
    prod = _shifted_windows(x, ms, fp, dual)[..., :, None] \
        * _modulations(x, ns, fp)[..., None, :]
    return prod.reshape(prod.shape[:-2] + (-1,))


def frame_element(x, m: int, n: int, fp: FrameParams):
    """Shifted, modulated window g(x - alpha m X) e^{j beta K n x}."""
    return frame_matrix(x, [m], [n], fp)[..., 0]


def spectral_window_value(kx, fp: FrameParams):
    """Fourier transform of the window, 2^(1/4) X exp(-pi kx^2 / K^2)."""
    kx = np.asarray(kx, dtype=float)
    return TWO_QUARTER * fp.X * np.exp(-np.pi * kx * kx / (fp.K * fp.K))


def spectral_frame_element(kx, n: int, m: int, fp: FrameParams):
    """Spectral frame element ghat(kx - n beta K) e^{-j m alpha X kx}.

    The forward transform of frame_element(., m, n) equals
    e^{2 pi j alpha beta m n} times this element.
    """
    kx = np.asarray(kx, dtype=float)
    return (spectral_window_value(kx - n * fp.beta * fp.K, fp)
            * np.exp(-1j * m * fp.alpha * fp.X * kx))


def analysis_grid(fp: FrameParams, oversample: int = 16) -> np.ndarray:
    """Default uniform x-grid for discrete inner products (spacing X/oversample).

    Extends 4X plus two window shifts beyond the outermost window center, so
    Gaussian tails at the ends are below 1e-14.
    """
    h = fp.X / oversample
    half = (fp.M + 2) * fp.alpha * fp.X + 4 * fp.X
    n = int(np.ceil(half / h))
    return np.arange(-n, n + 1) * h


def zak_dual_window(fp: FrameParams, *, sv_tol: float = 1e-12):
    """Canonical (minimum-norm) dual window sampled on a rational lattice.

    Returns (x_grid, eta) on an internal lattice with _SAMPLES_PER_SHIFT
    points per window shift, _SPAN_FACTOR lattice periods long.

    Raises SingularFrame when any frame-operator block has an eigenvalue below
    sv_tol relative to the largest (no usable dual at these alpha, beta).
    """
    a_hop = _SAMPLES_PER_SHIFT
    m_disc = a_hop / (fp.alpha * fp.beta)
    if abs(m_disc - round(m_disc)) > 1e-6:
        raise DomainError(
            f"{a_hop} samples per window shift do not yield an integer "
            "modulation period for alpha*beta; use lstsq_dual_window")
    m_disc = round(m_disc)
    h = fp.alpha * fp.X / a_hop
    length = int(np.lcm(a_hop, m_disc)) * _SPAN_FACTOR
    xs = (np.arange(length) - length // 2) * h

    g = window_value(xs, fp)
    n_hops = length // a_hop
    block = length // m_disc
    gamma = np.zeros(length)
    ev_min, ev_max = np.inf, 0.0
    hops = a_hop * np.arange(n_hops)[:, None]
    blocks = []
    for r in range(m_disc):
        idx = r + m_disc * np.arange(block)
        gn = g[(idx[None, :] - hops) % length]        # (n_hops, block)
        s_r = m_disc * (gn.T @ gn)
        ev = np.linalg.eigvalsh(s_r)
        ev_min = min(ev_min, ev[0])
        ev_max = max(ev_max, ev[-1])
        blocks.append((idx, s_r))
    if ev_min < sv_tol * ev_max:
        raise SingularFrame(
            f"frame-operator eigenvalue ratio {ev_min / ev_max:.3e} below {sv_tol:.0e} "
            f"(alpha*beta = {fp.alpha * fp.beta:.6f})")
    for idx, s_r in blocks:
        gamma[idx] = np.linalg.solve(s_r, g[idx])
    return xs, gamma / h     # continuous normalization: <f, eta> as an integral


def lstsq_dual_window(fp: FrameParams, grid: np.ndarray):
    """Dense frame-operator dual for lattices without a rational structure.

    Solves S eta = g with S = sum_mn <., g_mn> g_mn discretized on the grid
    (pseudo-inverse restricted to the frame span), over a box of shifts large
    enough to emulate the infinite lattice near the center.  The true frame
    operator has a spectral floor; singular values below _LSTSQ_SV_CUT of the
    top belong to box-edge artifacts and are dropped (this covers
    oversampling up to alpha*beta ~ 0.9).  Best-effort fallback: accurate to
    a few 1e-3 near the center, degrading toward the box edge.
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


def fit_dual_coeffs(eta_sampled: np.ndarray, grid: np.ndarray, n_u: int, n_v: int,
                    fp: FrameParams) -> DualWindow:
    """Least-squares fit of the sampled dual by a modulated-Gaussian sum.

    Falls back to a truncated-SVD solution (with an IllConditionedFit warning)
    when the normal-equation condition number exceeds _COND_LIMIT.
    """
    if n_u < 0 or n_v < 0:
        raise DomainError("fit bounds must be nonnegative")
    xs = np.asarray(grid, dtype=float)
    design = frame_matrix(xs, np.arange(-n_u, n_u + 1), np.arange(-n_v, n_v + 1), fp)
    sv = np.linalg.svd(design, compute_uv=False)
    cond_normal = (sv[0] / sv[-1]) ** 2
    if cond_normal > _COND_LIMIT:
        warnings.warn(
            f"normal-equation condition {cond_normal:.2e} exceeds {_COND_LIMIT:.0e}; "
            "using truncated-SVD fit", IllConditionedFit)
        rcond = np.sqrt(1.0 / _COND_LIMIT)
        coef, *_ = np.linalg.lstsq(design, eta_sampled, rcond=rcond)
    else:
        coef, *_ = np.linalg.lstsq(design, eta_sampled, rcond=None)
    resid = (np.linalg.norm(design @ coef - eta_sampled)
             / np.linalg.norm(eta_sampled))
    return DualWindow(a=coef.reshape(2 * n_u + 1, 2 * n_v + 1),
                      n_u=n_u, n_v=n_v, residual=float(resid),
                      condition=float(cond_normal))


def dual_window_value(x, dw: DualWindow, fp: FrameParams):
    """Evaluate the fitted dual window sum_{uv} a_uv g_uv(x), contracting the
    window and modulation factors separately."""
    return np.einsum("...u,uv,...v->...",
                     _shifted_windows(x, np.arange(-dw.n_u, dw.n_u + 1), fp),
                     dw.a, _modulations(x, np.arange(-dw.n_v, dw.n_v + 1), fp))


def spectral_dual_coeffs(dw: DualWindow, fp: FrameParams) -> np.ndarray:
    """Coefficients of the Fourier-transformed dual in the spectral frame.

    FT(g_uv) = e^{2 pi j alpha beta u v} ghat_vu, so the transformed sum reads
    sum ahat[u', v'] ghat_{u'v'} with ahat[u', v'] = a[v', u'] e^{2 pi j ab u'v'};
    the primed u' indexes the kx shift (bound n_v) and v' the phase (bound n_u).
    """
    uh = np.arange(-dw.n_v, dw.n_v + 1)[:, None]
    vh = np.arange(-dw.n_u, dw.n_u + 1)[None, :]
    return dw.a.T * np.exp(2j * np.pi * fp.alpha * fp.beta * uh * vh)


def analysis_matrix(grid: np.ndarray, dw: DualWindow, fp: FrameParams) -> np.ndarray:
    """Discrete inner products <., eta_mn> on the grid as a matrix, rows in
    m*(2N+1) + n order: h conj(eta_mn(x)), shape ((2M+1)(2N+1), len(grid))."""
    h = float(grid[1] - grid[0])
    if h > fp.X / 8 * (1 + 1e-12):
        raise GridTooCoarse(f"grid spacing {h:.4g} exceeds X/8 = {fp.X / 8:.4g}")
    ana = frame_matrix(grid, fp.m_range, fp.n_range, fp, dw).T
    np.conjugate(ana, out=ana)
    ana *= h
    return ana


def synthesis_matrix(grid: np.ndarray, fp: FrameParams) -> np.ndarray:
    """Frame elements g_mn on the grid as a matrix, columns in m*(2N+1) + n
    order, shape (len(grid), (2M+1)(2N+1))."""
    return frame_matrix(grid, fp.m_range, fp.n_range, fp)


def analyze(f_sampled: np.ndarray, grid: np.ndarray, dw: DualWindow,
            fp: FrameParams) -> np.ndarray:
    """Frame coefficients <f, eta_mn> by discrete inner products on the grid.

    f_sampled may carry trailing batch axes after the grid axis.
    """
    f = np.asarray(f_sampled)
    coeffs = analysis_matrix(grid, dw, fp) @ f.reshape(len(f), -1)
    return coeffs.reshape((2 * fp.M + 1, 2 * fp.N + 1) + f.shape[1:])


def synthesize(coeffs: np.ndarray, grid: np.ndarray, fp: FrameParams) -> np.ndarray:
    """Pointwise frame sum sum_mn c_mn g_mn(x) on the grid; coeffs may carry
    trailing batch axes after (m, n)."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape[:2] != (2 * fp.M + 1, 2 * fp.N + 1):
        raise DomainError("coefficient array shape inconsistent with FrameParams")
    out = synthesis_matrix(grid, fp) @ c.reshape(c.shape[0] * c.shape[1], -1)
    return out.reshape((len(grid),) + c.shape[2:])
