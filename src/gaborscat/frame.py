"""Gabor frame in x: Gaussian windows, canonical dual window, and the
modulated-Gaussian-sum approximation of the dual used by the analytic
coupling-integral reductions.

Every Gabor sum on a grid multiplies a shifted window (Gaussian or fitted dual)
by a modulation e^{j beta K n x}; `frame_matrix` is the one such evaluator.

The canonical dual is computed on a rational-oversampling lattice where the
frame operator block-diagonalizes over residue classes of the modulation
period (the discrete Zak / Walnut factorization); each block is solved with an
eigenvalue-thresholded inverse.  Parameters without such a lattice (alpha*beta
irrational, or 16/(alpha*beta) not an integer) are rejected.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooCoarse, IllConditionedFit, SingularFrame

TWO_QUARTER = 2.0 ** 0.25
_SAMPLES_PER_SHIFT = 16   # Zak lattice points per window shift alpha*X
_SPAN_FACTOR = 9          # Zak lattice length in lattice periods
_COND_LIMIT = 1e12        # dual fit: truncated SVD above this normal-equation condition


@dataclass(frozen=True)
class FrameParams:
    """Window width, oversampling rates, and index bounds of the frame."""
    X: float
    alpha: float
    beta: float
    M: int
    N: int

    def __post_init__(self):
        if not 0 < self.X < np.inf:
            raise DomainError("window width X must be positive and finite")
        if not (self.alpha > 0 and self.beta > 0 and self.alpha * self.beta < 1):
            raise DomainError("alpha and beta must be positive with alpha*beta < 1 "
                              "for an oversampled frame")
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
    return prod.reshape(prod.shape[:-2] + (len(ms) * len(ns),))


def analysis_grid(fp: FrameParams, oversample: int = 16) -> np.ndarray:
    """Default uniform x-grid for discrete inner products (spacing X/oversample).

    Extends 4X plus two window shifts beyond the outermost window center, so
    Gaussian tails at the ends are below 1e-14.
    """
    h = fp.X / oversample
    half = (fp.M + 2) * fp.alpha * fp.X + 4 * fp.X
    n = int(np.ceil(half / h))
    return np.arange(-n, n + 1) * h


def zak_period(fp: FrameParams) -> int:
    """Modulation period _SAMPLES_PER_SHIFT/(alpha*beta) of the Zak lattice,
    in samples; a DomainError when it is not an integer (no such lattice)."""
    period = _SAMPLES_PER_SHIFT / (fp.alpha * fp.beta)
    if abs(period - round(period)) > 1e-6:
        raise DomainError(
            f"{_SAMPLES_PER_SHIFT} samples per window shift do not yield an "
            f"integer modulation period for alpha*beta = "
            f"{fp.alpha * fp.beta:.6g}; {_SAMPLES_PER_SHIFT}/(alpha*beta) must "
            f"be an integer")
    return round(period)


def zak_dual_window(fp: FrameParams, *, sv_tol: float = 1e-12):
    """Canonical (minimum-norm) dual window sampled on a rational lattice.

    Returns (x_grid, eta) on an internal lattice with _SAMPLES_PER_SHIFT
    points per window shift, _SPAN_FACTOR lattice periods long.

    Raises DomainError when the parameters have no such lattice (see
    zak_period), and SingularFrame when any frame-operator block has an
    eigenvalue below sv_tol relative to the largest (no usable dual at these
    alpha, beta).
    """
    a_hop = _SAMPLES_PER_SHIFT
    m_disc = zak_period(fp)
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


def fit_dual_coeffs(eta_sampled: np.ndarray, grid: np.ndarray, n_u: int, n_v: int,
                    fp: FrameParams) -> DualWindow:
    """Least-squares fit of the sampled dual by a modulated-Gaussian sum.

    One SVD solve whose cutoff sqrt(1/_COND_LIMIT) of the largest singular
    value truncates only when the normal-equation condition number exceeds
    _COND_LIMIT; then it warns (IllConditionedFit).
    """
    if n_u < 0 or n_v < 0:
        raise DomainError("fit bounds must be nonnegative")
    xs = np.asarray(grid, dtype=float)
    design = frame_matrix(xs, np.arange(-n_u, n_u + 1), np.arange(-n_v, n_v + 1), fp)
    coef, _, _, sv = np.linalg.lstsq(design, eta_sampled,
                                     rcond=np.sqrt(1.0 / _COND_LIMIT))
    cond_normal = (sv[0] / sv[-1]) ** 2
    if cond_normal > _COND_LIMIT:
        warnings.warn(
            f"normal-equation condition {cond_normal:.2e} exceeds {_COND_LIMIT:.0e}; "
            "using truncated-SVD fit", IllConditionedFit)
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


def analysis_matrix(grid: np.ndarray, dw: DualWindow, fp: FrameParams,
                    points: np.ndarray | None = None) -> np.ndarray:
    """Discrete inner products <., eta_mn> on the uniform grid as a matrix,
    rows in m*(2N+1) + n order: h conj(eta_mn(x)), shape
    ((2M+1)(2N+1), len(grid)); with `points`, only the columns at grid[points],
    still weighted by the spacing h of grid."""
    h = float(grid[1] - grid[0])
    if h > fp.X / 8 * (1 + 1e-12):
        raise GridTooCoarse(f"grid spacing {h:.4g} exceeds X/8 = {fp.X / 8:.4g}")
    xs = grid if points is None else grid[points]
    ana = frame_matrix(xs, fp.m_range, fp.n_range, fp, dw).T
    np.conjugate(ana, out=ana)
    ana *= h
    return ana


def synthesis_matrix(grid: np.ndarray, fp: FrameParams) -> np.ndarray:
    """Frame elements g_mn on the grid as a matrix, columns in m*(2N+1) + n
    order, shape (len(grid), (2M+1)(2N+1))."""
    return frame_matrix(grid, fp.m_range, fp.n_range, fp)


def synthesize(coeffs: np.ndarray, grid: np.ndarray, fp: FrameParams) -> np.ndarray:
    """Pointwise frame sum sum_mn c_mn g_mn(x) on the grid; coeffs may carry
    trailing batch axes after (m, n)."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape[:2] != (2 * fp.M + 1, 2 * fp.N + 1):
        raise DomainError("coefficient array shape inconsistent with FrameParams")
    out = synthesis_matrix(grid, fp) @ c.reshape(c.shape[0] * c.shape[1], -1)
    return out.reshape((len(grid),) + c.shape[2:])
