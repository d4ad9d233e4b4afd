"""Discrete forward map from contrast-source coefficients to scattered-field
coefficients.

Both coupling tables enter through the index rules q = m-s-u, p = n+t+v
(spatial) and q = s+v-m, p = n+t+u (spectral), so for each output/input
spectral pair (t, n) the map depends on the spatial indices only through m-s
and on the triangle indices only through k-l.  build_operator folds the two
tables, their dual-window (u, v) sums and the scalar prefactors (k0^2,
X^2/sqrt(pi), X*sqrt(2/pi)) into one kernel

    K[t, n, r = m-s, d = k-l],   shape (2N+1, 2N+1, 4M+1, 2 n_k+1),

and the map reads

    G[(s,t,l),(m,n,k)] = e^{-2 pi j ab s t} e^{+2 pi j ab m n}
                         ([k < n_k] K[t,n,m-s,k-l] + [k > 0] K[t,n,m-s,l-k]),

the masks dropping the triangle half that the z-interval boundary cuts away.
green_apply runs the (m, k) correlations with zero-padded FFTs against the
precomputed kernel DFT; assemble_dense gathers G from K for the direct solve,
over the active z slices only (those where chi is nonzero somewhere on the
grid): on any other slice the contrast projector is exactly zero, so its rows
of I - chi*G are identity rows and its unknowns equal J_inc there.
The prefactors and the spectral-to-spatial conversion phase are pinned by the
end-to-end unit-source test against brute-force quadrature of the exact Green
function.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import DimensionMismatch, SizeCap
from .frame import (DualWindow, FrameParams, analysis_grid, analysis_matrix,
                    spectral_dual_coeffs, synthesis_matrix)
from .kernels import ZGrid
from .scene import Scene, contrast_at
from .tables import KernelTable


def coeff_shape(fp: FrameParams, zg: ZGrid) -> tuple[int, int, int]:
    return (2 * fp.M + 1, 2 * fp.N + 1, zg.n_k + 1)


def _check_coeffs(c: np.ndarray, fp: FrameParams, zg: ZGrid):
    if c.shape[:3] != coeff_shape(fp, zg):
        raise DimensionMismatch(
            f"coefficient shape {c.shape[:3]} != {coeff_shape(fp, zg)}")


def _diag_phase(fp: FrameParams) -> np.ndarray:
    """Column phase e^{+2 pi j ab m n} over (m, n); its conjugate is the row
    phase e^{-2 pi j ab s t}."""
    return np.exp(2j * np.pi * fp.alpha * fp.beta * np.outer(fp.m_range, fp.n_range))


def _fold_table(kernel: np.ndarray, table: KernelTable, fp: FrameParams,
                terms, q_sign: int):
    """kernel[t, n, r, :] += sum over terms (dq, dp, w) of
    w[t, n] * T[q_sign*r + dq, n + t + dp, :] for r in [-2M, 2M]."""
    nn, _, nr, _ = kernel.shape
    data = table.data if q_sign > 0 else table.data[::-1]    # q -> -q
    for dq, dp, w in terms:
        q_lo = table.q_max + q_sign * dq - 2 * fp.M
        for it, t in enumerate(fp.n_range):
            p_lo = table.p_max + t + dp - fp.N
            if min(q_lo, p_lo) < 0 or q_lo + nr > data.shape[0] \
                    or p_lo + nn > data.shape[1]:
                raise DimensionMismatch(
                    f"{table.kind} table index box too small for the dual window")
            block = data[q_lo:q_lo + nr, p_lo:p_lo + nn, :]     # (r, n, d)
            kernel[it] += w[it][:, None, None] * block.transpose(1, 0, 2)


def _fold_kernel(fp: FrameParams, dual: DualWindow, spatial_table: KernelTable,
                 spectral_table: KernelTable, k0: float) -> np.ndarray:
    """Both tables folded into K[t, n, r = m-s, d = k-l] (diagonal phases excluded).

    Spatial side: q = m-s-u, p = n+t+v with weight
    conj(a_uv) e^{-2 pi j ab u (t+v)} e^{-pi/2 beta^2 (v+t-n)^2}.
    Spectral side: q = s+v'-m, p = n+t+u' with weight
    conj(ahat_u'v') e^{-2 pi j ab t v'} e^{-pi/2 beta^2 (u'+t-n)^2}.
    """
    ab = fp.alpha * fp.beta
    nn = 2 * fp.N + 1
    t_g = fp.n_range[:, None]
    n_g = fp.n_range[None, :]
    kernel = np.zeros((nn, nn, 4 * fp.M + 1, 2 * spatial_table.zg.n_k + 1),
                      dtype=complex)

    def decay(shift):
        return np.exp(-np.pi / 2 * fp.beta ** 2 * (shift + t_g - n_g) ** 2)

    pref = k0 * k0 * fp.X ** 2 / np.sqrt(np.pi)
    spatial = [(-u, v, pref * np.conj(dual.a[iu, iv])
                * np.exp(-2j * np.pi * ab * u * (t_g + v)) * decay(v))
               for iu, u in enumerate(range(-dual.n_u, dual.n_u + 1))
               for iv, v in enumerate(range(-dual.n_v, dual.n_v + 1))]
    _fold_table(kernel, spatial_table, fp, spatial, q_sign=1)

    pref = k0 * k0 * fp.X * np.sqrt(2 / np.pi)
    a_hat = spectral_dual_coeffs(dual, fp)               # (2 n_v+1, 2 n_u+1)
    spectral = [(vh, uh, pref * np.conj(a_hat[ih, jv])
                 * np.exp(-2j * np.pi * ab * t_g * vh) * decay(uh))
                for ih, uh in enumerate(range(-dual.n_v, dual.n_v + 1))
                for jv, vh in enumerate(range(-dual.n_u, dual.n_u + 1))]
    _fold_table(kernel, spectral_table, fp, spectral, q_sign=-1)
    return kernel


def _kernel_fft(kernel: np.ndarray) -> np.ndarray:
    """2-D DFT over (r, d) of the kernel placed for circular correlation.

    Entry (r, d) sits at ((-r) mod L_m, (-d) mod L_k); L_m >= 4M+1 and
    L_k >= 2n_k+1 keep every offset distinct, so the circular correlation of a
    zero-padded (m, k) input equals the linear one.  Layout (L_m, L_k, t, n).
    """
    nt, nn, nr, nd = kernel.shape
    lm, lk = scipy.fft.next_fast_len(nr), scipy.fft.next_fast_len(nd)
    r = np.arange(nr) - nr // 2
    d = np.arange(nd) - nd // 2
    circ = np.zeros((lm, lk, nt, nn), dtype=complex)
    circ[(-r % lm)[:, None], (-d % lk)[None, :]] = kernel.transpose(2, 3, 0, 1)
    return scipy.fft.fft2(circ, axes=(0, 1))


@dataclass
class DiscreteOperator:
    """Folded forward-map kernel and its DFT, the x-grid synthesis/analysis
    matrices and the sampled contrast slices."""
    fp: FrameParams
    zg: ZGrid
    k0: float
    dual: DualWindow
    spatial_table: KernelTable
    spectral_table: KernelTable
    grid: np.ndarray
    chi_slices: np.ndarray                   # (n_k+1, ngrid), real
    kernel: np.ndarray = field(repr=False)          # (t, n, r, d)
    kernel_fft: np.ndarray = field(repr=False)      # (L_m, L_k, t, n)
    synth_matrix: np.ndarray = field(repr=False)    # (ngrid, (2M+1)(2N+1))
    analysis_matrix: np.ndarray = field(repr=False)  # ((2M+1)(2N+1), ngrid)

    @property
    def n_unknowns(self) -> int:
        nm, nn, nk = coeff_shape(self.fp, self.zg)
        return nm * nn * nk


def build_operator(scene: Scene | None, fp: FrameParams, zg: ZGrid,
                   dual: DualWindow, spatial_table: KernelTable,
                   spectral_table: KernelTable) -> DiscreteOperator:
    """Fold the tables into the operator kernel; scene=None means chi == 0."""
    for t in (spatial_table, spectral_table):
        if t.fp != fp or t.zg != zg:
            raise DimensionMismatch("table metadata inconsistent with fp/zg")
    xs = analysis_grid(fp)
    k0 = spatial_table.cfg.k0
    if scene is None:
        chi = np.zeros((zg.n_k + 1, len(xs)))
    else:
        chi = np.array([contrast_at(xs, z_k, scene) for z_k in zg.nodes])

    kernel = _fold_kernel(fp, dual, spatial_table, spectral_table, k0)
    return DiscreteOperator(
        fp=fp, zg=zg, k0=k0, dual=dual, spatial_table=spatial_table,
        spectral_table=spectral_table, grid=xs, chi_slices=chi,
        kernel=kernel, kernel_fft=_kernel_fft(kernel),
        synth_matrix=synthesis_matrix(xs, fp),
        analysis_matrix=analysis_matrix(xs, dual, fp))


def green_apply(coeffs: np.ndarray, op: DiscreteOperator) -> np.ndarray:
    """Scattered-field coefficients k0^2 (G * J) for J given as (m, n, k[, batch]).

    Per output t, sum over n of two correlations over (m, k) with the kernel
    K[t, n]: K[m-s, k-l] against the input masked to k < n_k, and K[m-s, l-k]
    against the input masked to k > 0.  The second is the first applied to
    the k-reversed input and read back reversed in l, so both share one kernel
    DFT; the sum over n is a matmul per frequency.
    """
    c = np.asarray(coeffs, dtype=complex)
    _check_coeffs(c, op.fp, op.zg)
    nm, nn, nk = coeff_shape(op.fp, op.zg)
    nb = int(np.prod(c.shape[3:])) if c.ndim > 3 else 1
    phase = _diag_phase(op.fp)
    y = c.reshape(nm, nn, nk, nb) * phase[:, :, None, None]
    lm, lk = op.kernel_fft.shape[:2]
    padded = np.zeros((lm, lk, nn, 2, nb), dtype=complex)
    padded[:nm, :nk - 1, :, 0] = y[:, :, :-1].transpose(0, 2, 1, 3)    # k < n_k
    padded[:nm, :nk - 1, :, 1] = y[:, :, :0:-1].transpose(0, 2, 1, 3)  # k > 0
    spec = scipy.fft.fft2(padded.reshape(lm, lk, nn, 2 * nb), axes=(0, 1))
    corr = scipy.fft.ifft2(op.kernel_fft @ spec, axes=(0, 1))[:nm, :nk]
    corr = corr.reshape(nm, nk, nn, 2, nb)
    out = corr[:, :, :, 0] + corr[:, ::-1, :, 1]              # (s, l, t, batch)
    out = out.transpose(0, 2, 1, 3) * np.conj(phase)[:, :, None, None]
    return out.reshape(c.shape)


def contrast_multiply(coeffs: np.ndarray, op: DiscreteOperator) -> np.ndarray:
    """Per-slice multiply by chi(x, z_l): synthesize, scale, analyze back."""
    c = np.asarray(coeffs, dtype=complex)
    _check_coeffs(c, op.fp, op.zg)
    nm, nn, nk = coeff_shape(op.fp, op.zg)
    nb = int(np.prod(c.shape[3:])) if c.ndim > 3 else 1
    flat = c.reshape(nm * nn, nk * nb)
    fields = (op.synth_matrix @ flat).reshape(-1, nk, nb)
    fields *= op.chi_slices.T[:, :, None]
    out = op.analysis_matrix @ fields.reshape(-1, nk * nb)
    return out.reshape(c.shape)


def forward_residual(coeffs: np.ndarray, inc_coeffs: np.ndarray,
                     op: DiscreteOperator) -> np.ndarray:
    """Residual J - J_inc - chi*(G J) of the contrast-source equation."""
    c = np.asarray(coeffs, dtype=complex)
    j0 = np.asarray(inc_coeffs, dtype=complex)
    _check_coeffs(c, op.fp, op.zg)
    if j0.shape != c.shape:
        raise DimensionMismatch("J and J_inc shapes differ")
    return c - j0 - contrast_multiply(green_apply(c, op), op)


def active_slices(op: DiscreteOperator) -> np.ndarray:
    """Indices l of the z slices where chi(., z_l) is nonzero somewhere on the
    grid; only these carry unknowns that the direct solve has to factor."""
    return np.flatnonzero(np.any(op.chi_slices != 0, axis=1))


def assemble_green_matrix(op: DiscreteOperator,
                          slices: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of green_apply restricted to the given z slices (all by
    default), in (m*nn + n)*n_slices + i flattening for slice slices[i].

    Gathered from the kernel one m-s block at a time:
    G[(s,t,l),(m,n,k)] = e^{-2 pi j ab s t} e^{+2 pi j ab m n}
                         ([k < n_k] K[t,n,m-s,k-l] + [k > 0] K[t,n,m-s,l-k]).
    """
    nm, nn, nk = coeff_shape(op.fp, op.zg)
    n_k, two_m = nk - 1, 2 * op.fp.M
    idx = np.arange(nk) if slices is None else np.asarray(slices)
    na = len(idx)
    d_fall = idx[None, :] - idx[:, None] + n_k           # [l, k] -> k - l
    d_rise = idx[:, None] - idx[None, :] + n_k           # [l, k] -> l - k
    phase = _diag_phase(op.fp)
    g = np.empty((nm, nn, na, nm, nn, na), dtype=complex)
    for r in range(-two_m, two_m + 1):
        k_r = op.kernel[:, :, r + two_m]                 # (t, n, d)
        z = k_r[:, :, d_fall] * (idx < n_k) + k_r[:, :, d_rise] * (idx > 0)
        s_idx = np.arange(max(0, -r), min(nm, nm - r))
        m_idx = s_idx + r
        g[s_idx, :, :, m_idx] = (np.conj(phase)[s_idx, :, None, None, None]
                                 * z.transpose(0, 2, 1, 3)[None]
                                 * phase[m_idx][:, None, None, :, None])
    return g.reshape(nm * nn * na, nm * nn * na)


def assemble_dense(op: DiscreteOperator, cap: int = 8000) -> np.ndarray:
    """System matrix I - chi*G over the unknowns of the active z slices, in
    (m*nn + n)*n_active + i flattening for slice active_slices(op)[i].

    This is exact: on a slice where chi == 0 the contrast projector below is
    exactly zero, so that slice's rows of the full I - chi*G are identity rows
    and its right-hand side analyze(chi*E_inc) is exactly zero; its unknowns
    are J = J_inc = 0 and their columns drop out.  cap bounds the active
    unknowns.  The contrast multiplication acts on each z slice l separately,
    as the (nm*nn)^2 projector analysis * diag(chi(., z_l)) * synthesis, which
    is formed once per slice instead of synthesizing every column on the grid.
    """
    active = active_slices(op)
    nm, nn, _ = coeff_shape(op.fp, op.zg)
    n = nm * nn * len(active)
    if n > cap:
        raise SizeCap(
            f"{n} active unknowns exceed the dense cap {cap}; "
            "use the iterative solver")
    a = assemble_green_matrix(op, active)
    by_slice = a.reshape(nm * nn, len(active), n)
    for i, l in enumerate(active):
        proj = op.analysis_matrix @ (op.chi_slices[l][:, None] * op.synth_matrix)
        by_slice[:, i] = proj @ by_slice[:, i]
    a *= -1
    a[np.arange(n), np.arange(n)] += 1
    return a
