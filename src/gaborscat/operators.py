"""Discrete forward map from contrast-source coefficients to scattered-field
coefficients.

The two coupling tables hold the one Ewald integrand over complementary parts
of the contour, so their sum is the whole coupling integral and it enters
through the index rules q = m-s-u, p = n+t+v.  For each output/input spectral
pair (t, n) the map therefore depends on the spatial indices only through m-s
and on the triangle indices only through k-l.  build_operator folds the
summed table, the dual-window (u, v) sum and the scalar prefactor
k0^2 X^2/sqrt(pi) into one kernel

    K[t, n, r = m-s, d = k-l],   shape (2N+1, 2N+1, 4M+1, 2 n_k+1),

and the map reads

    G[(s,t,l),(m,n,k)] = e^{-2 pi j ab s t} e^{+2 pi j ab m n}
                         ([k < n_k] K[t,n,m-s,k-l] + [k > 0] K[t,n,m-s,l-k]),

the masks dropping the triangle half that the z-interval boundary cuts away.
The operator holds K only as its 2-D DFT over (r, d), which depends on the
tables and the dual coefficients alone, so it is cached on disk next to the
tables (tables.save_kernel_fft) and a warm build skips the fold.
green_apply runs the (m, k) correlations with zero-padded FFTs against that
DFT, in place in a workspace the operator holds; assemble_dense gathers G
from K, recovered by one inverse DFT, for the direct solve, over the active z
slices only (those where chi is nonzero somewhere on the grid): on any other
slice the contrast projector is exactly zero, so its rows of I - chi*G are
identity rows and its unknowns equal J_inc there.
The x-matrices and chi samples are kept only on the support of chi, the grid
points where it is nonzero on some z slice: every product through them is
weighted by chi, so the other points contribute exact zeros.
The prefactor and the phases are pinned by the end-to-end unit-source test
against brute-force quadrature of the exact Green function.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, SizeCap, check_memory
from .frame import (DualWindow, FrameParams, analysis_grid, analysis_matrix,
                    synthesis_matrix)
from .kernels import ZGrid
from .scene import Scene, contrast_at
from .tables import (KernelTable, cached, kernel_cache_path, load_kernel_fft,
                     save_kernel_fft)

_DENSE_CAP = 8000       # active unknowns the direct solve may factor


def coeff_shape(fp: FrameParams, zg: ZGrid) -> tuple[int, int, int]:
    return (2 * fp.M + 1, 2 * fp.N + 1, zg.n_k + 1)


def _check_coeffs(c: np.ndarray, fp: FrameParams, zg: ZGrid):
    if c.shape != coeff_shape(fp, zg):
        raise DimensionMismatch(
            f"coefficient shape {c.shape} != {coeff_shape(fp, zg)}")


def _diag_phase(fp: FrameParams) -> np.ndarray:
    """Column phase e^{+2 pi j ab m n} over (m, n); its conjugate is the row
    phase e^{-2 pi j ab s t}."""
    return np.exp(2j * np.pi * fp.alpha * fp.beta * np.outer(fp.m_range, fp.n_range))


def _fold_kernel(fp: FrameParams, dual: DualWindow, spatial_table: KernelTable,
                 spectral_table: KernelTable) -> np.ndarray:
    """Both tables folded into K[t, n, r = m-s, d = k-l] (diagonal phases excluded).

    The summed table T[q, p] = T_spatial + T_spectral is read at q = m-s-u,
    p = n+t+v with weight
    pref conj(a_uv) e^{-2 pi j ab u (t+v)} e^{-pi/2 beta^2 (v+t-n)^2}.
    """
    ab = fp.alpha * fp.beta
    nn, nr = 2 * fp.N + 1, 4 * fp.M + 1
    # both tables hold exactly the box read below: build_operator checks
    # that they were built for this dual window's (n_u, n_v)
    q_max, p_max = spatial_table.q_max, spatial_table.p_max
    k0 = spatial_table.cfg.k0
    pref = k0 * k0 * fp.X ** 2 / np.sqrt(np.pi)
    # as one (p, q, d) array, so each block read below is contiguous over
    # (q, d) for every p
    combined = np.ascontiguousarray(
        (spatial_table.data + spectral_table.data).transpose(1, 0, 2))

    t_g = fp.n_range[:, None]
    n_g = fp.n_range[None, :]
    kernel = np.zeros((nn, nn, nr, combined.shape[2]), dtype=complex)
    term = np.empty(kernel.shape[1:], dtype=complex)           # (n, r, d)
    for iu, u in enumerate(range(-dual.n_u, dual.n_u + 1)):
        q_lo = q_max - u - 2 * fp.M
        for iv, v in enumerate(range(-dual.n_v, dual.n_v + 1)):
            w = (pref * np.conj(dual.a[iu, iv])
                 * np.exp(-2j * np.pi * ab * u * (t_g + v))
                 * np.exp(-np.pi / 2 * fp.beta ** 2 * (v + t_g - n_g) ** 2))
            for it, t in enumerate(fp.n_range):
                p_lo = p_max + t + v - fp.N
                np.multiply(combined[p_lo:p_lo + nn, q_lo:q_lo + nr],
                            w[it][:, None, None], out=term)
                kernel[it] += term
    return kernel


def _fast_len(n: int) -> int:
    """Smallest 2*3*5*7*11-smooth length >= n, a length pocketfft's complex
    transforms take without a Bluestein step (scipy.fft.next_fast_len)."""
    while True:
        rest = n
        for prime in (2, 3, 5, 7, 11):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def _fft_shape(fp: FrameParams, zg: ZGrid) -> tuple[int, int, int, int]:
    """(L_m, L_k, t, n) of the kernel DFT: L_m >= 4M+1 and L_k >= 2n_k+1
    keep every offset distinct, so the circular correlation of a zero-padded
    (m, k) input equals the linear one."""
    nn = 2 * fp.N + 1
    return _fast_len(4 * fp.M + 1), _fast_len(2 * zg.n_k + 1), nn, nn


def _circular_index(fp: FrameParams, zg: ZGrid):
    """Where kernel entry (r, d) sits in the circular layout:
    ((-r) mod L_m, (-d) mod L_k), as an index over (r, d)."""
    lm, lk = _fft_shape(fp, zg)[:2]
    r = np.arange(-2 * fp.M, 2 * fp.M + 1)
    d = np.arange(-zg.n_k, zg.n_k + 1)
    return (-r % lm)[:, None], (-d % lk)[None, :]


def _kernel_fft(kernel: np.ndarray, fp: FrameParams, zg: ZGrid) -> np.ndarray:
    """2-D DFT over (r, d) of the kernel placed for circular correlation,
    layout (L_m, L_k, t, n)."""
    circ = np.zeros(_fft_shape(fp, zg), dtype=complex)
    circ[_circular_index(fp, zg)] = kernel.transpose(2, 3, 0, 1)
    # in place, axis 0 first (np.fft.fft2 would start with axis 1 and round
    # differently)
    for axis in (0, 1):
        np.fft.fft(circ, axis=axis, out=circ)
    return circ


def _kernel_from_fft(op: "DiscreteOperator") -> np.ndarray:
    """K[t, n, r, d] recovered from op.kernel_fft: one inverse DFT and the
    gather of _kernel_fft's placement."""
    circ = np.fft.ifft(op.kernel_fft, axis=0)
    np.fft.ifft(circ, axis=1, out=circ)
    return circ[_circular_index(op.fp, op.zg)].transpose(2, 3, 0, 1)


@dataclass
class DiscreteOperator:
    """Folded forward-map kernel as its DFT, the synthesis/analysis matrices
    and the sampled contrast slices on the support of chi (grid: the points of
    analysis_grid(fp) where chi is nonzero on some z slice), and green_apply's
    FFT workspace; kernel_cache_hit tells whether the kernel DFT was read from
    the cache."""
    fp: FrameParams
    zg: ZGrid
    grid: np.ndarray
    chi_slices: np.ndarray                   # (n_k+1, ngrid), real
    kernel_fft: np.ndarray = field(repr=False)      # (L_m, L_k, t, n)
    synth_matrix: np.ndarray = field(repr=False)    # (ngrid, (2M+1)(2N+1))
    analysis_matrix: np.ndarray = field(repr=False)  # ((2M+1)(2N+1), ngrid)
    kernel_cache_hit: bool = False
    # zero-padded input spectrum and the product with kernel_fft, both
    # (L_m, L_k, n or t, 2): the k < n_k and the reversed k > 0 input halves
    spectrum: np.ndarray = field(init=False, repr=False)
    product: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shape = self.kernel_fft.shape[:3] + (2,)
        self.spectrum = np.zeros(shape, dtype=complex)
        self.product = np.empty(shape, dtype=complex)


def build_operator(scene: Scene | None, dual: DualWindow,
                   spatial_table: KernelTable, spectral_table: KernelTable,
                   cache_dir: Path | None = None) -> DiscreteOperator:
    """Fold the tables into the operator kernel; scene=None means chi == 0.
    fp, zg and k0 are those the tables were built for, and a scene must have
    the same k0.  With a cache_dir the kernel DFT is read from it when cached
    there, and written to it when not."""
    fp, zg, cfg = spatial_table.fp, spatial_table.zg, spatial_table.cfg
    built_for = (fp, zg, cfg, dual.n_u, dual.n_v)
    if any((t.fp, t.zg, t.cfg, t.n_u, t.n_v) != built_for
           for t in (spatial_table, spectral_table)):
        raise DimensionMismatch(
            "spatial and spectral tables must share fp, zg, the Ewald config "
            "and the dual window's (n_u, n_v)")
    if scene is not None and scene.k0 != cfg.k0:
        raise DimensionMismatch(
            f"scene k0 = {scene.k0} differs from the tables' k0 = {cfg.k0}")
    xs = analysis_grid(fp)
    if scene is None:
        chi = np.zeros((zg.n_k + 1, len(xs)))
    else:
        chi = np.array([contrast_at(xs, z_k, scene) for z_k in zg.nodes])
    support = np.flatnonzero(np.any(chi != 0, axis=0))

    # a cached DFT is used only when it was folded from these tables' build
    # and from exactly dual.a
    kernel_fft, hit = cached(
        None if cache_dir is None else kernel_cache_path(cache_dir,
                                                         spatial_table),
        lambda p: load_kernel_fft(p, spatial_table, dual.a, _fft_shape(fp, zg)),
        lambda: _kernel_fft(_fold_kernel(fp, dual, spatial_table,
                                         spectral_table), fp, zg),
        lambda k, p: save_kernel_fft(p, spatial_table, dual.a, k))
    return DiscreteOperator(
        fp=fp, zg=zg, grid=xs[support], chi_slices=chi[:, support],
        kernel_fft=kernel_fft, synth_matrix=synthesis_matrix(xs[support], fp),
        analysis_matrix=analysis_matrix(xs, dual, fp, support),
        kernel_cache_hit=hit)


def green_apply(coeffs: np.ndarray, op: DiscreteOperator) -> np.ndarray:
    """Scattered-field coefficients k0^2 (G * J) for J given as (m, n, k).

    Per output t, sum over n of two correlations over (m, k) with the kernel
    K[t, n]: K[m-s, k-l] against the input masked to k < n_k, and K[m-s, l-k]
    against the input masked to k > 0.  The second is the first applied to
    the k-reversed input and read back reversed in l, so both share one kernel
    DFT; the sum over n is a matmul per frequency.  The transforms run in
    op's workspace, so two threads must not apply one operator at once; the
    result is a new array.
    """
    c = np.asarray(coeffs, dtype=complex)
    _check_coeffs(c, op.fp, op.zg)
    nm, _, nk = c.shape
    phase = _diag_phase(op.fp)[:, None, :]          # (m, 1, n)
    spec, prod = op.spectrum, op.product
    live = spec[:nm, :nk - 1]                       # (m, k < n_k, n, 2)
    # the previous transforms filled the zero padding around live
    spec[nm:] = 0
    spec[:nm, nk - 1:] = 0
    col = c.transpose(0, 2, 1)                      # (m, k, n)
    np.multiply(col[:, :-1], phase, out=live[..., 0])       # k < n_k
    np.multiply(col[:, :0:-1], phase, out=live[..., 1])     # k > 0
    # pruned 2-D transforms: along k only on the rows m < 2M+1 that are not
    # zero, and back along k only on those read out
    np.fft.fft(spec[:nm], axis=1, out=spec[:nm])
    np.fft.fft(spec, axis=0, out=spec)
    np.matmul(op.kernel_fft, spec, out=prod)
    np.fft.ifft(prod, axis=0, out=prod)
    np.fft.ifft(prod[:nm], axis=1, out=prod[:nm])
    corr = prod[:nm, :nk]                           # (s, l, t, 2)
    out = np.empty(c.shape, dtype=complex)
    dst = out.transpose(0, 2, 1)                    # (s, l, t)
    np.add(corr[..., 0], corr[:, ::-1, :, 1], out=dst)
    dst *= np.conj(phase)
    return out


def contrast_multiply(coeffs: np.ndarray, op: DiscreteOperator) -> np.ndarray:
    """Per-slice multiply by chi(x, z_l): synthesize, scale, analyze back."""
    c = np.asarray(coeffs, dtype=complex)
    _check_coeffs(c, op.fp, op.zg)
    nm, nn, nk = c.shape
    fields = op.synth_matrix @ c.reshape(nm * nn, nk)
    fields *= op.chi_slices.T
    return (op.analysis_matrix @ fields).reshape(c.shape)


def active_slices(op: DiscreteOperator) -> np.ndarray:
    """Indices l of the z slices where chi(., z_l) is nonzero somewhere on the
    grid; only these carry unknowns that the direct solve has to factor."""
    return np.flatnonzero(np.any(op.chi_slices != 0, axis=1))


def assemble_green_matrix(op: DiscreteOperator,
                          slices: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of green_apply restricted to the given z slices (all by
    default), in (m*nn + n)*n_slices + i flattening for slice slices[i].

    Gathered from the kernel, recovered from its DFT, one m-s block at a time:
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
    kernel = _kernel_from_fft(op)
    g = np.empty((nm, nn, na, nm, nn, na), dtype=complex)
    for r in range(-two_m, two_m + 1):
        k_r = kernel[:, :, r + two_m]                    # (t, n, d)
        z = k_r[:, :, d_fall] * (idx < n_k) + k_r[:, :, d_rise] * (idx > 0)
        s_idx = np.arange(max(0, -r), min(nm, nm - r))
        m_idx = s_idx + r
        g[s_idx, :, :, m_idx] = (np.conj(phase)[s_idx, :, None, None, None]
                                 * z.transpose(0, 2, 1, 3)[None]
                                 * phase[m_idx][:, None, None, :, None])
    return g.reshape(nm * nn * na, nm * nn * na)


def assemble_dense(op: DiscreteOperator) -> np.ndarray:
    """System matrix I - chi*G over the unknowns of the active z slices, in
    (m*nn + n)*n_active + i flattening for slice active_slices(op)[i].

    This is exact: on a slice where chi == 0 the contrast projector below is
    exactly zero, so that slice's rows of the full I - chi*G are identity rows
    and its right-hand side, the analysis of chi*E_inc, is exactly zero; its
    unknowns are J = J_inc = 0 and their columns drop out.  _DENSE_CAP bounds
    the active unknowns, and SizeCap refuses a matrix larger than the
    machine's memory before it is allocated.  The contrast multiplication
    acts on each z slice l separately, as the (nm*nn)^2 projector analysis *
    diag(chi(., z_l)) * synthesis, which is formed once per slice instead of
    synthesizing every column on the grid.
    """
    active = active_slices(op)
    nm, nn, _ = coeff_shape(op.fp, op.zg)
    n = nm * nn * len(active)
    if n > _DENSE_CAP:
        raise SizeCap(
            f"{n} active unknowns exceed the dense cap {_DENSE_CAP}; "
            "use the iterative solver")
    check_memory(n * n * 16, f"the dense system matrix of {n} unknowns")
    a = assemble_green_matrix(op, active)
    by_slice = a.reshape(nm * nn, len(active), n)
    for i, l in enumerate(active):
        proj = op.analysis_matrix @ (op.chi_slices[l][:, None] * op.synth_matrix)
        by_slice[:, i] = proj @ by_slice[:, i]
    a *= -1
    a[np.arange(n), np.arange(n)] += 1
    return a
