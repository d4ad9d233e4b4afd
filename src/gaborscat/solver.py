"""Solve the discrete contrast-source equation and synthesize output fields."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, NonConvergence, SingularMatrix,
                     check_memory)
from .frame import FrameParams, synthesize
from .kernels import ZGrid, triangle_value
from .operators import (DiscreteOperator, active_slices, assemble_dense,
                        coeff_shape, contrast_multiply, green_apply)
from .scene import Scene, project_source

_MAX_ITER = 2000        # GMRES matvec budget per solve
_RESTART = 200
METHODS = ("iterative", "direct")   # solver.method values, the default first


@dataclass
class Solution:
    """Contrast-source coefficients chi*E with solve diagnostics."""
    J: np.ndarray
    J_inc: np.ndarray
    fp: FrameParams
    zg: ZGrid
    residual_norm: float
    iterations: int                     # GMRES matvecs
    condition_estimate: float | None = None     # None unless LU ran
    factored_unknowns: int = 0          # size of the dense LU, 0 for GMRES
    gmres_residuals: list[float] = field(default_factory=list)


def forward_residual(coeffs: np.ndarray, inc_coeffs: np.ndarray,
                     op: DiscreteOperator) -> np.ndarray:
    """Residual J - J_inc - chi*(G J) of the contrast-source equation.  It
    applies G through this module's green_apply, as the GMRES matvec does,
    so that each of its calls is one more matvec wherever green_apply is
    counted."""
    c = np.asarray(coeffs, dtype=complex)
    j0 = np.asarray(inc_coeffs, dtype=complex)
    if j0.shape != c.shape:
        raise DimensionMismatch("J and J_inc shapes differ")
    return c - j0 - contrast_multiply(green_apply(c, op), op)


def _norm_1(a: np.ndarray, rows: int = 256) -> float:
    """||a||_1, the largest column sum of |a|, accumulated over row blocks so
    that no |a|-sized temporary is formed."""
    col = np.zeros(a.shape[1])
    for i in range(0, a.shape[0], rows):
        col += np.abs(a[i:i + rows]).sum(axis=0)
    return float(col.max())


def _condition_estimate(lu_t, a_norm: float) -> float:
    """1-norm condition estimate of A from the LU factors of A^T (LAPACK
    gecon in the infinity norm, with a_norm = ||A||_1 = ||A^T||_inf)."""
    import scipy.linalg
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (lu_t,))[0]
    rcond, info = gecon(lu_t, a_norm, norm="I")
    if info != 0 or rcond == 0:
        return float("inf")
    return 1.0 / rcond


def _direct(operator: DiscreteOperator, b: np.ndarray):
    """LU solve of I - chi*G over the z slices where chi is nonzero (see
    assemble_dense), J = J_inc elsewhere.  Returns (x, condition estimate,
    factored unknowns); the estimate is None when nothing was factored.
    scipy.linalg is imported here, on first use, so that a GMRES solve does
    not load it."""
    import scipy.linalg
    nm, nn, nk = coeff_shape(operator.fp, operator.zg)
    x = b.copy()
    a = assemble_dense(operator)
    factored = a.shape[0]
    if not factored:
        return x, None, 0
    active = active_slices(operator)
    by_slice = x.reshape(nm * nn, nk)
    a_norm = _norm_1(a)
    # a.T is Fortran-ordered: getrf factors it in place, without a copy
    lu, piv = scipy.linalg.lu_factor(a.T, overwrite_a=True)
    if np.any(np.diag(lu) == 0):
        raise SingularMatrix("dense system matrix is exactly singular")
    by_slice[:, active] = scipy.linalg.lu_solve(
        (lu, piv), by_slice[:, active].reshape(factored),
        trans=1).reshape(nm * nn, len(active))
    return x, _condition_estimate(lu, a_norm), factored


def _lartg(f, g):
    """(c, s, r) with c real and [c s; -conj(s) c] [f; g] = [r; 0], by LAPACK
    zlartg's formulas for operands far from under- and overflow (a complex
    divided by a real part by part, as Fortran does)."""
    if g == 0:
        return 1.0, 0j, f
    g2 = g.real ** 2 + g.imag ** 2
    if f == 0:
        d = math.sqrt(g2)
        return 0.0, complex(g.real / d, -g.imag / d), d
    f2 = f.real ** 2 + f.imag ** 2
    h2 = f2 + g2
    c = math.sqrt(f2 / h2)
    d = math.sqrt(f2 * h2)
    return (c, complex(g.real, -g.imag) * complex(f.real / d, f.imag / d),
            complex(f.real / c, f.imag / c))


def _restarted_gmres(matvec, residual, b: np.ndarray, rtol: float,
                     restart: int, cycles: int):
    """Restarted GMRES for A x = b from x = 0, ported from scipy 1.17's
    scipy.sparse.linalg.gmres without a preconditioner: modified Gram-Schmidt,
    Givens rotations, the inner tolerance control of scipy gh-8400 and one
    true residual b - A x = residual(x) per restart cycle.  It stops when
    ||b - A x|| <= rtol ||b||, or after cycles cycles of at most restart
    matvec calls each.  Returns (x, ||b - A x||, the relative residual
    estimate of every inner iteration, converged)."""
    n = b.size
    x = np.zeros_like(b)
    history = []
    b_norm = np.linalg.norm(b)
    atol = rtol * b_norm
    if b_norm == 0 or b_norm < atol:
        return x, b_norm, history, True
    eps = np.finfo(float).eps
    restart = min(restart, n)
    if restart < 1:             # no room for one Krylov step
        return x, b_norm, history, False
    ptol_max_factor = 1.0
    ptol = b_norm * min(ptol_max_factor, atol / b_norm)
    v = np.empty((restart + 1, n), dtype=b.dtype)          # Krylov basis
    h = np.zeros((restart, restart + 1), dtype=b.dtype)     # h[j, i] = H_ij
    givens = np.zeros((restart, 2), dtype=b.dtype)
    r, r_norm = b, b_norm
    for _ in range(cycles):
        np.multiply(r, 1 / r_norm, out=v[0])
        g = np.zeros(restart + 1, dtype=b.dtype)   # rotated r_norm e_1
        g[0] = r_norm
        for col in range(restart):
            w = matvec(v[col])
            w_norm = np.linalg.norm(w)
            for k in range(col + 1):
                h[col, k] = np.vdot(v[k], w)
                w -= h[col, k] * v[k]
            h1 = np.linalg.norm(w)
            # w already in the Krylov space: the exact solution is in reach
            breakdown = h1 <= eps * w_norm
            h[col, col + 1] = 0 if breakdown else h1
            if not breakdown:
                np.multiply(w, 1 / h1, out=v[col + 1])
            for k in range(col):
                c, s = givens[k]
                upper, lower = h[col, k], h[col, k + 1]
                h[col, k] = c * upper + s * lower
                h[col, k + 1] = -np.conj(s) * upper + c * lower
            c, s, h[col, col] = _lartg(h[col, col], h[col, col + 1])
            givens[col] = c, s
            h[col, col + 1] = 0
            g[col], g[col + 1] = c * g[col], -np.conj(s) * g[col]
            presid = np.abs(g[col + 1])
            history.append(float(presid / b_norm))
            if presid <= ptol or breakdown:
                break
        # back substitution on the triangular h, skipping a zero pivot
        if h[col, col] == 0:
            g[col] = 0
        y = g[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        r = residual(x)
        r_norm = np.linalg.norm(r)
        if r_norm <= atol or breakdown:
            break
        if presid <= ptol:          # the inner loop converged, x did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / r_norm)
    return x, r_norm, history, bool(r_norm <= atol)


def _gmres(operator: DiscreteOperator, b: np.ndarray, tol: float):
    """GMRES on the matrix-free forward map J - chi*(k0^2 G J), each matvec
    one FFT green_apply plus one contrast_multiply, and each restart cycle's
    true residual one forward_residual, counted as a matvec.  Returns (x,
    matvecs, relative residual history, one entry per inner iteration,
    ||b - A x||); raises NonConvergence, carrying both, when _MAX_ITER
    matvecs do not reach tol, and SizeCap, before it starts, when the Krylov
    basis and the operator's FFT workspace do not fit in memory."""
    shape = coeff_shape(operator.fp, operator.zg)
    n = b.size
    matvecs = 0
    # cycles of restart + 1 matvecs each (the last one is the true residual)
    cycles = -(-_MAX_ITER // (_RESTART + 1))
    restart = _MAX_ITER // cycles - 1
    check_memory(n * (restart + 1) * 16 + operator.spectrum.nbytes
                 + operator.product.nbytes, f"GMRES on {n} unknowns")

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        c = v.reshape(shape)
        return (c - contrast_multiply(green_apply(c, operator), operator)
                ).reshape(n)

    def residual(x):
        nonlocal matvecs
        matvecs += 1
        return -forward_residual(x.reshape(shape), b.reshape(shape),
                                 operator).reshape(n)

    x, r_norm, history, converged = _restarted_gmres(
        matvec, residual, b, tol / 10, restart, cycles)
    if not converged:
        raise NonConvergence(
            f"GMRES did not converge within {matvecs} matvecs "
            f"(budget {_MAX_ITER})", residuals=history, matvecs=matvecs)
    return x, matvecs, history, r_norm


def solve(scene: Scene, operator: DiscreteOperator, *,
          method: str = METHODS[0], tol: float | None = None) -> Solution:
    """Solve J = J_inc + chi*(k0^2 G J) for the contrast-source coefficients
    on the discretization of operator, which build_operator made for scene.

    method is one of METHODS:
      "iterative"  (the default) GMRES on the matrix-free FFT forward map to
                   the relative residual tol (default 1e-8); NonConvergence
                   when _MAX_ITER matvecs do not reach it;
      "direct"     dense LU of I - chi*G over the z slices where chi is
                   nonzero (see assemble_dense), J = J_inc elsewhere; SizeCap
                   when those active unknowns exceed 8000
                   (operators._DENSE_CAP).
    Solution.condition_estimate is None unless LU ran.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    fp, zg = operator.fp, operator.zg
    nm, nn, nk = coeff_shape(fp, zg)
    j_inc = project_source(scene, zg, operator.grid, operator.chi_slices,
                           operator.analysis_matrix).reshape(nm, nn, nk)

    b = j_inc.reshape(nm * nn * nk)
    iterations, history, cond, factored = 0, [], None, 0
    if method == "direct":
        x, cond, factored = _direct(operator, b)
        r_norm = np.linalg.norm(
            forward_residual(x.reshape(nm, nn, nk), j_inc, operator))
    else:
        x, iterations, history, r_norm = _gmres(operator, b,
                                                1e-8 if tol is None else tol)

    j = x.reshape(nm, nn, nk)
    b_norm = np.linalg.norm(j_inc)
    res_norm = float(r_norm / b_norm) if b_norm > 0 else 0.0
    return Solution(J=j, J_inc=j_inc, fp=fp, zg=zg,
                    residual_norm=res_norm, iterations=iterations,
                    condition_estimate=cond, factored_unknowns=factored,
                    gmres_residuals=history)


def _expansion(sol: Solution, xs: np.ndarray, zs: np.ndarray, which: str):
    """Frame sums per z node at xs, (len(xs), n_k+1), and the triangles at zs,
    (n_k+1, len(zs)), for the coefficients that which selects."""
    coeffs = {"chiE_s": sol.J - sol.J_inc,
              "chiE_total": sol.J,
              "chiE_inc": sol.J_inc}[which]
    slices = synthesize(coeffs, np.asarray(xs, dtype=float), sol.fp)
    zs = np.asarray(zs, dtype=float)
    tri = np.array([triangle_value(zs, k, sol.zg) for k in range(sol.zg.n_k + 1)])
    return slices, tri


def synthesize_field(sol: Solution, xs: np.ndarray, zs: np.ndarray,
                     which: str = "chiE_s") -> np.ndarray:
    """Evaluate the expansion sum c_mnk g_mn(x) Lambda_k(z) on a grid.

    which selects the coefficients: 'chiE_s' (J - J_inc), 'chiE_total' (J) or
    'chiE_inc' (J_inc).  Returns shape (len(zs), len(xs)).
    """
    slices, tri = _expansion(sol, xs, zs, which)
    return (slices @ tri).T


def synthesize_points(sol: Solution, xs: np.ndarray, zs: np.ndarray,
                      which: str = "chiE_s") -> np.ndarray:
    """The same expansion at the points (xs[i], zs[i]); shape (len(xs),)."""
    slices, tri = _expansion(sol, xs, zs, which)
    return np.einsum("ik,ki->i", slices, tri)
