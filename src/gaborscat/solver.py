"""Solve the discrete contrast-source equation and synthesize output fields."""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import NonConvergence, SingularMatrix, check_memory
from .frame import FrameParams, synthesize
from .kernels import ZGrid, triangle_value
from .operators import (DiscreteOperator, active_slices, assemble_dense,
                        coeff_shape, contrast_multiply, forward_residual,
                        green_apply)
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
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (lu_t,))[0]
    rcond, info = gecon(lu_t, a_norm, norm="I")
    if info != 0 or rcond == 0:
        return float("inf")
    return 1.0 / rcond


def _direct(operator: DiscreteOperator, b: np.ndarray):
    """LU solve of I - chi*G over the z slices where chi is nonzero (see
    assemble_dense), J = J_inc elsewhere.  Returns (x, condition estimate,
    factored unknowns); the estimate is None when nothing was factored."""
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


def _gmres(operator: DiscreteOperator, b: np.ndarray, tol: float):
    """GMRES on the matrix-free forward map J - chi*(k0^2 G J), each matvec
    one FFT green_apply plus one contrast_multiply.  Returns (x, matvecs,
    relative residual history, one entry per inner iteration); raises
    NonConvergence, carrying both, when _MAX_ITER matvecs do not reach tol,
    and SizeCap, before it starts, when the Krylov basis and the operator's
    FFT workspace do not fit in memory."""
    nm, nn, nk = coeff_shape(operator.fp, operator.zg)
    n = b.size
    matvecs = 0
    history = []
    # scipy's maxiter counts restart cycles, each of restart + 1 matvecs
    # (the last one recomputes the true residual)
    cycles = -(-_MAX_ITER // (_RESTART + 1))
    restart = _MAX_ITER // cycles - 1
    check_memory(n * (restart + 1) * 16 + operator.spectrum.nbytes
                 + operator.product.nbytes, f"GMRES on {n} unknowns")

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        c = v.reshape(nm, nn, nk)
        return (c - contrast_multiply(green_apply(c, operator), operator)
                ).reshape(n)

    lin = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec,
                                             dtype=complex)
    x, info = scipy.sparse.linalg.gmres(
        lin, b, rtol=tol / 10, atol=0.0, maxiter=cycles, restart=restart,
        callback=lambda r: history.append(float(r)), callback_type="pr_norm")
    if info != 0:
        raise NonConvergence(
            f"GMRES did not converge within {matvecs} matvecs "
            f"(budget {_MAX_ITER})", residuals=history, matvecs=matvecs)
    return x, matvecs, history


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
    j_inc = project_source(scene, zg, operator.grid,
                           operator.analysis_matrix).reshape(nm, nn, nk)

    b = j_inc.reshape(nm * nn * nk)
    iterations, history, cond, factored = 0, [], None, 0
    if method == "direct":
        x, cond, factored = _direct(operator, b)
    else:
        x, iterations, history = _gmres(operator, b,
                                        1e-8 if tol is None else tol)

    j = x.reshape(nm, nn, nk)
    res = forward_residual(j, j_inc, operator)
    res_norm = float(np.linalg.norm(res) / np.linalg.norm(j_inc)) \
        if np.linalg.norm(j_inc) > 0 else 0.0
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
