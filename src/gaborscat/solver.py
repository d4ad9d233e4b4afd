"""Solve the discrete contrast-source equation and synthesize output fields."""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import NonConvergence, SingularMatrix, SizeCap
from .frame import DualWindow, FrameParams, synthesize
from .green import EwaldConfig
from .kernels import ZGrid, triangle_value
from .operators import (DiscreteOperator, assemble_dense, build_operator,
                        coeff_shape, contrast_multiply, forward_residual,
                        green_apply)
from .scene import Scene, project_source, validate_scene
from .tables import build_tables

_MAX_ITER = 2000        # GMRES matvec budget per solve
_RESTART = 200


@dataclass
class Solution:
    """Contrast-source coefficients chi*E with solve diagnostics."""
    J: np.ndarray
    J_inc: np.ndarray
    fp: FrameParams
    zg: ZGrid
    residual_norm: float
    iterations: int
    wall_time: float
    condition_estimate: float = float("nan")


def _condition_estimate(lu, piv, a_norm: float) -> float:
    """1-norm condition estimate from the LU factors (LAPACK gecon)."""
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, info = gecon(lu, a_norm)
    if info != 0 or rcond == 0:
        return float("inf")
    return 1.0 / rcond


def solve(scene: Scene, fp: FrameParams, zg: ZGrid, cfg: EwaldConfig, *,
          dual: DualWindow, method: str = "direct", tol: float | None = None,
          operator: DiscreteOperator | None = None,
          tables=None, dense_cap: int = 8000, check_scene: bool = True) -> Solution:
    """Solve J = J_inc + chi*(k0^2 G J) for the contrast-source coefficients.

    Pass prebuilt tables / operator to reuse cached quadratures; otherwise they
    are built here.
    """
    t0 = time.perf_counter()
    if check_scene:
        validate_scene(scene, fp, zg)
    if operator is None:
        if tables is None:
            tables = build_tables(fp, zg, cfg, dual.n_u, dual.n_v)
        operator = build_operator(scene, fp, zg, dual, *tables)
    j_inc = project_source(scene, fp, zg, dual, grid=operator.grid)
    if tol is None:
        tol = 1e-8 if method == "direct" else 1e-6

    nm, nn, nk = coeff_shape(fp, zg)
    n = nm * nn * nk
    b = j_inc.reshape(n)
    cond = float("nan")
    if method == "direct":
        a = assemble_dense(operator, cap=dense_cap)
        a_norm = np.linalg.norm(a, 1)
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True)
        if np.any(np.diag(lu) == 0):
            raise SingularMatrix("dense system matrix is exactly singular")
        x = scipy.linalg.lu_solve((lu, piv), b)
        cond = _condition_estimate(lu, piv, a_norm)
        iterations = 0
    elif method == "iterative":
        iterations = 0

        def matvec(v):
            nonlocal iterations
            iterations += 1
            c = v.reshape(nm, nn, nk)
            return (c - contrast_multiply(green_apply(c, operator), operator)
                    ).reshape(n)

        # scipy's maxiter counts restart cycles, each of restart + 1 matvecs
        # (the last one recomputes the true residual)
        cycles = -(-_MAX_ITER // (_RESTART + 1))
        restart = _MAX_ITER // cycles - 1
        lin = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec,
                                                 dtype=complex)
        x, info = scipy.sparse.linalg.gmres(
            lin, b, rtol=tol / 10, atol=0.0, maxiter=cycles, restart=restart)
        if info != 0:
            raise NonConvergence(
                f"GMRES did not converge within {iterations} matvecs "
                f"(budget {_MAX_ITER})")
    else:
        raise ValueError(f"unknown method {method!r}")

    j = x.reshape(nm, nn, nk)
    res = forward_residual(j, j_inc, operator)
    res_norm = float(np.linalg.norm(res) / np.linalg.norm(j_inc)) \
        if np.linalg.norm(j_inc) > 0 else 0.0
    return Solution(J=j, J_inc=j_inc, fp=fp, zg=zg,
                    residual_norm=res_norm, iterations=iterations,
                    wall_time=time.perf_counter() - t0,
                    condition_estimate=cond)


def synthesize_field(sol: Solution, xs: np.ndarray, zs: np.ndarray,
                     which: str = "chiE_s") -> np.ndarray:
    """Evaluate the expansion sum c_mnk g_mn(x) Lambda_k(z) on a grid.

    which selects the coefficients: 'chiE_s' (J - J_inc), 'chiE_total' (J) or
    'chiE_inc' (J_inc).  Returns shape (len(zs), len(xs)).
    """
    coeffs = {"chiE_s": sol.J - sol.J_inc,
              "chiE_total": sol.J,
              "chiE_inc": sol.J_inc}[which]
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    slices = synthesize(coeffs, xs, sol.fp)              # (nx, n_k+1)
    tri = np.array([triangle_value(zs, k, sol.zg)
                    for k in range(sol.zg.n_k + 1)])     # (n_k+1, nz)
    return (slices @ tri).T
