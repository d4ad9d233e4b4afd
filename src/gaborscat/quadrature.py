"""Quadrature helpers: Gauss-Legendre panels, phase-block summation of the
oscillatory 1/w tails on the inverse-variable Green-function contour, and
adaptive Gauss-Kronrod quadrature, which only `green` uses (scipy.integrate
is imported on its first call, so the solve pipeline never loads it).

The tail integrands all share the structure exp(-j*k0^2*w^2/8 - j*c/w^2) * S(w)
with S slowly varying and |c| bounded.  Zone A resolves the mixed-phase region
with panels of bounded phase variation; zone B sums half-period blocks of the
quadratic phase and extrapolates the conditionally convergent remainder by
repeated averaging of the partial sums.  The averaging is linear in the block
sums, so zone B is evaluated as one weighted node sum (see limit_weights).
"""

import numpy as np

from .errors import QuadratureFailure

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def adaptive_quad(f, a: float, b: float, *, rtol: float = 1e-10,
                  atol: float = 1e-15, limit: int = 2000):
    """Adaptive Gauss-Kronrod quadrature of a (vector-valued) complex integrand."""
    from scipy.integrate import quad_vec
    val, err = quad_vec(f, a, b, epsrel=rtol, epsabs=atol, limit=limit,
                        norm="max", quadrature="gk21")
    scale = np.max(np.abs(val)) if np.ndim(val) else abs(val)
    if not np.all(np.isfinite(err)) or err > max(atol, rtol * max(scale, atol)) * 1e3:
        raise QuadratureFailure(
            f"quad_vec error estimate {err:.3e} on [{a:.6g}, {b:.6g}] "
            f"exceeds budget (rtol={rtol:.1e})")
    return val


def panel_nodes(bounds: np.ndarray):
    """Gauss-Legendre nodes/weights on each panel of a boundary array.

    Returns (nodes, weights) flattened over panels; node count per panel is
    the module Gauss-Legendre order.
    """
    a, b = bounds[:-1], bounds[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = mid + half * _GL_NODES[None, :]
    weights = half * _GL_WEIGHTS[None, :]
    return nodes.ravel(), weights.ravel()


def subdivided_panels(bounds: np.ndarray, max_ratio: float = 1.3):
    """Panels refined so no panel spans more than max_ratio in its endpoints.

    Algebraic 1/w-type variation needs geometric resolution on top of the
    phase-based block boundaries.  Returns (nodes, weights, block_index) with
    block_index mapping each finest panel back to its originating block.
    """
    refined = []
    owner = []
    log_r = np.log(max_ratio)
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        n_sub = max(1, int(np.ceil(np.log(b / a) / log_r))) if a > 0 else 1
        edges = a * (b / a) ** (np.arange(n_sub + 1) / n_sub) if a > 0 \
            else np.linspace(a, b, n_sub + 1)
        refined.append(edges[:-1])
        owner.extend([i] * n_sub)
    refined.append(bounds[-1:])
    edges = np.concatenate(refined)
    nodes, weights = panel_nodes(edges)
    owner = np.asarray(owner, dtype=int)
    # first node index of each original block (owner is sorted)
    block_offsets = np.searchsorted(np.repeat(owner, _GL_ORDER),
                                    np.arange(len(bounds) - 1))
    return nodes, weights, block_offsets


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
    k0^2 w^2 / 8 (clipped to w_cap when given).
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
    subdivided_panels.  averaged_limit is a fixed linear functional of the
    block sums: every block but the last depth+1 gets weight 1 and those get
    binomial tails, dyadic rationals that the averaging of the identity
    computes exactly.
    """
    per_block = averaged_limit(np.eye(len(block_offsets)), depth)
    return np.repeat(per_block, np.diff(block_offsets, append=n_nodes))


def oscillatory_tail(contract, w0: float, k0: float, phase_coeff: float,
                     n_blocks: int = 170, depth: int = 40,
                     w_cap: float | None = None):
    """Integrate over (w0, inf) for quadratic-phase oscillatory integrands.

    contract(nodes, weights) returns sum_n F(nodes_n) weights_n, of any
    leading shape, for the integrand F; it is called once per tail zone.
    w_cap extends zone B to at least that w (see oscillatory_tail_bounds).
    """
    bounds_a, bounds_b = oscillatory_tail_bounds(w0, k0, phase_coeff, n_blocks,
                                                 w_cap)
    nodes, weights, block_offsets = subdivided_panels(bounds_b)
    total = contract(nodes, weights * limit_weights(block_offsets, len(nodes), depth))
    if len(bounds_a) > 1:
        nodes, weights, _ = subdivided_panels(bounds_a)
        total = total + contract(nodes, weights)
    return total
