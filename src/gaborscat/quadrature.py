"""Quadrature helpers: Gauss-Legendre panels, the deformed path that carries
the oscillatory 1/w tails of the inverse-variable Green-function contour,
`contract`, the one node-block loop that sums every contour integral of the
package (both kernel tables and both Green-function halves) over its node
rule, and the panel-doubling check through which each of them refines it.

The tail integrands all share the structure e^{-j k0^2 w^2/8 - j c/w^2} S(w)
with S algebraic and |c| bounded, and every factor is analytic in w off the
real axis (the table's x-factor has its one singular point at angle -pi/4,
outside the region the path sweeps).  So by Cauchy's theorem the tail from
w0 to infinity may leave the real axis: `tail_path` rises into the upper half
plane, where e^{-jc/w^2} decays, returns to the real axis where the quadratic
phase dominates, and leaves along a ray into the lower half plane, where
e^{-j k0^2 w^2/8} decays exponentially.  One fixed Gauss-Legendre rule covers
the whole tail.
"""

import numpy as np

from .errors import QuadratureFailure

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

_RISE = 0.5            # height of the raised segments above the real axis
_RISE_PANELS = 12      # panels of the rise, graded toward w0
_GRADE = 1e-6          # width of the lowest rise panel, as a fraction of _RISE
_PANELS = 16           # panels of the return segment and of the ray
_RAY = np.pi / 6       # the ray leaves the real axis at angle -_RAY
_DECAY = 40.0          # the ray ends where |e^{-j k0^2 w^2/8}| = e^{-_DECAY}
_NODE_BLOCK = 1024     # nodes per block of a contraction


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

    Algebraic 1/w-type variation needs geometric resolution.  Returns
    (nodes, weights).
    """
    refined = []
    log_r = np.log(max_ratio)
    for a, b in zip(bounds[:-1], bounds[1:]):
        n_sub = max(1, int(np.ceil(np.log(b / a) / log_r))) if a > 0 else 1
        edges = a * (b / a) ** (np.arange(n_sub + 1) / n_sub) if a > 0 \
            else np.linspace(a, b, n_sub + 1)
        refined.append(edges[:-1])
    refined.append(bounds[-1:])
    return panel_nodes(np.concatenate(refined))


def _segment(a: complex, b: complex, edges: np.ndarray, refine: int):
    """Nodes and weights on the straight segment from a to b: the panels
    a + (b - a) * edges, each split into refine equal parts."""
    parts = edges[:-1, None] + np.diff(edges)[:, None] * np.arange(refine) / refine
    s, ws = panel_nodes(np.append(parts.ravel(), edges[-1]))
    return a + (b - a) * s, (b - a) * ws


def tail_path(w0: float, k0: float, c: float, refine: int):
    """Nodes and weights (complex) of a path from w0 > 0 to infinity for
    integrands e^{-j k0^2 w^2/8 - j c'/w^2} S(w) with |c'| <= c and S
    algebraic; each panel is split into refine equal parts.

    - Rise from w0 to w0 + j*_RISE, on panels graded geometrically toward w0.
      Up the rise e^{-jc/w^2} falls off across a layer of width w0^3/(2c);
      the lowest panel, 1e-6 _RISE, lies below that width (w0^3/(2c) is
      1e-4 or more on the bundled configs and for the Green function at
      R <= 8, k0 <= 3), and the panel ratio of 3.5 resolves every wider
      layer.
    - Return straight to r = max(w0, (27c/k0^2)^{1/4}) on the real axis.
      Above the axis |e^{-j k0^2 w^2/8}| = e^{k0^2 Re(w) Im(w)/4}, so these
      two segments grow at most by e^{k0^2 r _RISE/4}: 1.2-1.8 in fact on
      the bundled configs, under one digit of cancellation.
    - Follow the ray w = r + t e^{-j _RAY}.  Below the axis e^{-j c'/w^2}
      grows at most like e^{2c Re(w)|Im(w)|/|w|^4} against the decay
      e^{-k0^2 Re(w)|Im(w)|/4}; the ratio 8c/(k0^2|w|^4) is at most 8/27
      for |w| >= r.  c bounds the z-factor's exponents 2 s^2/w^2 too, so
      the table needs no separate z margin.  At angle pi/6, xi^2 =
      2j/w^2 stays within 5pi/6 of the positive axis, clear of the branch
      cut of the x-factor's square root.  The ray ends where the quadratic
      decay reaches e^{-_DECAY}: what it leaves out is below
      e^{-_DECAY (1 - 8/27)} < 1e-12 of the integrand at r.  Its panels are
      graded geometrically in r + t: near uniform when the ray is short
      against r, and resolving 1/w when r is small.
    """
    r = max(w0, (27 * c / (k0 * k0)) ** 0.25)
    # the ray's decay exponent k0^2 (2 r t sin a + t^2 sin 2a)/8 = _DECAY
    sin_a, sin_2a = np.sin(_RAY), np.sin(2 * _RAY)
    t_end = (np.sqrt((r * sin_a) ** 2 + 8 * _DECAY * sin_2a / (k0 * k0))
             - r * sin_a) / sin_2a
    top = w0 + 1j * _RISE
    grow = 1 + t_end / r
    parts = [
        _segment(w0, top, np.append(0.0, np.geomspace(_GRADE, 1, _RISE_PANELS)),
                 refine),
        _segment(top, r, np.linspace(0.0, 1.0, _PANELS + 1), refine),
        _segment(r, r + t_end * np.exp(-1j * _RAY),
                 (grow ** (np.arange(_PANELS + 1) / _PANELS) - 1) / (grow - 1),
                 refine),
    ]
    return (np.concatenate([nodes for nodes, _ in parts]),
            np.concatenate([weights for _, weights in parts]))


def contract(left, right, nodes: np.ndarray, weights: np.ndarray):
    """sum_n left(x_n) right(x_n) weights[n] over the nodes, as the sum over
    blocks x of at most _NODE_BLOCK nodes of left(x) @ (right(x) * w).T, so
    no factor array grows with the node count.  left(x) has the nodes along
    its last axis; right(x) is (b, nodes), or (nodes,) for a vector result.
    """
    out = 0
    for start in range(0, len(nodes), _NODE_BLOCK):
        block = slice(start, start + _NODE_BLOCK)
        x = nodes[block]
        out = out + left(x) @ (right(x) * weights[block]).T
    return out


def doubling_checked(integral, rule, tol: float, what: str, max_refine: int):
    """integral(*rule(k)) at the first k = 2, 4, ..., max_refine that agrees
    with integral(*rule(k // 2)) within tol of its largest entry, and that
    agreement max|coarse - fine| / max|fine| (0 for an all-zero result).

    rule(k) returns (nodes, weights) of a base rule with its panels refined
    k-fold.  When no k up to max_refine agrees, QuadratureFailure is raised.
    """
    coarse = integral(*rule(1))
    refine = 2
    while refine <= max_refine:
        fine = integral(*rule(refine))
        scale = np.max(np.abs(fine), initial=0.0)
        diff = np.max(np.abs(coarse - fine), initial=0.0)
        if diff <= max(tol * scale, 1e-15):
            return fine, float(diff / scale) if scale > 0 else 0.0
        coarse, refine = fine, 2 * refine
    raise QuadratureFailure(f"{what} failed the panel-doubling check up to "
                            f"refine {max_refine}")
