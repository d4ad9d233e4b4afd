"""Closed-form integrand factors of the reduced coupling integrals.

The x/x' double integrals of window-against-dual products collapse to the
Gaussian factor f below; the z' integrals over triangle halves collapse to
the erf combination g.  Both are analytic in the Ewald variable xi, so the
same two functions serve the real axis and the complex contour head
xi = 1/zeta.  g differences erf and a Gaussian at the interval ends
b_j = j*Delta*xi; the boundaries are shared between neighbouring d, so one
helper evaluates each distinct |j| once and the whole d range costs n_k + 2
evaluations per node.  Both reductions, and their agreement on the contour
with the kx-domain reductions f~ and g~, are validated against direct
quadrature of their defining integrals in the test suite.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .frame import FrameParams


@dataclass(frozen=True)
class ZGrid:
    """Uniform triangle grid in z: nodes z_min + k*delta, k = 0..n_k."""
    z_min: float
    delta: float
    n_k: int

    def __post_init__(self):
        if self.delta <= 0:
            raise DomainError("delta must be positive")
        if self.n_k < 1:
            raise DomainError("n_k must be at least 1")

    @property
    def z_max(self) -> float:
        return self.z_min + self.n_k * self.delta

    @property
    def nodes(self) -> np.ndarray:
        return self.z_min + self.delta * np.arange(self.n_k + 1)

    @classmethod
    def from_bounds(cls, z_min: float, z_max: float, delta: float) -> "ZGrid":
        n_k = (z_max - z_min) / delta
        if abs(n_k - round(n_k)) > 1e-9 * max(1.0, abs(n_k)):
            raise DomainError("z_max - z_min must be an integer multiple of delta")
        return cls(z_min=z_min, delta=delta, n_k=round(n_k))


def triangle_value(z, k: int, zg: ZGrid):
    """Piecewise-linear nodal basis, 1 at node k, 0 beyond +-delta."""
    z = np.asarray(z, dtype=float)
    return np.clip(1 - np.abs(z - zg.z_min - k * zg.delta) / zg.delta, 0.0, None)


def f_spatial(q, p, xi, fp: FrameParams):
    """Gaussian x-coupling factor of the Ewald integrand.

    q, p and xi broadcast; xi may be complex with Re xi^2 >= 0, as it is on
    the whole contour.
    """
    q = np.asarray(q)
    p = np.asarray(p)
    xi = np.asarray(xi)
    x2 = fp.X * fp.X
    quad = (fp.alpha * q + 1j * fp.beta * p) ** 2
    return (1 / np.sqrt(4 * x2 * xi * xi + 2 * np.pi)
            * np.exp(-np.pi / (2 + np.pi / (x2 * xi * xi)) * quad
                     - np.pi / 2 * fp.beta ** 2 * p ** 2))


def _boundary_differences(d, step):
    """erf(b_{d+1}) - erf(b_d) and e^{-b_{d+1}^2} - e^{-b_d^2}, b_j = j*step.

    d (integers) and step broadcast.  erf(b) is held as sig - a, with
    sig = 0 and a = -erf(b) for |Re b| < 2, and sig = +-1 and
    a = sig * erfc(sig * b) for +-Re b >= 2; the pair is odd in b like erf,
    and the Gaussian is even, so each distinct |j| among the boundaries d,
    d+1 is evaluated once (the full range d = -n..n costs n+2 evaluations per
    step value, a scalar d two) and neighbours are differenced.  In an
    interval saturated at both ends on the same side sig cancels exactly and
    the bracket is the erfc difference, avoiding the total cancellation of
    1 - tiny against 1 - tiny.  Steps are assumed to lie within 45 degrees
    of the real axis, as xi does along the whole Ewald contour (Re b^2 >= 0,
    so erfc stays bounded).
    """
    d = np.asarray(d)
    step = np.asarray(step, dtype=complex)
    js, inv = np.unique(np.abs(np.stack([d, d + 1])), return_inverse=True)
    c = js.reshape((-1,) + (1,) * step.ndim) * step
    pos, neg = c.real >= 2.0, c.real <= -2.0
    mid = ~(pos | neg)
    a = np.empty(c.shape, dtype=complex)
    a[mid] = -special.erf(c[mid])
    a[pos] = special.erfc(c[pos])
    a[neg] = -special.erfc(-c[neg])
    sig = pos.astype(np.int8) - neg.astype(np.int8)
    gauss = np.exp(-c * c)

    # flat positions in the (|j|, step) tables of the boundaries d and d+1
    cols = np.arange(step.size).reshape(step.shape)
    lo, hi = inv.reshape((2,) + d.shape) * step.size
    lo, hi = lo + cols, hi + cols
    sign_lo = np.where(d < 0, -1, 1)
    sign_hi = np.where(d + 1 < 0, -1, 1)
    bracket = ((sign_hi * sig.take(hi) - sign_lo * sig.take(lo))
               + (sign_lo * a.take(lo) - sign_hi * a.take(hi)))
    return bracket, gauss.take(hi) - gauss.take(lo)


def g_z_spatial(d, xi, zg: ZGrid):
    """Half-triangle z' integral int_{d*D}^{(d+1)*D} ((d+1) - s/D) e^{-s^2 xi^2} ds."""
    d = np.asarray(d)
    xi = np.asarray(xi)
    dd = zg.delta
    bracket, gauss = _boundary_differences(d, xi * dd)
    return ((d + 1) * np.sqrt(np.pi) / (2 * xi) * bracket
            + 1 / (2 * dd * xi * xi) * gauss)
