"""Closed-form integrand factors of the reduced coupling integrals.

The x/x' (or kx) double integrals of window-against-dual products collapse to
the Gaussian factors f / f_tilde below; the z' integrals over triangle halves
collapse to the erf combinations g / g_tilde.  All reductions are validated
against direct quadrature of their defining integrals in the test suite.
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


def erf_diff(a, b):
    """erf(b) - erf(a), stable when both arguments sit deep in a saturated tail.

    For Re >= 2 the values are computed as erfc(a) - erfc(b) (and mirrored for
    Re <= -2), avoiding the total cancellation of 1 - tiny against 1 - tiny.
    Arguments are assumed to lie within 45 degrees of the real axis, as they do
    on the Ewald contours (Re z^2 >= 0, so erfc stays bounded).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    both_pos = (a.real >= 2.0) & (b.real >= 2.0)
    both_neg = (a.real <= -2.0) & (b.real <= -2.0)
    mid = ~(both_pos | both_neg)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    if np.any(mid):
        am = np.broadcast_to(a, out.shape)[mid]
        bm = np.broadcast_to(b, out.shape)[mid]
        out[mid] = special.erf(bm) - special.erf(am)
    if np.any(both_pos):
        am = np.broadcast_to(a, out.shape)[both_pos]
        bm = np.broadcast_to(b, out.shape)[both_pos]
        out[both_pos] = special.erfc(am) - special.erfc(bm)
    if np.any(both_neg):
        am = np.broadcast_to(a, out.shape)[both_neg]
        bm = np.broadcast_to(b, out.shape)[both_neg]
        out[both_neg] = special.erfc(-bm) - special.erfc(-am)
    return out if out.shape else complex(out)


def f_spatial(q, p, xi, fp: FrameParams):
    """Gaussian x-coupling factor of the real-axis (spatial) integrand.

    q, p and xi broadcast; xi may be complex with Re xi^2 > 0.
    """
    q = np.asarray(q)
    p = np.asarray(p)
    xi = np.asarray(xi)
    x2 = fp.X * fp.X
    quad = (fp.alpha * q + 1j * fp.beta * p) ** 2
    return (1 / np.sqrt(4 * x2 * xi * xi + 2 * np.pi)
            * np.exp(-np.pi / (2 + np.pi / (x2 * xi * xi)) * quad
                     - np.pi / 2 * fp.beta ** 2 * p ** 2))


def f_spectral(q, p, zeta, fp: FrameParams):
    """Gaussian kx-coupling factor of the inverse-variable (spectral) integrand."""
    q = np.asarray(q)
    p = np.asarray(p)
    zeta = np.asarray(zeta)
    den = fp.K * fp.K * zeta * zeta + 8 * np.pi
    quad = (fp.beta * p + 1j * fp.alpha * q) ** 2
    return np.sqrt(np.pi / den) * np.exp(4 * np.pi ** 2 / den * quad
                                         - np.pi / 2 * fp.beta ** 2 * p ** 2)


def g_z_spatial(d, xi, zg: ZGrid):
    """Half-triangle z' integral int_{d*D}^{(d+1)*D} ((d+1) - s/D) e^{-s^2 xi^2} ds."""
    d = np.asarray(d)
    xi = np.asarray(xi)
    dd = zg.delta
    dp = d + 1
    bracket = erf_diff(xi * d * dd, xi * dp * dd)
    return (dp * np.sqrt(np.pi) / (2 * xi) * bracket
            + 1 / (2 * dd * xi * xi) * (np.exp(-dp * dp * dd * dd * xi * xi)
                                        - np.exp(-d * d * dd * dd * xi * xi)))


def g_z_spectral(d, zeta, zg: ZGrid):
    """Half-triangle z' integral with the inverse-variable Gaussian e^{-s^2/zeta^2}."""
    d = np.asarray(d)
    zeta = np.asarray(zeta)
    dd = zg.delta
    dp = d + 1
    bracket = erf_diff(d * dd / zeta, dp * dd / zeta)
    return (np.sqrt(np.pi) * dp / 2 * zeta * bracket
            + zeta * zeta / (2 * dd) * (np.exp(-dp * dp * dd * dd / (zeta * zeta))
                                        - np.exp(-d * d * dd * dd / (zeta * zeta))))
