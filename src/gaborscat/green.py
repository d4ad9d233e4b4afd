"""2D Helmholtz Green function and its Ewald integral splitting.

Time convention is exp(+j*omega*t), so the outgoing free-space Green function
is H0^(2); the Ewald representation integrates exp(-R^2 xi^2 + k0^2/(4 xi^2))/xi
over a contour that leaves xi = 0 along the (1+j) ray and returns to the real
axis at the splitting point.  The head of the integral (the spectral part) is
evaluated in the inverse variable zeta = 1/xi, where the endpoint oscillation
exp(-j k0^2 w^2 / 8) becomes a quadratic-phase tail; the integrand is
analytic in w, so `quadrature.tail_path` takes that tail off the real axis to
where it decays exponentially.  Direct quadrature on the xi side cannot reach
the endpoint: the phase k0^2/(8 w^2) completes ~1e7 oscillations before any
usable cutoff.

Every coupling entry and the Green function itself are one integral,
int h(xi) e^{k0^2/4xi^2}/xi dxi along the contour (h = f g for the tables,
e^{-R^2 xi^2} for the Green function), on one discretization: `spatial_rule`
on the real axis from E and `spectral_rule` on the rest, whose weights carry
that measure.  Tables and Green-function halves contract h on them through
`quadrature.contract`; each half doubles its panels
(`quadrature.doubling_checked`) until two refinements agree within quad_tol.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import (contract, doubling_checked, panel_nodes, subdivided_panels,
                         tail_path)

_SPATIAL_RATIO = 1.3  # largest endpoint ratio of a spatial panel on [E, xc]
_TAIL_PANELS = 8     # Gauss-Legendre panels of the compactified spatial tail
_HEAD_PANELS = 24    # Gauss-Legendre panels of the spectral head
_MAX_REFINE = 1024   # panel-doubling budget of the Green-function halves


@dataclass(frozen=True)
class EwaldConfig:
    """Splitting parameter and the one accuracy setting, quad_tol, for one
    wavenumber: every table and Green-function half is checked against it
    by panel doubling."""
    split: float
    k0: float
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.split < np.inf and 0 < self.k0 < np.inf):
            raise DomainError("split and k0 must be positive and finite")
        if not 0 < self.quad_tol < 1:
            raise DomainError("quad_tol must lie in (0, 1)")

    @property
    def negligible(self) -> float:
        """quad_tol / 1e4 (1e-14 by default): integrand magnitudes below it
        are dropped unintegrated, by the spatial table and green_spatial."""
        return self.quad_tol / 1e4


def optimal_split(k0: float, delta: float) -> float:
    """Splitting parameter balancing z-Gaussian decay against tail oscillation.

    Solves delta^2 E^2 = k0^2 / (2 E^2).
    """
    if k0 <= 0 or delta <= 0:
        raise DomainError("k0 and delta must be positive")
    return 2.0 ** -0.25 * np.sqrt(k0 / delta)


def green_exact(r, k0: float):
    """Free-space Green function H0^(2)(k0 R) / 4j for R > 0."""
    from scipy import special    # on first use: a solve never calls this

    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("green_exact requires R > 0 (log singularity at R=0)")
    return special.hankel2(0, k0 * r) / 4j


def zeta_path(w, split: float):
    """Inverse-variable contour zeta(w) = 1/xi(1/w) for w >= 1/E."""
    w = np.asarray(w, dtype=float)
    out = np.empty(w.shape, dtype=complex)
    m1 = w < 2 / split
    ww = w[m1]
    out[m1] = (ww - (split * ww * ww - ww) * 1j) / (1 + (split * ww - 1) ** 2)
    out[~m1] = (1 - 1j) / 2 * w[~m1]
    return out if out.shape else complex(out)


def zeta_path_derivative(w, split: float):
    """d(zeta)/dw along the inverse-variable contour."""
    w = np.asarray(w, dtype=float)
    out = np.empty(w.shape, dtype=complex)
    m1 = w < 2 / split
    ww = w[m1]
    num = ww - (split * ww * ww - ww) * 1j
    dnum = 1 - (2 * split * ww - 1) * 1j
    den = 1 + (split * ww - 1) ** 2
    dden = 2 * (split * ww - 1) * split
    out[m1] = (dnum * den - num * dden) / den ** 2
    out[~m1] = (1 - 1j) / 2
    return out if out.shape else complex(out)


def _with_measure(xi, weights, k0: float):
    """The nodes xi and their weights times the Ewald measure e^{k0^2/4xi^2}/xi."""
    return xi, np.exp(k0 * k0 / (4 * xi * xi)) / xi * weights


def spatial_rule(cfg: EwaldConfig, rho: float, refine: int):
    """Nodes and measure-carrying weights of the real axis from the splitting
    point E to infinity: geometric panels on [E, xc], none spanning an
    endpoint ratio above _SPATIAL_RATIO^(1/refine), then the remainder
    compactified as xi = xc/t on refine * _TAIL_PANELS panels of t in (0, 1].
    The break xc = max(2E, sqrt(4 - ln cfg.negligible)/rho) is where
    e^{-rho^2 xi^2} falls below e^{-4} cfg.negligible, rho the integrand's
    smallest nonzero separation; its algebraic rest the tail takes exactly."""
    xc = max(2 * cfg.split, np.sqrt(4.0 - np.log(cfg.negligible)) / rho)
    x, wx = subdivided_panels(np.array([cfg.split, xc]), _SPATIAL_RATIO ** (1 / refine))
    t, wt = panel_nodes(np.linspace(0.0, 1.0, refine * _TAIL_PANELS + 1))
    return _with_measure(np.concatenate([x, xc / t]),
                         np.concatenate([wx, wt * xc / t ** 2]), cfg.k0)


def spectral_rule(cfg: EwaldConfig, c: float, refine: int):
    """Nodes xi = 1/zeta(w) and measure-carrying weights from zeta'/zeta^2 dw =
    -dxi of the rest of the contour, from xi = 0 to E: refine * _HEAD_PANELS
    head panels on [1/E, 2/E] along zeta_path, then the tail zeta = (1-j)w/2
    along `quadrature.tail_path` for phase rates |c'| <= c of the 1/w^2
    terms."""
    split = cfg.split
    w, dw = panel_nodes(np.linspace(1 / split, 2 / split,
                                    refine * _HEAD_PANELS + 1))
    zeta, dzeta = zeta_path(w, split), zeta_path_derivative(w, split) * dw
    w, dw = tail_path(2 / split, cfg.k0, c, refine)
    zeta = np.concatenate([zeta, (1 - 1j) / 2 * w])
    dzeta = np.concatenate([dzeta, (1 - 1j) / 2 * dw])
    return _with_measure(1 / zeta, dzeta / zeta ** 2, cfg.k0)


def _green_half(dx, dz, cfg: EwaldConfig, rule, what: str):
    """(1/2pi) sum_n e^{-R^2 xi_n^2} w_n at R = hypot(dx, dz) > 0 over
    (xi, w) = rule(R, refine), refined by panel doubling up to _MAX_REFINE."""
    r = np.hypot(np.asarray(dx, dtype=float), np.asarray(dz, dtype=float))
    if np.any(r <= 0):
        raise DomainError(f"{what} requires R > 0")
    r2 = r.reshape(-1, 1) ** 2

    def integral(xi, weights):
        return contract(lambda x: np.exp(-r2 * x * x), np.ones_like, xi,
                        weights) / (2 * np.pi)

    v, _ = doubling_checked(integral, lambda k: rule(r, k), cfg.quad_tol, what,
                            _MAX_REFINE)
    return complex(v[0]) if r.ndim == 0 else v.reshape(r.shape)


def green_spatial(dx, dz, cfg: EwaldConfig):
    """Real-axis tail of the Ewald integral, (1/2pi) int_E^inf e^{-R^2 x^2 + k0^2/4x^2} dx/x,
    for R > 0 on spatial_rule, its break set by the smallest R."""
    return _green_half(dx, dz, cfg, lambda r, k: spatial_rule(cfg, r.min(), k),
                       "green_spatial")


def green_spectral(dx, dz, cfg: EwaldConfig):
    """Contour head of the Ewald integral, evaluated in the inverse variable.

    Equals (1/2pi) int over zeta from 1/E of e^{-R^2/zeta^2 + k0^2 zeta^2/4} dzeta/zeta
    for R > 0 on spectral_rule; the w > 2/E tail oscillates as
    exp(-j k0^2 w^2/8 - 2j R^2/w^2) / w, so the path's phase bound is 2R^2.
    """
    return _green_half(
        dx, dz, cfg, lambda r, k: spectral_rule(cfg, 2 * float(r.max()) ** 2, k),
        "green_spectral")


def split_identity_error(k0: float, radii, split: float) -> np.ndarray:
    """Relative error |G_spatial + G_spectral - G_exact| / |G_exact| over
    radii, at the default quad_tol."""
    radii = np.asarray(radii, dtype=float)
    cfg = EwaldConfig(split=split, k0=k0)
    total = green_spatial(radii, 0.0, cfg) + green_spectral(radii, 0.0, cfg)
    exact = green_exact(radii, k0)
    return np.abs(total - exact) / np.abs(exact)
