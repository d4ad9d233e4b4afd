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
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .quadrature import adaptive_quad, tail_path


@dataclass(frozen=True)
class EwaldConfig:
    """Splitting parameter and quadrature tolerances for one wavenumber."""
    split: float
    k0: float
    quad_tol: float = 1e-10
    trunc_tol: float = 1e-14

    def __post_init__(self):
        if self.split <= 0 or self.k0 <= 0:
            raise DomainError("split and k0 must be positive")
        if not (0 < self.quad_tol < 1 and 0 < self.trunc_tol < 1):
            raise DomainError("tolerances must lie in (0, 1)")


def optimal_split(k0: float, delta: float) -> float:
    """Splitting parameter balancing z-Gaussian decay against tail oscillation.

    Solves delta^2 E^2 = k0^2 / (2 E^2).
    """
    if k0 <= 0 or delta <= 0:
        raise DomainError("k0 and delta must be positive")
    return 2.0 ** -0.25 * np.sqrt(k0 / delta)


def green_exact(r, k0: float):
    """Free-space Green function H0^(2)(k0 R) / 4j for R > 0."""
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


def _radii(dx, dz):
    dx = np.asarray(dx, dtype=float)
    dz = np.asarray(dz, dtype=float)
    return np.hypot(dx, dz)


def green_spatial(dx, dz, cfg: EwaldConfig):
    """Real-axis tail of the Ewald integral, (1/2pi) int_E^inf e^{-R^2 x^2 + k0^2/4x^2} dx/x.

    Regular for all R when the 1/x tail is truncated; at R = 0 the value is the
    conventional finite one with the tail cut at 100*E.
    """
    r = _radii(dx, dz)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    e = cfg.split
    k0 = cfg.k0
    out = np.empty(r.shape, dtype=complex)

    pos = r > 0
    if np.any(pos):
        rp = r[pos][:, None]
        # beyond xc the integrand is below trunc_tol for every positive radius
        xc = max(2 * e, np.sqrt(-np.log(cfg.trunc_tol) + 4.0) / r[pos].min())

        def body(x):
            x = np.atleast_1d(x)
            return np.exp(-rp * rp * x * x + k0 * k0 / (4 * x * x)) / x

        v = adaptive_quad(body, e, xc, rtol=cfg.quad_tol)
        # map the remaining tail to (0, 1]; integrand vanishes smoothly at t=0
        v = v + adaptive_quad(lambda t: body(xc / t) * xc / t ** 2,
                              1e-12, 1.0, rtol=cfg.quad_tol)
        out[pos] = v[:, 0] if v.ndim == 2 else v
    if np.any(~pos):
        # R = 0: log-divergent tail, truncated at the 100*E cap by convention
        f0 = lambda x: np.exp(k0 * k0 / (4 * x * x)) / x
        out[~pos] = adaptive_quad(f0, e, 100 * e, rtol=cfg.quad_tol)
    out /= 2 * np.pi
    return complex(out[0]) if scalar else out


def green_spectral(dx, dz, cfg: EwaldConfig):
    """Contour head of the Ewald integral, evaluated in the inverse variable.

    Equals (1/2pi) int over zeta from 1/E of e^{-R^2/zeta^2 + k0^2 zeta^2/4} dzeta/zeta;
    the w > 2/E tail oscillates as exp(-j k0^2 w^2/8 - 2j R^2/w^2) / w and is
    taken along the deformed path of `quadrature.tail_path`.
    """
    r = _radii(dx, dz)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r <= 0):
        raise DomainError("green_spectral requires R > 0")
    e = cfg.split
    k0 = cfg.k0
    rc = r[:, None]

    def head(w):
        w = np.atleast_1d(w)
        z = zeta_path(w, e)
        return (np.exp(-rc * rc / (z * z) + k0 * k0 * z * z / 4)
                * zeta_path_derivative(w, e) / z)

    v = adaptive_quad(head, 1 / e, 2 / e, rtol=cfg.quad_tol)
    if v.ndim == 2:
        v = v[:, 0]

    w, weights = tail_path(2 / e, k0, 2 * float(r.max()) ** 2, 1)
    v = v + (np.exp(-2j * rc * rc / (w * w) - 1j * k0 * k0 * w * w / 8) / w) @ weights
    v /= 2 * np.pi
    return complex(v[0]) if scalar else v


def split_identity_error(k0: float, radii, split: float | None = None,
                         quad_tol: float = 1e-10) -> np.ndarray:
    """Relative error |G_spatial + G_spectral - G_exact| / |G_exact| over radii."""
    radii = np.asarray(radii, dtype=float)
    if split is None:
        split = optimal_split(k0, 0.05)
    cfg = EwaldConfig(split=split, k0=k0, quad_tol=quad_tol)
    total = green_spatial(radii, 0.0, cfg) + green_spectral(radii, 0.0, cfg)
    exact = green_exact(radii, k0)
    return np.abs(total - exact) / np.abs(exact)
