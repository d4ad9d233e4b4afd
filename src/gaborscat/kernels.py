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

The complex erf is numpy's own, and g's boundary differences are its one
use: erfc(c) = e^{-c^2} w(jc) for Re c >= 0 by Weideman's rational series
for the Faddeeva function w (J. A. C. Weideman, Computation of the complex
error function, SIAM J. Numer. Anal. 31 (1994) 1497-1518), with N = 32
terms, and erf(c) by its Maclaurin series for |c| <= 1, where 1 - erfc
would cancel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .frame import FrameParams


@dataclass(frozen=True)
class ZGrid:
    """Uniform triangle grid in z: nodes z_min + k*delta, k = 0..n_k."""
    z_min: float
    delta: float
    n_k: int

    def __post_init__(self):
        if not (0 < self.delta < np.inf and np.isfinite(self.z_min)):
            raise DomainError("delta must be positive and finite, z_min finite")
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


def x_rate(xi, fp: FrameParams):
    """Rate s(xi) = pi / (2 + pi/(X^2 xi^2)) of the x-Gaussian in f."""
    xi = np.asarray(xi)
    return np.pi / (2 + np.pi / (fp.X * fp.X * xi * xi))


def f_spatial(q, p, xi, fp: FrameParams):
    """Gaussian x-coupling factor of the Ewald integrand,
    f = e^{-s (alpha q + j beta p)^2 - pi/2 beta^2 p^2} / sqrt(4 X^2 xi^2 + 2 pi)
    with s = x_rate(xi).

    q, p and xi broadcast; xi may be complex with Re xi^2 >= 0, as it is on
    the whole contour.
    """
    q = np.asarray(q)
    p = np.asarray(p)
    xi = np.asarray(xi)
    quad = (fp.alpha * q + 1j * fp.beta * p) ** 2
    return (1 / np.sqrt(4 * fp.X * fp.X * xi * xi + 2 * np.pi)
            * np.exp(-x_rate(xi, fp) * quad - np.pi / 2 * fp.beta ** 2 * p ** 2))


def _weideman_series(n: int):
    """Coefficients a_n..a_1 (highest power first) and the scale L of
    Weideman's N = n rational series for the Faddeeva function w(z), Im z >= 0:
    w(z) = 2 p(Z) / (L - jz)^2 + 1 / (sqrt(pi) (L - jz)), Z = (L + jz)/(L - jz),
    p(Z) = sum_k a_k Z^(k-1), the a_k taken from one FFT of the map of
    e^{-t^2}(L^2 + t^2) to the unit circle."""
    m = 2 * n
    scale = np.sqrt(n / np.sqrt(2))
    t = scale * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return a[n:0:-1], scale


_W_COEFFS, _W_SCALE = _weideman_series(32)
# Maclaurin coefficients of erf(c) / c in powers of c^2, highest first: the
# terms left out are below 1e-21 of the sum for |c| <= 1
_ERF_TAYLOR = np.array([2 / math.sqrt(math.pi) * (-1) ** k
                        / (math.factorial(k) * (2 * k + 1)) for k in range(21)])[::-1]


def _horner(coeffs, x):
    acc = np.full(x.shape, coeffs[0], dtype=complex)
    for a in coeffs[1:]:
        acc *= x
        acc += a
    return acc


def _erfc_right(c, gauss):
    """erfc(c) = e^{-c^2} w(jc) for Re c >= 0, given gauss = e^{-c^2}; jc lies
    in the upper half plane, where Weideman's series holds."""
    lc = _W_SCALE + c
    return gauss * ((2 / (lc * lc)) * _horner(_W_COEFFS, (_W_SCALE - c) / lc)
                    + 1 / (np.sqrt(np.pi) * lc))


def _erf_small(c):
    """erf(c) for |c| <= 1 by its Maclaurin series."""
    return c * _horner(_ERF_TAYLOR, c * c)


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
    1 - tiny against 1 - tiny.  erf is taken from its Maclaurin series for
    |b| <= 1 and from erfc(+-b) = e^{-b^2} w(+-jb) beyond, with the Gaussian
    that g differences anyway (formed from the rounded b^2, so eps |b|^2
    relative, as scipy's erfc has it).  It is validated at the level of g,
    against a high-precision evaluation of g's closed form on nodes of both
    table rules and across the series switches |b| = 1 and Re b = 2: the
    contour's steps leave the real axis by up to 66 degrees in its spectral
    tail, but keep Re b^2 >= -0.07, so |e^{-b^2}| stays near or below 1 and
    w is taken in the closed upper half plane.
    """
    d = np.asarray(d)
    step = np.asarray(step, dtype=complex)
    js, inv = np.unique(np.abs(np.stack([d, d + 1])), return_inverse=True)
    c = js.reshape((-1,) + (1,) * step.ndim) * step
    gauss = np.exp(-c * c)
    # a from erf(c) for |c| <= 1; beyond, from erfc(r) of r = +-c, Re r >= 0
    flip = c.real < 0
    small = np.abs(c) <= 1
    a = np.empty(c.shape, dtype=complex)
    a[small] = -_erf_small(c[small])
    big = ~small
    r = np.where(flip, -c, c)[big]
    e = _erfc_right(r, gauss[big])
    sat = np.abs(c.real) >= 2
    a[big] = np.where(sat[big], e, e - 1) * np.where(flip[big], -1, 1)
    sig = np.where(sat, np.where(flip, -1, 1), 0).astype(np.int8)

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
