"""Brute-force volume method-of-moments reference solver and field comparison.

Pulse basis on square cells with point matching; cells that straddle the
material boundary are represented by their occupied patch (area-fraction area,
collocation at the patch centroid), which halves the staircase error against
the analytic cylinder series at the same cell size.  The self term integrates
the Green function over the equal-area circle of the patch in closed form.
"""

import os
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, GridMismatch, SingularMatrix, SizeCap
from .green import green_exact
from .scene import (Scene, contrast_at, incident_field, inside_shape,
                    x_half_extent, z_half_extent)

_MAX_CELLS = 40000
_FRACTION_SUBSAMPLE = 16
_BYTES_PER_ENTRY = 72    # dx, dz, r real; s, a and np.linalg.solve's copy complex


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class MoMConfig:
    """Cell size and optional bounding box override for the reference solver."""
    cell: float | None = None        # None: lambda/20
    region: tuple[float, float, float, float] | None = None   # x0, x1, z0, z1

    def resolved_cell(self, scene: Scene) -> float:
        cell = self.cell if self.cell is not None else scene.wavelength / 20
        if not (np.isfinite(cell) and cell > 0):
            raise DomainError(f"MoM cell must be positive and finite, got {cell!r}")
        if cell > scene.wavelength / 10:
            raise DomainError("MoM cell must be at most lambda/10")
        return cell


@dataclass
class MoMResult:
    """Cell solution of the volume integral equation."""
    x: np.ndarray            # patch centroids
    z: np.ndarray
    fraction: np.ndarray     # occupied fraction of each cell
    e_total: np.ndarray
    e_scattered: np.ndarray
    cell: float
    scene: Scene

    def scattered_at(self, x, z) -> np.ndarray:
        """Radiate E^s = k0^2 sum_j chi area_j G(r, r_j) E_j to external points."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        k0 = self.scene.k0
        area = self.cell ** 2 * self.fraction
        r = np.sqrt((x[..., None] - self.x) ** 2 + (z[..., None] - self.z) ** 2)
        near = r < 1e-9
        r = np.where(near, 1.0, r)
        g = green_exact(r, k0)
        a_eq = np.sqrt(area / np.pi)
        self_term = (-1j * np.pi * a_eq / (2 * k0) * special.hankel2(1, k0 * a_eq)
                     - 1 / k0 ** 2)
        g = np.where(near, self_term / area, g)
        return k0 ** 2 * np.einsum('...j,j->...',
                                   g * area * self.scene.chi, self.e_total)


def _patches(scene: Scene, cfg: MoMConfig):
    """Cell grid, occupied fractions, and patch centroids."""
    cell = cfg.resolved_cell(scene)
    if cfg.region is not None:
        x0, x1, z0, z1 = cfg.region
    else:
        cx, cz = scene.center
        hx, hz = x_half_extent(scene.shape), z_half_extent(scene.shape)
        x0, x1, z0, z1 = cx - hx, cx + hx, cz - hz, cz + hz
    nx = max(1, int(np.ceil((x1 - x0) / cell)))
    nz = max(1, int(np.ceil((z1 - z0) / cell)))
    xs = x0 + (x1 - x0) / 2 + (np.arange(nx) - (nx - 1) / 2) * cell
    zs = z0 + (z1 - z0) / 2 + (np.arange(nz) - (nz - 1) / 2) * cell
    xg, zg = np.meshgrid(xs, zs, indexing="ij")
    sub = (np.arange(_FRACTION_SUBSAMPLE) + 0.5) / _FRACTION_SUBSAMPLE - 0.5
    frac = np.zeros_like(xg)
    cx_acc = np.zeros_like(xg)
    cz_acc = np.zeros_like(xg)
    for sx in sub:
        for sz in sub:
            inside = inside_shape(xg + sx * cell, zg + sz * cell, scene)
            frac += inside
            cx_acc += inside * (xg + sx * cell)
            cz_acc += inside * (zg + sz * cell)
    keep = frac > 0
    centroids_x = cx_acc[keep] / frac[keep]
    centroids_z = cz_acc[keep] / frac[keep]
    return cell, centroids_x, centroids_z, frac[keep] / _FRACTION_SUBSAMPLE ** 2


def mom_solve(scene: Scene, cfg: MoMConfig = MoMConfig()) -> MoMResult:
    """Solve E = E_inc + k0^2 int G chi E with pulse cells and point matching."""
    cell, xc, zc, frac = _patches(scene, cfg)
    n = len(xc)
    if n > _MAX_CELLS:
        raise SizeCap(f"{n} MoM cells exceed the {_MAX_CELLS} cap")
    if n == 0:
        raise DomainError("scene has no material cells")
    if _BYTES_PER_ENTRY * n * n > _physical_memory():
        raise SizeCap(f"{n} MoM cells need {_BYTES_PER_ENTRY * n * n / 2**30:.1f} GiB "
                      "for the dense solve, more than the machine's memory")
    k0 = scene.k0
    area = cell * cell * frac
    dx = xc[:, None] - xc[None, :]
    dz = zc[:, None] - zc[None, :]
    r = np.sqrt(dx * dx + dz * dz)
    r[np.arange(n), np.arange(n)] = 1.0
    s = area[None, :] * green_exact(r, k0)
    a_eq = np.sqrt(area / np.pi)
    s[np.arange(n), np.arange(n)] = (
        -1j * np.pi * a_eq / (2 * k0) * special.hankel2(1, k0 * a_eq)
        - 1 / k0 ** 2)
    a = np.eye(n) - k0 * k0 * scene.chi * s
    e_inc = incident_field(xc, zc, scene)
    try:
        e_total = np.linalg.solve(a, e_inc)
    except np.linalg.LinAlgError as exc:          # lossless chi >= 0: fatal
        raise SingularMatrix(str(exc)) from exc
    return MoMResult(x=xc, z=zc, fraction=frac, e_total=e_total,
                     e_scattered=e_total - e_inc, cell=cell, scene=scene)


def interior_mask(result: MoMResult) -> np.ndarray:
    """Patches lying entirely inside the object.

    The contrast source rings at the material discontinuity (Gibbs), and
    boundary-straddling patches average over points outside the support where
    chi*E^s structurally vanishes, so inside-object comparisons use the fully
    interior patches.
    """
    return np.isclose(result.fraction, 1.0)


def compare_fields(a: np.ndarray, b: np.ndarray,
                   mask: np.ndarray | None = None) -> dict:
    """Error metrics of field a against reference b over an optional mask."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise GridMismatch(f"field shapes differ: {a.shape} vs {b.shape}")
    if mask is None:
        mask = np.ones(a.shape, dtype=bool)
    if mask.shape != a.shape:
        raise GridMismatch("mask shape differs from field shape")
    err = np.abs(a - b)
    denom = np.linalg.norm(b[mask])
    rel = float(np.linalg.norm((a - b)[mask]) / denom) if denom > 0 else \
        (0.0 if not np.any(err[mask]) else float("inf"))
    return {"abs_error": err,
            "rel_l2": rel,
            "max_abs": float(err[mask].max()) if np.any(mask) else 0.0}


def cylinder_reference_field(x, z, scene: Scene, n_terms: int | None = None,
                             which: str = "total") -> np.ndarray:
    """Analytic series for the dielectric circular cylinder (interior points).

    Scalar field with E and dE/drho continuous across the boundary; outgoing
    parts carry H^(2) under the e^{j w t} convention.
    """
    if not hasattr(scene.shape, "radius"):
        raise DomainError("cylinder series requires a Circle scene")
    r0 = scene.shape.radius
    k0 = scene.k0
    k1 = k0 * np.sqrt(scene.eps_r)
    x = np.asarray(x, dtype=float) - scene.center[0]
    z = np.asarray(z, dtype=float) - scene.center[1]
    rho = np.hypot(x, z)
    if np.any(rho > r0 * (1 + 1e-12)):
        raise DomainError("series evaluation implemented for interior points only")
    phi = np.arctan2(z, x)
    u, v = k0 * r0, k1 * r0
    if n_terms is None:
        n_terms = int(np.ceil(v + 12 + 4 * v ** (1 / 3)))
    total = np.zeros(rho.shape, dtype=complex)
    for n in range(-n_terms, n_terms + 1):
        ju, jv = special.jv(n, u), special.jv(n, v)
        jpu, jpv = special.jvp(n, u), special.jvp(n, v)
        h, hp = special.hankel2(n, u), special.h2vp(n, u)
        b_n = -(k1 * jpv * ju - k0 * jv * jpu) / (k1 * jpv * h - k0 * jv * hp)
        c_n = (ju + b_n * h) / jv
        total += (1j ** n * c_n * special.jv(n, k1 * rho)
                  * np.exp(1j * n * (phi - scene.theta)))
    total *= scene.e0
    if which == "total":
        return total
    if which == "scattered":
        return total - incident_field(x + scene.center[0], z + scene.center[1], scene)
    raise ValueError(f"unknown field selector {which!r}")
