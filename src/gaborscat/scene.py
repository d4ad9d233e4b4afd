"""Scatterer geometry, contrast sampling, incident plane wave, and the
projection of the incident contrast source onto the discretization."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .frame import FrameParams
from .kernels import ZGrid


@dataclass(frozen=True)
class Circle:
    radius: float

    def half_extents(self) -> tuple[float, float]:
        """(x, z) half-widths of the bounding box about the centre."""
        return self.radius, self.radius

    def contains(self, x, z):
        """Boolean indicator at offsets (x, z) from the centre."""
        return x * x + z * z <= self.radius ** 2


@dataclass(frozen=True)
class Rectangle:
    width: float      # x extent
    height: float     # z extent

    def half_extents(self) -> tuple[float, float]:
        return self.width / 2, self.height / 2

    def contains(self, x, z):
        return (np.abs(x) <= self.width / 2) & (np.abs(z) <= self.height / 2)


@dataclass(frozen=True)
class Grating:
    n_blocks: int
    block_w: float
    block_h: float
    spacing: float    # center-to-center period in x

    def half_extents(self) -> tuple[float, float]:
        return (((self.n_blocks - 1) * self.spacing + self.block_w) / 2,
                self.block_h / 2)

    def contains(self, x, z):
        centers = (np.arange(self.n_blocks) - (self.n_blocks - 1) / 2) * self.spacing
        hit = (np.abs(x[..., None] - centers) <= self.block_w / 2).any(axis=-1)
        return hit & (np.abs(z) <= self.block_h / 2)


# config name -> shape class; a config names the fields of its dataclass
SHAPES = {"circle": Circle, "rectangle": Rectangle, "grating": Grating}


@dataclass(frozen=True)
class Scene:
    shape: Circle | Rectangle | Grating
    eps_r: float
    k0: float
    theta: float          # incidence angle, radians
    e0: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.shape, tuple(SHAPES.values())):
            raise DomainError(f"unknown shape {self.shape!r}")
        if not 1 <= self.eps_r < np.inf:
            raise DomainError("eps_r must be finite and >= 1 (lossless dielectric "
                              "in vacuum)")
        if not 0 < self.k0 < np.inf:
            raise DomainError("k0 must be positive and finite")

    @property
    def chi(self) -> float:
        return self.eps_r - 1.0

    @property
    def wavelength(self) -> float:
        return 2 * np.pi / self.k0


def inside_shape(x, z, scene: Scene):
    """Boolean indicator of the scatterer region."""
    return scene.shape.contains(np.asarray(x, dtype=float) - scene.center[0],
                                np.asarray(z, dtype=float) - scene.center[1])


def contrast_at(x, z, scene: Scene):
    """Sharp contrast chi inside the shape, 0 outside (no smoothing)."""
    return scene.chi * inside_shape(x, z, scene)


def incident_field(x, z, scene: Scene):
    """Unit-modulus plane wave E0 exp(j k0 (x cos theta + z sin theta))."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return scene.e0 * np.exp(
        1j * scene.k0 * (x * np.cos(scene.theta) + z * np.sin(scene.theta)))


def validate_scene(scene: Scene, fp: FrameParams, zg: ZGrid) -> None:
    """Check the object against the discretization coverage.

    z overflow is an error; an x margin of fewer than two window shifts inside
    the outermost window centers only warns, because the reference scenes
    themselves run with the support touching the coverage edge.
    """
    hx, hz = scene.shape.half_extents()
    zc = scene.center[1]
    if zc - hz < zg.z_min - 1e-12 or zc + hz > zg.z_max + 1e-12:
        raise DomainError("object does not fit inside [z_min, z_max]")
    reach = fp.M * fp.alpha * fp.X
    support = abs(scene.center[0]) + hx
    if support > reach + 2 * fp.X:
        raise DomainError("object lies outside the frame coverage")
    if support > reach - 2 * fp.alpha * fp.X:
        warnings.warn(
            f"contrast support ({support:.3g} m) is within two window shifts of "
            f"the outermost window center ({reach:.3g} m); edge coefficients "
            "will be truncated", stacklevel=2)


def project_source(scene: Scene, zg: ZGrid, grid: np.ndarray,
                   chi_slices: np.ndarray, analysis: np.ndarray) -> np.ndarray:
    """Frame/triangle coefficients of chi * E_inc, ((2M+1)(2N+1), n_k+1), by
    the analysis matrix of the x-grid, from chi_slices, the contrast at grid
    on each z node, (n_k+1, len(grid)) (triangles are interpolatory, so the
    z direction is plain nodal sampling)."""
    e_inc = incident_field(grid[None, :], zg.nodes[:, None], scene)
    return analysis @ (chi_slices * e_inc).T
