"""Exception and warning types shared across the solver, and the memory
check that raises SizeCap before a large allocation."""

import os


class GaborscatError(Exception):
    """Base class for all package errors."""


class SingularFrame(GaborscatError):
    """Frame operator is numerically singular; no bounded dual window exists."""


class GridTooCoarse(GaborscatError):
    """Analysis grid spacing too coarse for reliable inner products."""


class QuadratureFailure(GaborscatError):
    """Adaptive quadrature did not converge within its subdivision budget."""


class DomainError(GaborscatError):
    """Argument outside the mathematical domain of the operation."""


class DimensionMismatch(GaborscatError):
    """Coefficient array dimensions inconsistent with the discretization."""


class SizeCap(GaborscatError):
    """Problem size exceeds a fixed cap: the direct solve's active unknowns,
    the MoM oracle's cell count, or the machine's memory."""


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes: int, what: str) -> None:
    """SizeCap when nbytes, the estimated memory of `what`, exceeds the
    machine's physical memory."""
    if nbytes > _physical_memory():
        raise SizeCap(f"{what} needs {nbytes / 2**30:.1f} GiB, more than the "
                      "machine's memory")


class NonConvergence(GaborscatError):
    """Iterative solver failed to reach tolerance within the iteration cap.

    Carries the relative residual history (one entry per GMRES inner
    iteration) and the matvecs spent."""

    def __init__(self, message: str, *, residuals: list, matvecs: int):
        super().__init__(message)
        self.residuals = list(residuals)
        self.matvecs = matvecs


class GridMismatch(GaborscatError):
    """Field grids do not share a common sampling."""


class SingularMatrix(GaborscatError):
    """Direct solve hit an exactly singular system matrix."""


class ConfigError(GaborscatError):
    """Run configuration failed validation."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class IllConditionedFit(Warning):
    """Dual-window fit normal equations are ill conditioned; truncated-SVD fallback used."""
