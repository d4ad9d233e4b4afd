"""Assembly of the two coupling-integral tables over (q, p, d).

Spatial entries integrate e^{k0^2/4xi^2}/xi * f(q,p,xi) * g(d,xi) over the real
axis from the splitting point; the finite part runs to the envelope-based
truncation point and the algebraic remainder is folded in through the
1/xi compactification, so no entry carries truncation error.  Spectral entries
integrate e^{k0^2 zeta^2/4} * f~(q,p,zeta) * g~(d,zeta) along the
inverse-variable contour; the conditionally convergent 1/w tail is summed in
half-period phase blocks and extrapolated by repeated averaging.  Because that
averaging limit is linear in the block sums, the whole phase-block tail is
summed as one weighted contraction: each node carries its block's limit
weight, and every zone of the contour is one (q*p x nodes) @ (nodes x d)
matrix product.

Entries whose integrand envelope at the lower limit is below trunc_tol are set
to zero without quadrature.  Tables depend only on (X, alpha, beta, Delta, n_k,
k0, split, bounds), so they are cached to disk in the EGKT format documented in
docs/table-cache.md.
"""

import hashlib
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, QuadratureFailure
from .frame import FrameParams
from .green import EwaldConfig, zeta_path, zeta_path_derivative
from .kernels import ZGrid, f_spatial, f_spectral, g_z_spatial, g_z_spectral
from .quadrature import (adaptive_quad, limit_weights, oscillatory_tail_bounds,
                         panel_nodes, subdivided_panels)

_FORMAT_VERSION = 1
_MAGIC = b"EGKT"
_KINDS = ("spatial", "spectral")
_HEAD_PANELS = 24    # Gauss-Legendre panels of the spectral head, checked by doubling


def index_bounds(fp: FrameParams, n_u: int, n_v: int) -> tuple[int, int]:
    """Worst-case (q, p) ranges induced by the operator index sums."""
    q_max = 2 * fp.M + max(2 * n_u, n_v)
    p_max = 2 * fp.N + max(2 * n_v, n_u)
    return q_max, p_max


@dataclass(frozen=True)
class KernelTable:
    """Complex table over q in [-Q,Q], p in [-P,P], d in [-n_k, n_k]."""
    data: np.ndarray
    kind: str
    fp: FrameParams
    zg: ZGrid
    cfg: EwaldConfig
    n_u: int
    n_v: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}")
        q_max, p_max = index_bounds(self.fp, self.n_u, self.n_v)
        expect = (2 * q_max + 1, 2 * p_max + 1, 2 * self.zg.n_k + 1)
        if self.data.shape != expect:
            raise DomainError(f"table shape {self.data.shape} != expected {expect}")

    @property
    def q_max(self) -> int:
        return index_bounds(self.fp, self.n_u, self.n_v)[0]

    @property
    def p_max(self) -> int:
        return index_bounds(self.fp, self.n_u, self.n_v)[1]

    def entry(self, q: int, p: int, d: int) -> complex:
        return complex(self.data[q + self.q_max, p + self.p_max, d + self.zg.n_k])


def _q_decay_rate(fp: FrameParams, split: float) -> float:
    """Slowest q^2 decay rate of |f| over the real axis, attained at xi = E."""
    return np.pi / (2 + np.pi / (fp.X ** 2 * split ** 2)) * fp.alpha ** 2


def _p_decay_rate_spectral(fp: FrameParams, split: float) -> float:
    """Slowest p^2 decay rate of |f~| along the contour, attained at zeta = 1/E.

    The positive quadratic term of the exponent cancels most of the p-Gaussian
    near zeta -> 0, so the surviving rate is far below pi/2 * beta^2.
    """
    den = 8 * np.pi + fp.K ** 2 / split ** 2
    return np.pi / 2 * fp.beta ** 2 * (1 - (8 * np.pi / den) ** 2)


def _spatial_envelope(xi: float, q: int, d: int, fp: FrameParams, zg: ZGrid,
                      cfg: EwaldConfig) -> float:
    """Magnitude bound of the spatial integrand at xi (large-xi asymptotics).

    The q-Gaussian uses the slowest (lower-limit) decay rate so the bound is
    conservative over the whole integration range.
    """
    dd = zg.delta
    m_d = min(abs(d), abs(d + 1))
    if m_d == 0:
        g_env = max(np.sqrt(np.pi) / (2 * xi), 1 / (2 * dd * xi * xi))
    else:
        g_env = np.exp(-m_d * m_d * dd * dd * xi * xi) / (2 * m_d * dd * xi * xi)
    return (np.exp(cfg.k0 ** 2 / (4 * xi * xi)) / (2 * fp.X * xi * xi)
            * np.exp(-_q_decay_rate(fp, cfg.split) * q * q) * g_env)


def _spectral_envelope(w: float, p: int, fp: FrameParams, zg: ZGrid) -> float:
    """Oscillatory-tail envelope sqrt(2)*sqrt(2pi)*Delta/(4Kw) * p-Gaussian."""
    return (np.sqrt(2) * np.sqrt(2 * np.pi) * zg.delta / (4 * fp.K * w)
            * np.exp(-np.pi / 2 * fp.beta ** 2 * p * p))


def _spectral_head_envelope(p: int, fp: FrameParams, zg: ZGrid,
                            cfg: EwaldConfig) -> float:
    """Magnitude bound of the contour-head contribution for index p."""
    scale = np.sqrt(1 / 8) * zg.delta / cfg.split
    return scale * np.exp(-_p_decay_rate_spectral(fp, cfg.split) * p * p)


def truncation_point(kind: str, q: int, p: int, d: int, fp: FrameParams,
                     zg: ZGrid, cfg: EwaldConfig) -> float:
    """Argument beyond which the asymptotic envelope is below trunc_tol.

    Spatial points are capped at 100*split (the compactified remainder is
    integrated anyway); spectral points at 200/split (past it the oscillation
    blocks are extrapolated).  Returns the lower limit itself when the envelope
    already starts below threshold (the entry is skipped).
    """
    if kind == "spatial":
        lo, hi = cfg.split, 100 * cfg.split
        env = lambda x: _spatial_envelope(x, q, d, fp, zg, cfg)
    elif kind == "spectral":
        lo, hi = 2 / cfg.split, 200 / cfg.split
        env = lambda w: _spectral_envelope(w, p, fp, zg)
    else:
        raise DomainError(f"kind must be one of {_KINDS}")
    if env(lo) <= cfg.trunc_tol:
        return lo
    if env(hi) > cfg.trunc_tol:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if env(mid) > cfg.trunc_tol:
            lo = mid
        else:
            hi = mid
    return hi


def _check(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig):
    if cfg.split <= 0:
        raise DomainError("EwaldConfig.split must be positive")


def build_spatial_table(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
                        n_u: int, n_v: int) -> KernelTable:
    """Real-axis table; adaptive panels plus a compactified algebraic tail."""
    _check(fp, zg, cfg)
    q_max, p_max = index_bounds(fp, n_u, n_v)
    qs = np.arange(-q_max, q_max + 1)
    ps = np.arange(-p_max, p_max + 1)
    data = np.zeros((len(qs), len(ps), 2 * zg.n_k + 1), dtype=complex)
    e = cfg.split
    k0 = cfg.k0

    # q-range that survives the q-Gaussian at its slowest (lower-limit) rate
    rate = _q_decay_rate(fp, cfg.split)
    live_q = qs[np.exp(-rate * qs.astype(float) ** 2) >= cfg.trunc_tol]
    qg = live_q[:, None, None].astype(float)
    pg = ps[None, :, None].astype(float)

    for di, d in enumerate(range(-zg.n_k, zg.n_k + 1)):
        if _spatial_envelope(e, 0, d, fp, zg, cfg) <= cfg.trunc_tol:
            continue
        xc = truncation_point("spatial", 0, 0, d, fp, zg, cfg)

        def body(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            shared = np.exp(k0 * k0 / (4 * x * x)) / x * g_z_spatial(d, x, zg)
            return f_spatial(qg, pg, x[None, None, :], fp) * shared

        val = adaptive_quad(lambda x: body(x)[..., 0], e, xc, rtol=cfg.quad_tol)
        val = val + adaptive_quad(lambda t: body(xc / t)[..., 0] * xc / t ** 2,
                                  1e-12, 1.0, rtol=cfg.quad_tol)
        data[live_q + q_max, :, di] = val
    return KernelTable(data=data, kind="spatial", fp=fp, zg=zg, cfg=cfg,
                       n_u=n_u, n_v=n_v)


def build_spectral_table(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
                         n_u: int, n_v: int,
                         averaging_depth: int = 40) -> KernelTable:
    """Inverse-variable contour table with phase-block tail extrapolation."""
    _check(fp, zg, cfg)
    q_max, p_max = index_bounds(fp, n_u, n_v)
    qs = np.arange(-q_max, q_max + 1)
    ps = np.arange(-p_max, p_max + 1)
    data = np.zeros((len(qs), len(ps), 2 * zg.n_k + 1), dtype=complex)
    e = cfg.split
    k0 = cfg.k0
    w0, w1 = 1 / e, 2 / e

    live_p = ps[np.array([max(_spectral_envelope(w1, p, fp, zg),
                              _spectral_head_envelope(p, fp, zg, cfg))
                          for p in ps]) >= cfg.trunc_tol]
    qg = qs[:, None, None].astype(float)
    pg = live_p[None, :, None].astype(float)
    ds = np.arange(-zg.n_k, zg.n_k + 1)

    # phase-rate bound of the 1/w^2 terms: f~ exponent plus the g~ erf phases
    phase_coeff = (8 * np.pi ** 2 * (fp.beta ** 2 * p_max ** 2
                                     + fp.alpha ** 2 * q_max ** 2) / fp.K ** 2
                   + 2 * (zg.n_k + 1) ** 2 * zg.delta ** 2)
    bounds_a, bounds_b = oscillatory_tail_bounds(
        w1, k0, phase_coeff, n_blocks=16, w_cap=200 / e)

    def contract(w_nodes, weights):
        """sum_n f~[q, p, n] g~[d, n] s_n weights_n as one matrix product."""
        zeta = zeta_path(w_nodes, e)
        shared = (np.exp(k0 * k0 * zeta * zeta / 4)
                  * zeta_path_derivative(w_nodes, e))
        fvals = f_spectral(qg, pg, zeta, fp).reshape(-1, len(zeta))
        gvals = g_z_spectral(ds[:, None], zeta[None, :], zg)
        out = fvals @ (gvals * (shared * weights)).T
        return out.reshape(len(qs), len(live_p), len(ds))

    def head_value(n_panels):
        nodes, weights = panel_nodes(np.linspace(w0, w1, n_panels + 1))
        return contract(nodes, weights)

    head = head_value(_HEAD_PANELS)
    head_check = head_value(2 * _HEAD_PANELS)
    scale = np.max(np.abs(head_check))
    if np.max(np.abs(head - head_check)) > max(cfg.quad_tol * scale, 1e-15):
        raise QuadratureFailure(
            "spectral head integral failed the panel-doubling check")
    head = head_check

    if len(bounds_a) > 1:
        nodes_a, weights_a, _ = subdivided_panels(bounds_a)
        head = head + contract(nodes_a, weights_a)

    # zone B: the repeated-averaging limit of the phase-block sums is linear,
    # so it enters as one more weight per node
    nodes_b, weights_b, block_offsets = subdivided_panels(bounds_b)
    tail = contract(nodes_b, weights_b * limit_weights(
        block_offsets, len(nodes_b), averaging_depth))

    data[:, live_p + p_max, :] = head + tail
    return KernelTable(data=data, kind="spectral", fp=fp, zg=zg, cfg=cfg,
                       n_u=n_u, n_v=n_v)


def build_tables(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig, n_u: int,
                 n_v: int) -> tuple[KernelTable, KernelTable]:
    return (build_spatial_table(fp, zg, cfg, n_u, n_v),
            build_spectral_table(fp, zg, cfg, n_u, n_v))


# ---------------------------------------------------------------------------
# binary cache ("EGKT"): see docs/table-cache.md for the exact layout

def _header_bytes(kind: str, fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
                  n_u: int, n_v: int) -> bytes:
    q_max, p_max = index_bounds(fp, n_u, n_v)
    return struct.pack(
        "<4sII7I9d",
        _MAGIC, _FORMAT_VERSION, _KINDS.index(kind),
        fp.M, fp.N, zg.n_k, n_u, n_v, q_max, p_max,
        fp.X, fp.alpha, fp.beta, zg.z_min, zg.delta,
        cfg.k0, cfg.split, cfg.quad_tol, cfg.trunc_tol)


def cache_key(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig, n_u: int,
              n_v: int) -> str:
    """Content hash over every build parameter (kind excluded)."""
    blob = _header_bytes("spatial", fp, zg, cfg, n_u, n_v)[12:]
    return hashlib.sha256(blob).hexdigest()[:16]


def cache_path(directory, kind: str, fp: FrameParams, zg: ZGrid,
               cfg: EwaldConfig, n_u: int, n_v: int) -> Path:
    return Path(directory) / f"egkt-{cache_key(fp, zg, cfg, n_u, n_v)}.{kind}.bin"


def save_table(table: KernelTable, path) -> Path:
    """Write through a temporary file in the target directory and rename it
    into place, so readers see either no file or a complete one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = _header_bytes(table.kind, table.fp, table.zg, table.cfg,
                           table.n_u, table.n_v)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(table.data, dtype=complex).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_table(path, fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
               n_u: int, n_v: int, kind: str) -> KernelTable:
    """Read a cached table; every header field must match the request exactly."""
    path = Path(path)
    expected = _header_bytes(kind, fp, zg, cfg, n_u, n_v)
    with open(path, "rb") as fh:
        header = fh.read(len(expected))
        if header != expected:
            raise DomainError(f"cache file {path} does not match the requested build")
        raw = fh.read()
    q_max, p_max = index_bounds(fp, n_u, n_v)
    shape = (2 * q_max + 1, 2 * p_max + 1, 2 * zg.n_k + 1)
    expect = int(np.prod(shape)) * np.dtype(complex).itemsize
    if len(raw) != expect:
        raise DomainError(f"cache file {path} holds {len(raw)} data bytes, "
                          f"expected {expect}")
    data = np.frombuffer(raw, dtype=complex).reshape(shape).copy()
    return KernelTable(data=data, kind=kind, fp=fp, zg=zg, cfg=cfg,
                       n_u=n_u, n_v=n_v)


def load_or_build(directory, fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
                  n_u: int, n_v: int):
    """Warm-cache table pair; returns (spatial, spectral, cache_hit)."""
    paths = {k: cache_path(directory, k, fp, zg, cfg, n_u, n_v) for k in _KINDS}
    if all(p.exists() for p in paths.values()):
        try:
            spatial = load_table(paths["spatial"], fp, zg, cfg, n_u, n_v, "spatial")
            spectral = load_table(paths["spectral"], fp, zg, cfg, n_u, n_v, "spectral")
            return spatial, spectral, True
        except DomainError:
            pass
    spatial, spectral = build_tables(fp, zg, cfg, n_u, n_v)
    save_table(spatial, paths["spatial"])
    save_table(spectral, paths["spectral"])
    return spatial, spectral, False
