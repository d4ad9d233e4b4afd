"""Assembly of the two coupling-integral tables over (q, p, d).

Both tables integrate the one real-axis integrand
e^{k0^2/4xi^2}/xi * f(q,p,xi) * g(d,xi) dxi; together they cover the whole
Ewald contour, so the operator folds their plain sum.  The spatial table
takes the real axis from the splitting point E: geometric panels up to the
break xc where e^{-Delta^2 xi^2} is negligible, then the compactified
remainder xi = xc/t, so no entry carries truncation error.  The spectral
table takes the rest of the contour, from 0 to E, through the inverse
variable xi = 1/zeta(w) of the contour parameter w: head panels on
[1/E, 2/E], then the tail zeta = (1-j)w/2 along the deformed path of
`quadrature.tail_path`, where the integrand decays exponentially.

Both tables are built by one body on the Green function's own node rules
(`green.spatial_rule`, `green.spectral_rule`), whose weights carry the
measure e^{k0^2/4xi^2}/xi: one `quadrature.contract` of f against g, a sum
of (q*p x nodes) @ (nodes x d) matrix products over node blocks, so memory
does not grow with the node count.  Each node set is checked once against
the rule with every panel halved (`quadrature.doubling_checked`,
max_refine = 2).  Both are built for p >= 0 only and the p < 0 half is
filled by the exact mirror T[q, -p, d] = T[-q, p, d] (f depends on (q, p)
only through (alpha*q + j*beta*p)^2 and p^2).

The spectral table integrates every (q, p, d).  Spatial entries whose
integrand envelope at the lower limit is below EwaldConfig.negligible
(quad_tol / 1e4) are set to zero without quadrature.  Tables depend only on
(X, alpha, beta, Delta, n_k, k0, split, quad_tol, bounds), so each is cached
to disk in the EGKT format documented in docs/table-cache.md; the operator's
kernel DFT, folded from them and the dual coefficients, is cached beside them
in the EGKF format of the same document.  `cached` decides every read, of
each file on its own.
"""

import hashlib
import os
import struct
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError
from .frame import FrameParams
from .green import EwaldConfig, spatial_rule, spectral_rule
from .kernels import ZGrid, f_spatial, g_z_spatial, x_rate
from .quadrature import contract, doubling_checked

_FORMAT_VERSION = 5   # of both files: the kernel DFT is folded from the tables
_MAGIC = b"EGKT"
_KERNEL_MAGIC = b"EGKF"
_KINDS = ("spatial", "spectral")


def index_bounds(fp: FrameParams, n_u: int, n_v: int) -> tuple[int, int]:
    """(q_max, p_max) of the box the operator reads: q = m-s-u and p = n+t+v
    over |m|, |s| <= M, |n|, |t| <= N, |u| <= n_u, |v| <= n_v."""
    return 2 * fp.M + n_u, 2 * fp.N + n_v


@dataclass(frozen=True)
class KernelTable:
    """Complex table over q in [-Q,Q], p in [-P,P], d in [-n_k, n_k], with
    its build's panel-doubling difference max|coarse - fine| / max|fine|
    (None when read from a cache file, which does not store it)."""
    data: np.ndarray
    kind: str
    fp: FrameParams
    zg: ZGrid
    cfg: EwaldConfig
    n_u: int
    n_v: int
    doubling_diff: float | None = field(default=None, compare=False)

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


def _spatial_envelope(xi: float, d: int, fp: FrameParams, zg: ZGrid,
                      cfg: EwaldConfig) -> float:
    """Magnitude bound of the q = 0 spatial integrand at xi (large-xi
    asymptotics)."""
    dd = zg.delta
    m_d = min(abs(d), abs(d + 1))
    if m_d == 0:
        g_env = max(np.sqrt(np.pi) / (2 * xi), 1 / (2 * dd * xi * xi))
    else:
        g_env = np.exp(-m_d * m_d * dd * dd * xi * xi) / (2 * m_d * dd * xi * xi)
    return np.exp(cfg.k0 ** 2 / (4 * xi * xi)) / (2 * fp.X * xi * xi) * g_env


def _x_factor(q_max: int, p_max: int, x: np.ndarray,
              fp: FrameParams) -> np.ndarray:
    """f(q, p, x_n) over q = -q_max..q_max, p = 0..p_max and the nodes x,
    shape (q, p, node).  The q = 0 row is f_spatial's; the others follow by
    f[q] = f[q - 1] e^{-s alpha^2 (2q - 1)} e^{-2j s alpha beta p} for q > 0
    and f[q] = f[q + 1] e^{-s alpha^2 (2|q| - 1)} e^{+2j s alpha beta p} for
    q < 0, s = x_rate(x), so each (p, node) costs three complex exponentials,
    not one per q.  Where the q = 0 row underflows, the rows it seeds stay
    zero."""
    ps = np.arange(p_max + 1)[:, None]
    s = x_rate(x, fp)
    out = np.empty((2 * q_max + 1, p_max + 1, len(x)), dtype=complex)
    out[q_max] = f_spatial(0, ps, x, fp)
    cross = 2j * fp.alpha * fp.beta * s * ps
    up, down = np.exp(-cross), np.exp(cross)
    decay = np.exp(-fp.alpha ** 2 * s * (2 * np.arange(1, q_max + 1)[:, None] - 1))
    for q in range(1, q_max + 1):
        for row, prev, phase in ((q_max + q, q_max + q - 1, up),
                                 (q_max - q, q_max - q + 1, down)):
            np.multiply(out[prev], phase, out=out[row])
            out[row] *= decay[q - 1]
    return out


def _contract(q_max: int, p_max: int, ds, xi: np.ndarray, weights: np.ndarray,
              fp: FrameParams, zg: ZGrid) -> np.ndarray:
    """sum_n f(q, p, xi_n) g(d, xi_n) weights[n] over q = -q_max..q_max,
    p = 0..p_max and the d of ds, shape (q, p, d), on nodes xi (possibly
    complex) whose weights carry the Ewald measure."""
    return contract(lambda x: _x_factor(q_max, p_max, x, fp).reshape(-1, len(x)),
                    lambda x: g_z_spatial(ds[:, None], x[None, :], zg),
                    xi, weights).reshape(2 * q_max + 1, p_max + 1, len(ds))


def _build_table(kind: str, rule, live_q, live_d, fp: FrameParams, zg: ZGrid,
                 cfg: EwaldConfig, n_u: int, n_v: int) -> KernelTable:
    """The table of `kind` integrated on rule(refine) over the live q (a
    symmetric range) and live d, p >= 0, checked by one panel doubling; the
    other entries are zero, and the p < 0 half is the exact mirror
    T[q, -p] = T[-q, p]."""
    q_max, p_max = index_bounds(fp, n_u, n_v)
    live, diff = doubling_checked(
        lambda xi, weights: _contract(live_q[-1], p_max, live_d, xi, weights,
                                      fp, zg),
        rule, cfg.quad_tol, f"{kind} table", max_refine=2)
    data = np.zeros((2 * q_max + 1, 2 * p_max + 1, 2 * zg.n_k + 1), dtype=complex)
    rows, cols = live_q + q_max, live_d + zg.n_k
    data[np.ix_(rows, np.arange(p_max, 2 * p_max + 1), cols)] = live
    data[np.ix_(rows, np.arange(p_max), cols)] = live[::-1, :0:-1]
    return KernelTable(data=data, kind=kind, fp=fp, zg=zg, cfg=cfg, n_u=n_u,
                       n_v=n_v, doubling_diff=diff)


def build_spatial_table(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
                        n_u: int, n_v: int) -> KernelTable:
    """Real-axis table on spatial_rule, whose break follows from Delta, the
    smallest nonzero z-separation: for d not in {0, -1}, g(d, xi) carries at
    least e^{-Delta^2 xi^2}.  Only the (q, d) whose integrand envelope at
    the lower limit E reaches cfg.negligible are integrated; the q-Gaussian
    decays slowest there."""
    q_max, _ = index_bounds(fp, n_u, n_v)
    qs = np.arange(-q_max, q_max + 1)
    ds = np.arange(-zg.n_k, zg.n_k + 1)
    rate = x_rate(cfg.split, fp) * fp.alpha ** 2
    live_q = qs[np.exp(-rate * qs.astype(float) ** 2) >= cfg.negligible]
    live_d = ds[[_spatial_envelope(cfg.split, d, fp, zg, cfg) > cfg.negligible
                 for d in ds]]
    return _build_table("spatial", lambda k: spatial_rule(cfg, zg.delta, k),
                        live_q, live_d, fp, zg, cfg, n_u, n_v)


def spectral_phase_coeff(fp: FrameParams, zg: ZGrid, n_u: int, n_v: int) -> float:
    """Phase-rate bound c of the 1/w^2 terms on the spectral tail, as
    `green.spectral_rule` takes it: the exponent of f(q, p, 1/zeta) over the
    table's (q, p) box plus the erf phases of g(d, 1/zeta)."""
    q_max, p_max = index_bounds(fp, n_u, n_v)
    return (8 * np.pi ** 2 * (fp.beta ** 2 * p_max ** 2
                              + fp.alpha ** 2 * q_max ** 2) / fp.K ** 2
            + 2 * (zg.n_k + 1) ** 2 * zg.delta ** 2)


def build_spectral_table(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
                         n_u: int, n_v: int) -> KernelTable:
    """The rest of the Ewald contour, xi = 1/zeta(w) for w in [1/E, inf), on
    spectral_rule: the head panels on [1/E, 2/E] and the tail along the
    deformed path, every (q, p, d).  Each node's weight comes from
    zeta'/zeta^2 dw = -dxi, which orients the integral from xi = 0 to E."""
    q_max, _ = index_bounds(fp, n_u, n_v)
    phase_coeff = spectral_phase_coeff(fp, zg, n_u, n_v)
    return _build_table("spectral", lambda k: spectral_rule(cfg, phase_coeff, k),
                        np.arange(-q_max, q_max + 1),
                        np.arange(-zg.n_k, zg.n_k + 1), fp, zg, cfg, n_u, n_v)


# ---------------------------------------------------------------------------
# binary caches ("EGKT" tables, "EGKF" kernel DFT): see docs/table-cache.md
# for the exact layouts

def _meta_bytes(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig, n_u: int,
                n_v: int) -> bytes:
    """Every build parameter of a table pair, as both file headers hold it
    (cfg.negligible too, so that files from when it was a setting stay valid)."""
    q_max, p_max = index_bounds(fp, n_u, n_v)
    return struct.pack(
        "<7I9d", fp.M, fp.N, zg.n_k, n_u, n_v, q_max, p_max,
        fp.X, fp.alpha, fp.beta, zg.z_min, zg.delta,
        cfg.k0, cfg.split, cfg.quad_tol, cfg.negligible)


def _header_bytes(kind: str, fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
                  n_u: int, n_v: int) -> bytes:
    return (struct.pack("<4sII", _MAGIC, _FORMAT_VERSION, _KINDS.index(kind))
            + _meta_bytes(fp, zg, cfg, n_u, n_v))


def cache_key(fp: FrameParams, zg: ZGrid, cfg: EwaldConfig, n_u: int,
              n_v: int) -> str:
    """Content hash over every build parameter (kind excluded)."""
    return hashlib.sha256(_meta_bytes(fp, zg, cfg, n_u, n_v)).hexdigest()[:16]


def cache_path(directory, kind: str, fp: FrameParams, zg: ZGrid,
               cfg: EwaldConfig, n_u: int, n_v: int) -> Path:
    return Path(directory) / f"egkt-{cache_key(fp, zg, cfg, n_u, n_v)}.{kind}.bin"


def _write_atomic(path, *chunks: bytes) -> Path:
    """Write the chunks through a temporary file in the target directory and
    rename it into place, so readers see either no file or a complete one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def save_table(table: KernelTable, path) -> Path:
    header = _header_bytes(table.kind, table.fp, table.zg, table.cfg,
                           table.n_u, table.n_v)
    return _write_atomic(path, header, np.ascontiguousarray(
        table.data, dtype=complex).tobytes())


def _read_cache(path, header: bytes, guard: bytes,
                out: np.ndarray) -> np.ndarray:
    """Fill out from the cache file at path, which must hold header, guard
    (a kernel DFT's dual coefficients, empty for a table) and exactly
    out.nbytes more bytes; otherwise DomainError."""
    with open(path, "rb") as fh:
        if fh.read(len(header)) != header:
            raise DomainError(f"cache file {path} does not match the requested build")
        if fh.read(len(guard)) != guard:
            raise DomainError(f"cache file {path} was folded from other dual "
                              "coefficients")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != out.nbytes or fh.readinto(out) != size:
            raise DomainError(f"cache file {path} holds {size} data bytes, "
                              f"expected {out.nbytes}")
    return out


def load_table(path, fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
               n_u: int, n_v: int, kind: str) -> KernelTable:
    """Read a cached table; every header field must match the request exactly."""
    q_max, p_max = index_bounds(fp, n_u, n_v)
    data = np.empty((2 * q_max + 1, 2 * p_max + 1, 2 * zg.n_k + 1), dtype=complex)
    _read_cache(path, _header_bytes(kind, fp, zg, cfg, n_u, n_v), b"", data)
    return KernelTable(data=data, kind=kind, fp=fp, zg=zg, cfg=cfg,
                       n_u=n_u, n_v=n_v)


def cached(path, load, build, save):
    """(value, read from the cache): load(path) when the file at path exists
    and load accepts it, else build(), written by save(value, path).  A path
    of None means no cache: build() alone, nothing on disk."""
    if path is not None and path.exists():
        try:
            return load(path), True
        except DomainError:
            pass
    value = build()
    if path is not None:
        save(value, path)
    return value, False


def load_or_build(directory, fp: FrameParams, zg: ZGrid, cfg: EwaldConfig,
                  n_u: int, n_v: int):
    """(spatial, spectral, cache_hit): each table read from its own file in
    directory, or built and written there when that file is missing or does
    not match; cache_hit when both were read.  The directory is created
    first, so one that cannot be fails before a build; None builds both
    without touching disk."""
    if directory is not None:
        Path(directory).mkdir(parents=True, exist_ok=True)
    (spatial, spatial_hit), (spectral, spectral_hit) = (cached(
        None if directory is None
        else cache_path(directory, kind, fp, zg, cfg, n_u, n_v),
        lambda p: load_table(p, fp, zg, cfg, n_u, n_v, kind),
        lambda: build(fp, zg, cfg, n_u, n_v), save_table)
        for kind, build in (("spatial", build_spatial_table),
                            ("spectral", build_spectral_table)))
    return spatial, spectral, spatial_hit and spectral_hit


def kernel_cache_path(directory, table: KernelTable) -> Path:
    """Cache file of the operator's kernel DFT folded from the table pair that
    `table` belongs to; the name never matches egkt-*.bin."""
    key = cache_key(table.fp, table.zg, table.cfg, table.n_u, table.n_v)
    return Path(directory) / f"egkf-{key}.bin"


def _kernel_header(table: KernelTable, lm: int, lk: int) -> bytes:
    return (struct.pack("<4sI", _KERNEL_MAGIC, _FORMAT_VERSION)
            + _meta_bytes(table.fp, table.zg, table.cfg, table.n_u, table.n_v)
            + struct.pack("<2I", lm, lk))


def save_kernel_fft(path, table: KernelTable, a: np.ndarray,
                    kernel_fft: np.ndarray) -> Path:
    """Write the kernel DFT (L_m, L_k, t, n) folded from the table pair of
    `table` and the dual coefficients a, with a stored verbatim as its guard."""
    header = _kernel_header(table, *kernel_fft.shape[:2])
    return _write_atomic(path, header,
                         np.ascontiguousarray(a, dtype=complex).tobytes(),
                         np.ascontiguousarray(kernel_fft, dtype=complex).tobytes())


def load_kernel_fft(path, table: KernelTable, a: np.ndarray,
                    shape: tuple) -> np.ndarray:
    """Read a cached kernel DFT of the given (L_m, L_k, t, n) shape.  The
    header must match the table pair's build exactly, the stored dual
    coefficients must equal a bit for bit, and the payload must be exactly
    the size of shape; otherwise DomainError."""
    return _read_cache(path, _kernel_header(table, *shape[:2]),
                       np.ascontiguousarray(a, dtype=complex).tobytes(),
                       np.empty(shape, dtype=complex))
