"""Command-line pipeline: config ingestion, orchestration, artifact emission.

Subcommands:
    solve <cfg>                      full pipeline, writes field CSV/PGM + metrics
    green-check --k0 .. --rmin ..    Ewald split-identity sweep
    dual-window <cfg>                dual fit residual and sampled windows
    tables <cfg>                     build and cache the kernel tables and
                                     the operator's kernel DFT only
    compare <cfg> [--oracle-cell h]  main solver vs MoM reference, error grid

Config format is flat JSON with one block per subsystem; see README for the
schema and bundled examples under configs/.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, GaborscatError, NonConvergence, QuadratureFailure
from .frame import FrameParams, fit_dual_coeffs, zak_dual_window, zak_period
from .green import EwaldConfig, optimal_split, split_identity_error
from .kernels import ZGrid
from .operators import build_operator
from .oracle import MoMConfig, compare_fields, interior_mask, mom_solve
from .scene import SHAPES, Scene, validate_scene
from .solver import METHODS, solve, synthesize_field, synthesize_points
from .tables import load_or_build


@dataclass
class RunConfig:
    scene: Scene
    fp: FrameParams
    zg: ZGrid
    n_u: int
    n_v: int
    fit_tol: float
    ewald: EwaldConfig
    method: str
    tol: float | None
    out_dir: Path
    output_grid: tuple          # (xs, zs)
    formats: tuple
    cache_dir: Path | None


def _block(raw: dict, name: str) -> dict:
    """Config block `name`, taken out of raw (empty when absent); anything
    but an object is a ConfigError."""
    block = raw.pop(name, {})
    if not isinstance(block, dict):
        raise ConfigError(name, f"expected an object, got {block!r}")
    return block


def _string(value, name) -> str:
    if not isinstance(value, str):
        raise ConfigError(name, f"expected a string, got {value!r}")
    return value


def _need(block: dict, key: str, blockname: str):
    if key not in block:
        raise ConfigError(f"{blockname}.{key}", "missing required field")
    return block.pop(key)


def _number(value, name, integer=False):
    """A config value as a finite float (or an int when integer is set);
    anything else is a ConfigError naming the field."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if isinstance(value, bool) or not math.isfinite(v) or \
            (integer and not v.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(name, f"expected {kind}, got {value!r}")
    return int(v) if integer else v


def _positive(value, name, integer=False):
    v = _number(value, name, integer)
    if v <= 0:
        raise ConfigError(name, "must be positive")
    return v


def parse_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "config must be a JSON object")

    blocks = {name: _block(raw, name) for name in (
        "scene", "frame", "zgrid", "dual", "ewald", "solver", "output", "cache")}
    sc, fr, zb, du, ew, so, ob, cb = blocks.values()

    shape_name = _need(sc, "shape", "scene")
    if not isinstance(shape_name, str) or shape_name not in SHAPES:
        raise ConfigError("scene.shape", f"must be one of {sorted(SHAPES)}")
    # each field of the shape's dataclass, in order, as a positive number
    shape_cls = SHAPES[shape_name]
    shape = shape_cls(*(_positive(_need(sc, f.name, "scene"), f"scene.{f.name}",
                                  integer=f.type is int)
                        for f in fields(shape_cls)))
    theta_deg = _number(sc.pop("theta_deg", 0.0), "scene.theta_deg")
    if not 0 <= theta_deg < 360:
        raise ConfigError("scene.theta_deg", "must lie in [0, 360)")
    center = sc.pop("center", (0.0, 0.0))
    if not isinstance(center, (list, tuple)) or len(center) != 2:
        raise ConfigError("scene.center", f"expected [x, z], got {center!r}")
    try:
        scene = Scene(shape=shape,
                      eps_r=_number(_need(sc, "eps_r", "scene"), "scene.eps_r"),
                      k0=_positive(_need(sc, "k0", "scene"), "scene.k0"),
                      theta=np.deg2rad(theta_deg),
                      e0=_number(sc.pop("E0", 1.0), "scene.E0"),
                      center=tuple(_number(c, "scene.center") for c in center))
    except GaborscatError as exc:
        raise ConfigError("scene", str(exc)) from exc

    try:
        fp = FrameParams(X=_positive(_need(fr, "X", "frame"), "frame.X"),
                         alpha=_positive(_need(fr, "alpha", "frame"), "frame.alpha"),
                         beta=_positive(_need(fr, "beta", "frame"), "frame.beta"),
                         M=_number(_need(fr, "M", "frame"), "frame.M", integer=True),
                         N=_number(_need(fr, "N", "frame"), "frame.N", integer=True))
        zak_period(fp)
    except GaborscatError as exc:
        raise ConfigError("frame", str(exc)) from exc

    try:
        zg = ZGrid.from_bounds(_number(_need(zb, "z_min", "zgrid"), "zgrid.z_min"),
                               _number(_need(zb, "z_max", "zgrid"), "zgrid.z_max"),
                               _positive(_need(zb, "delta", "zgrid"), "zgrid.delta"))
    except GaborscatError as exc:
        raise ConfigError("zgrid", str(exc)) from exc

    n_u = _number(du.pop("N_u", 2), "dual.N_u", integer=True)
    n_v = _number(du.pop("N_v", 3), "dual.N_v", integer=True)
    if n_u < 0 or n_v < 0:
        raise ConfigError("dual", "N_u and N_v must be nonnegative")
    fit_tol = _positive(du.pop("fit_tol", 5e-3), "dual.fit_tol")

    split = ew.pop("split", "auto")
    if split == "auto":
        split = optimal_split(scene.k0, zg.delta)
    else:
        split = _positive(split, "ewald.split")
    try:
        ewald = EwaldConfig(split=split, k0=scene.k0,
                            quad_tol=_number(ew.pop("quad_tol", 1e-10),
                                             "ewald.quad_tol"))
    except GaborscatError as exc:
        raise ConfigError("ewald", str(exc)) from exc

    method = so.pop("method", METHODS[0])
    if method not in METHODS:
        raise ConfigError("solver.method", "must be one of " +
                          ", ".join(repr(m) for m in METHODS))
    tol = so.pop("tol", None)
    tol = _positive(tol, "solver.tol") if tol is not None else None

    out_dir = Path(_string(ob.pop("out_dir", "out"), "output.out_dir"))
    xs = np.linspace(_number(ob.pop("x_min", -3.0), "output.x_min"),
                     _number(ob.pop("x_max", 3.0), "output.x_max"),
                     _positive(ob.pop("nx", 121), "output.nx", integer=True))
    zs = np.linspace(_number(ob.pop("z_min", zg.z_min), "output.z_min"),
                     _number(ob.pop("z_max", zg.z_max), "output.z_max"),
                     _positive(ob.pop("nz", zg.n_k + 1), "output.nz",
                               integer=True))
    formats = ob.pop("formats", ["csv"])
    if not isinstance(formats, list):
        raise ConfigError("output.formats", f"expected a list, got {formats!r}")
    for f in formats:
        if f not in ("csv", "pgm"):
            raise ConfigError("output.formats", f"unknown format {f!r}")
    formats = tuple(formats)

    enabled = cb.pop("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigError("cache.enabled", f"expected true or false, got {enabled!r}")
    cache_dir = Path(_string(cb.pop("dir", ".egkt-cache"), "cache.dir"))

    # every field is popped as it is read, so any left is not in the format
    for prefix, block in [("", raw), *((f"{n}.", b) for n, b in blocks.items())]:
        if block:
            raise ConfigError(prefix + next(iter(block)), "unknown field")

    return RunConfig(scene=scene, fp=fp, zg=zg, n_u=n_u, n_v=n_v,
                     fit_tol=fit_tol, ewald=ewald, method=method, tol=tol,
                     out_dir=out_dir, output_grid=(xs, zs), formats=formats,
                     cache_dir=cache_dir if enabled else None)


def _finite(value):
    """value with every non-finite float (nested in dicts and lists) as None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _dumps(obj, **kwargs) -> str:
    """Strict JSON (no NaN or Infinity tokens): non-finite numbers become
    null."""
    return json.dumps(_finite(obj), allow_nan=False, **kwargs)


def _fit_dual(rc: RunConfig):
    xs, eta = zak_dual_window(rc.fp)
    dw = fit_dual_coeffs(eta, xs, rc.n_u, rc.n_v, rc.fp)
    if dw.residual > rc.fit_tol:
        raise QuadratureFailure(
            f"dual-window fit residual {dw.residual:.3e} exceeds "
            f"fit_tol {rc.fit_tol:.1e}; raise dual.N_u/N_v or fit_tol")
    return xs, eta, dw


def _write_csv(path, header, *columns):
    """One row per entry of the equal-length columns, 17 significant digits;
    all rows are formatted by one % on the repeated row template."""
    rows = np.column_stack(columns)
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    body = (row * len(rows)) % tuple(rows.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"{header}\n{body}")


def write_field_csv(path, xs, zs, field):
    """Header x,z,re,im; rows z-outer; 17 significant digits, as _write_csv
    writes them.  Each grid coordinate is formatted once, into a row template
    that the (re, im) pairs fill by one %."""
    xs, zs = (["%.17g" % v for v in np.asarray(a, dtype=float).tolist()]
              for a in (xs, zs))
    template = "".join([f"{x},{z},%.17g,%.17g\n" for z in zs for x in xs])
    pairs = np.column_stack([field.real.ravel(), field.imag.ravel()])
    with open(path, "w") as fh:
        fh.write("x,z,re,im\n" + template % tuple(pairs.ravel().tolist()))


def write_pgm(path, field_real, xs, zs):
    """8-bit P5 heatmap of the real part; linear map recorded in a sidecar."""
    vmin = float(field_real.min())
    vmax = float(field_real.max())
    span = vmax - vmin if vmax > vmin else 1.0
    img = np.round((field_real - vmin) / span * 255).astype(np.uint8)
    img = img[::-1, :]                                 # rows: z_max at top
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())
    sidecar = {"vmin": vmin, "vmax": vmax,
               "nx": len(xs), "nz": len(zs),
               "x_range": [float(xs[0]), float(xs[-1])],
               "z_range": [float(zs[0]), float(zs[-1])],
               "rows": "z descending"}
    Path(str(path) + ".json").write_text(_dumps(sidecar, indent=1))


def _column_counts(table) -> dict:
    """Live (any nonzero entry over d) and skipped (q, p) columns of a table,
    read from its data, so a cached table counts as it was built."""
    live = int(np.count_nonzero(np.any(table.data, axis=2)))
    return {"live": live, "skipped": table.data.shape[0] * table.data.shape[1] - live}


def _edge_share(j: np.ndarray) -> dict:
    """Share of ||J|| in the outermost window shifts, m = +-M ("m") and
    n = +-N ("n"): a large share means the frame truncation cuts off part of
    the contrast source."""
    total = np.linalg.norm(j)
    shares = {}
    for name, axis in (("m", 0), ("n", 1)):
        edges = np.take(j, sorted({0, j.shape[axis] - 1}), axis=axis)
        shares[name] = float(np.linalg.norm(edges) / total) if total > 0 else 0.0
    return shares


def _pipeline(rc: RunConfig):
    """Scene check, dual window, tables (cached), operator, solve.  Returns
    (sol, metrics); metrics["stages"] holds each stage's wall time in
    seconds."""
    validate_scene(rc.scene, rc.fp, rc.zg)
    t0 = time.perf_counter()
    _, _, dw = _fit_dual(rc)
    t1 = time.perf_counter()
    spat, spec, hit = load_or_build(rc.cache_dir, rc.fp, rc.zg, rc.ewald,
                                    rc.n_u, rc.n_v)
    t2 = time.perf_counter()
    op = build_operator(rc.scene, dw, spat, spec, rc.cache_dir)
    t3 = time.perf_counter()
    # the operator holds the tables only through its kernel DFT, so they
    # are counted here and released before the solve allocates its basis
    columns = {t.kind: _column_counts(t) for t in (spat, spec)}
    doubling = {t.kind: t.doubling_diff for t in (spat, spec)}
    del spat, spec
    sol = solve(rc.scene, op, method=rc.method, tol=rc.tol)
    t4 = time.perf_counter()
    metrics = {
        "method": rc.method,
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "wall_time_setup": t3 - t0,
        "wall_time_solve": t4 - t3,
        "table_cache_hit": hit,
        "kernel_cache_hit": op.kernel_cache_hit,
        "table_columns": columns,
        "table_doubling_diff": doubling,
        "condition_estimate": sol.condition_estimate,
        "factored_unknowns": sol.factored_unknowns,
        "dual_fit_residual": dw.residual,
        "dual_fit_condition": dw.condition,
        "unknowns": sol.J.size,
        "gmres_residuals": sol.gmres_residuals,
        "edge_share": _edge_share(sol.J),
        "stages": {"dual_fit_s": t1 - t0, "tables_s": t2 - t1,
                   "operator_s": t3 - t2, "solve_s": t4 - t3},
    }
    return sol, metrics


def cmd_solve(args, rc: RunConfig) -> int:
    sol, metrics = _pipeline(rc)
    t0 = time.perf_counter()
    xs, zs = rc.output_grid
    field = synthesize_field(sol, xs, zs, which="chiE_s")
    t1 = time.perf_counter()
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in rc.formats:
        write_field_csv(rc.out_dir / "field.csv", xs, zs, field)
    if "pgm" in rc.formats:
        write_pgm(rc.out_dir / "field.pgm", field.real, xs, zs)
    metrics["stages"].update(synthesize_s=t1 - t0,
                             write_s=time.perf_counter() - t1)
    (rc.out_dir / "metrics.json").write_text(_dumps(metrics, indent=1))
    print(f"solved: residual {metrics['residual_norm']:.3e}, "
          f"setup {metrics['wall_time_setup']:.2f}s, "
          f"solve {metrics['wall_time_solve']:.2f}s -> {rc.out_dir}")
    return 0


def cmd_green_check(args, _rc=None) -> int:
    k0 = args.k0
    split = args.split if args.split is not None else optimal_split(k0, args.delta)
    k0r = np.logspace(np.log10(args.rmin), np.log10(args.rmax), args.n)
    errs = split_identity_error(k0, k0r / k0, split)
    for v, e in zip(k0r, errs):
        print(f"k0R = {v:12.6g}   rel err = {e:.3e}")
    worst = float(errs.max())
    print(f"worst: {worst:.3e} (split = {split:.6g})")
    return 0 if worst <= args.tol else 3


def cmd_dual_window(args, rc: RunConfig) -> int:
    xs, eta, dw = _fit_dual(rc)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    from .frame import dual_window_value
    fitted = dual_window_value(xs, dw, rc.fp)
    _write_csv(rc.out_dir / "dual_window.csv", "x,eta,fit_re,fit_im", xs, eta,
               fitted.real, fitted.imag)
    report = {"residual": dw.residual, "condition": dw.condition,
              "N_u": dw.n_u, "N_v": dw.n_v}
    (rc.out_dir / "dual_window.json").write_text(_dumps(report, indent=1))
    print(f"dual fit residual {dw.residual:.6e} (N_u={dw.n_u}, N_v={dw.n_v})")
    return 0


def cmd_tables(args, rc: RunConfig) -> int:
    if rc.cache_dir is None:
        raise ConfigError("cache", "tables subcommand requires cache.enabled")
    t0 = time.perf_counter()
    _, _, dw = _fit_dual(rc)
    spat, spec, hit = load_or_build(rc.cache_dir, rc.fp, rc.zg, rc.ewald,
                                    rc.n_u, rc.n_v)
    op = build_operator(None, dw, spat, spec, rc.cache_dir)
    print(f"tables {'loaded from' if hit else 'built into'} cache "
          f"{rc.cache_dir}, kernel DFT "
          f"{'loaded' if op.kernel_cache_hit else 'built'}, in "
          f"{time.perf_counter() - t0:.2f}s")
    return 0


def cmd_compare(args, rc: RunConfig) -> int:
    mom = mom_solve(rc.scene, MoMConfig(cell=args.oracle_cell))
    sol, metrics = _pipeline(rc)
    # main-solver chi*E^s at the oracle patch centroids (z interpolated)
    main = synthesize_points(sol, mom.x, mom.z)
    oracle_field = rc.scene.chi * mom.e_scattered
    inside = interior_mask(mom)
    m = compare_fields(main, oracle_field, inside)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(rc.out_dir / "compare_error.csv", "x,z,abs_error", mom.x, mom.z,
               m["abs_error"])
    metrics.update({"oracle_cell": mom.cell, "oracle_cells": len(mom.x),
                    "rel_l2_inside": m["rel_l2"], "max_abs_inside": m["max_abs"]})
    (rc.out_dir / "compare.json").write_text(_dumps(metrics, indent=1))
    print(f"main vs MoM (cell={mom.cell:.4g}): rel L2 inside = {m['rel_l2']:.4f}")
    return 0


def _error_report(exc: Exception, out_dir: Path | None):
    report = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NonConvergence):
        report.update(iterations=exc.matvecs, gmres_residuals=exc.residuals)
    line = _dumps(report)
    print(f"error: {exc}", file=sys.stderr)
    print(line, file=sys.stderr)
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "error.json").write_text(line)
        except OSError:
            pass


def _declared_out_dir(config_path) -> Path | None:
    """output.out_dir of a config that failed validation, when the file is
    JSON and names one (or leaves the default)."""
    try:
        return Path(json.loads(Path(config_path).read_text())
                    .get("output", {}).get("out_dir", "out"))
    except (OSError, ValueError, AttributeError, TypeError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaborscat",
        description="2D TE dielectric scattering via Gabor frames and Ewald splitting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the full pipeline on a config")
    p.add_argument("config")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("green-check", help="Ewald split identity sweep")
    p.add_argument("--k0", type=float, required=True)
    p.add_argument("--rmin", type=float, default=1e-3, help="min k0*R")
    p.add_argument("--rmax", type=float, default=30.0, help="max k0*R")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--split", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.05,
                   help="z spacing for the auto split")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_green_check)

    p = sub.add_parser("dual-window", help="fit and emit the dual window")
    p.add_argument("config")
    p.set_defaults(func=cmd_dual_window)

    p = sub.add_parser("tables", help="build and cache the kernel tables "
                       "and the operator's kernel DFT")
    p.add_argument("config")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("compare", help="main solver vs MoM oracle")
    p.add_argument("config")
    p.add_argument("--oracle-cell", type=float, default=None)
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    rc = None
    try:
        if hasattr(args, "config"):
            rc = parse_config(args.config)
        for dest in ("oracle_cell", "k0", "rmin", "rmax", "n", "split", "delta", "tol"):
            value = getattr(args, dest, None)      # numeric options, when given
            if value is not None:
                _positive(value, "--" + dest.replace("_", "-"), integer=dest == "n")
        return args.func(args, rc)
    except (ConfigError, OSError) as exc:
        # an OSError here is a configured directory or file that cannot be
        # created or written (cache.dir, output.out_dir)
        _error_report(exc, rc.out_dir if rc
                      else _declared_out_dir(getattr(args, "config", None)))
        return 2
    except GaborscatError as exc:
        _error_report(exc, rc.out_dir if rc else None)
        return 3


if __name__ == "__main__":
    sys.exit(main())
