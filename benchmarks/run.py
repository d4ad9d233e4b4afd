"""Benchmark of the gaborscat solve pipeline through its command-line entry.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload circle-cold --seed 1 --seconds 35 --trace 0

Each unit of work runs in a fresh child process (child.py) that calls
``gaborscat.cli.main(["solve", cfg])`` on configs generated from the bundled
ones; units run one after another (closed loop, one client) until the next
one would end after ``--seconds``, with a minimum number per workload.  The
child's peak RSS comes from its own rusage, and BLAS/OpenMP are pinned to the
number of usable cores.  Every solve is checked outside the timed region:
exit code, residual against the config's tolerance, a finite field, the
relative L2 error inside the object against the MoM oracle, and the table
cache state the workload intends.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced units and reports per-layer metrics from the traced ones
plus the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  NOTES.md says
why each workload was chosen and which metric each layer should move.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
RUN_LIMIT_S = 165.0          # every child must end by then; the run by 180 s
GATE_REL_L2 = 0.05           # the acceptance gate's bound inside the object

# Wrapped calls that must fire on every traced solve: (min, max) per solve.
ALWAYS = {name: (1, None) for name in (
    "frame.zak_dual_window", "frame.fit_dual_coeffs", "tables.load_or_build",
    "operators.build_operator", "scene.project_source",
    "operators.forward_residual", "solver.synthesize_field",
    "cli.write_field_csv", "cli.write_pgm")}
ALWAYS["solver.solve"] = (1, 1)
CACHE = {   # by Workload.cold
    True: {"tables.build_spectral_table": (1, None),
           "tables.build_spatial_table": (1, None), "tables.load_table": (0, 0)},
    False: {"tables.build_spectral_table": (0, 0),
            "tables.build_spatial_table": (0, 0), "tables.load_table": (1, None)},
}
SOLVE_PATH = {  # by the config's solver.method
    "direct": {"operators.assemble_dense": (1, None), "solver.lu_factor": (1, None)},
    "iterative": {"operators.green_apply": (1, None),
                  "operators.contrast_multiply": (1, None)},
}


@dataclass(frozen=True)
class Workload:
    config: str                  # bundled config, configs/<config>.json
    cold: bool                   # an empty table cache for every solve
    angles: int                  # solves per unit: the config's angle plus
                                 # angles - 1 incidence angles from the seed
    min_units: int               # units per untraced run, at least


WORKLOADS = {
    "circle-cold": Workload("circle", cold=True, angles=1, min_units=2),
    "grating-warm": Workload("grating", cold=False, angles=1, min_units=2),
    "rectangle-sweep": Workload("rectangle", cold=False, angles=3, min_units=1),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MiB", "rel_l2_inside": "ratio"}
PER_LAYER_UNITS = {
    "frame.dual_fit_s": "s",
    "tables.spectral_build_s": "s", "tables.spatial_build_s": "s",
    "tables.load_s": "s", "tables.cache_hits": "hits/attempt",
    "tables.live_cols_frac": "ratio",
    "operators.build_s": "s", "operators.bytes": "B",
    "operators.xf_nnz_frac": "ratio",
    "operators.green_apply_s": "s", "operators.green_apply_p90_s": "s",
    "operators.green_apply_calls": "count",
    "operators.contrast_multiply_s": "s",
    "operators.assemble_dense_s": "s", "operators.forward_residual_s": "s",
    "scene.project_source_s": "s",
    "solver.lu_factor_s": "s", "solver.lu_gflop": "GFLOP",
    "solver.gmres_matvecs": "count", "solver.synthesize_field_s": "s",
    "cli.write_s": "s", "trace.overhead_s": "s",
}


def median(values, default=0.0):
    return statistics.median(values) if values else default


def child_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def run_child(spec: dict, path: Path, env: dict, deadline: float):
    """Run child.py on spec; returns (result or None, peak RSS in MiB)."""
    spec_file = path.with_suffix(".spec.json")
    spec_file.write_text(json.dumps(spec))
    with open(path.with_suffix(".log"), "w") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 str(spec_file)],
                                stdout=log, stderr=subprocess.STDOUT, env=env)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = path.with_suffix(".log").read_text().splitlines()[-20:]
        print(f"error: {path.name} exited with {proc.returncode}:\n  "
              + "\n  ".join(tail), file=sys.stderr)
        return None, usage.ru_maxrss / 1024
    return json.loads(Path(spec["result"]).read_text()), usage.ru_maxrss / 1024


class Checker:
    """Output checks of one solve against the MoM oracle, outside timing."""

    def __init__(self, gs):
        self.gs = gs
        self.oracles = {}

    def oracle(self, rc):
        key = float(rc.scene.theta)
        if key not in self.oracles:
            mom = self.gs.mom_solve(rc.scene, self.gs.MoMConfig())
            self.oracles[key] = (mom, self.gs.interior_mask(mom),
                                 rc.scene.chi * mom.e_scattered)
        return self.oracles[key]

    def rel_l2_inside(self, rc, coeffs_file) -> float:
        gs = self.gs
        with np.load(coeffs_file) as f:
            c = f["J"] - f["J_inc"]
        if not np.all(np.isfinite(c)):
            return float("inf")
        mom, inside, reference = self.oracle(rc)
        slices = gs.synthesize(c, mom.x, rc.fp)                 # (cells, n_k+1)
        tri = np.array([gs.triangle_value(mom.z, k, rc.zg)
                        for k in range(rc.zg.n_k + 1)])
        main = np.einsum("ik,ki->i", slices, tri)
        return float(gs.compare_fields(main, reference, inside)["rel_l2"])

    def check(self, res: dict, cfg_file: Path, cold: bool) -> tuple[list, float]:
        """Returns (failed checks, rel. L2 error inside the object)."""
        if res.get("exit") != 0:
            return [f"exit {res.get('exit')!r}"], float("inf")
        rc = self.gs.cli.parse_config(cfg_file)
        try:
            metrics = json.loads((rc.out_dir / "metrics.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"metrics.json: {exc}"], float("inf")
        problems = []
        if not metrics["residual_norm"] <= rc.tol:
            problems.append(f"residual {metrics['residual_norm']:.3e}")
        if metrics["table_cache_hit"] is cold:
            problems.append(f"table_cache_hit {metrics['table_cache_hit']}")
        xs, zs = rc.output_grid
        grid = np.loadtxt(rc.out_dir / "field.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        if grid.shape != (len(xs) * len(zs), 4) or not np.all(np.isfinite(grid)):
            problems.append("field.csv not finite or wrong shape")
        rel = self.rel_l2_inside(rc, res["coeffs"]) if "coeffs" in res \
            else float("inf")
        if not rel <= GATE_REL_L2:
            problems.append(f"rel_l2_inside {rel:.4g}")
        return problems, rel


def self_check(cold: bool, method: str, solve_spans: list, res: dict) -> list:
    """Every wrapped call fires as the workload intends, or the run fails."""
    counts = {}
    for s in solve_spans:
        counts[s["name"]] = counts.get(s["name"], 0) + 1

    def violations(expect):
        return [f"{name} fired {counts.get(name, 0)} times"
                for name, (lo, hi) in expect.items()
                if counts.get(name, 0) < lo or
                (hi is not None and counts.get(name, 0) > hi)]

    bad = violations({**ALWAYS, **CACHE[cold]})
    paths = [violations(p) for name, p in SOLVE_PATH.items()
             if method not in SOLVE_PATH or name == method]
    if all(paths):
        bad += paths[0]
    if method == "iterative" and \
            counts.get("operators.green_apply", 0) != res.get("iterations"):
        bad.append("green_apply calls != GMRES matvecs")
    if res["computed"].get("tables.cache_hit") is cold:
        bad.append("cache state")
    return bad


def per_layer(traced: list, untraced_wall: list) -> dict:
    """traced: (result, spans of that solve) per traced solve."""
    sums, calls = [], {}
    for res, spans in traced:
        d = {}
        for s in spans:
            d[s["name"]] = d.get(s["name"], 0.0) + s["end"] - s["start"]
            calls.setdefault(s["name"], []).append(s["end"] - s["start"])
        sums.append(d)

    def med(*names):
        return median([sum(d.get(n, 0.0) for n in names) for d in sums])

    def computed(key):
        return median([r["computed"][key] for r, _ in traced
                       if key in r["computed"]])

    green = calls.get("operators.green_apply", [])
    hits = [r["computed"]["tables.cache_hit"] for r, _ in traced
            if "tables.cache_hit" in r["computed"]]
    n_green = [sum(s["name"] == "operators.green_apply" for s in spans)
               for _, spans in traced]
    return {
        "frame.dual_fit_s": med("frame.zak_dual_window", "frame.fit_dual_coeffs"),
        "tables.spectral_build_s": med("tables.build_spectral_table"),
        "tables.spatial_build_s": med("tables.build_spatial_table"),
        "tables.load_s": med("tables.load_table"),
        "tables.cache_hits": sum(hits) / len(hits) if hits else 0.0,
        "tables.live_cols_frac": computed("tables.live_cols_frac"),
        "operators.build_s": med("operators.build_operator"),
        "operators.bytes": computed("operators.bytes"),
        "operators.xf_nnz_frac": computed("operators.xf_nnz_frac"),
        "operators.green_apply_s": median(green),
        "operators.green_apply_p90_s":
            statistics.quantiles(green, n=10)[-1] if len(green) > 1
            else median(green),
        "operators.green_apply_calls": median(n_green),
        "operators.contrast_multiply_s":
            median(calls.get("operators.contrast_multiply", [])),
        "operators.assemble_dense_s": med("operators.assemble_dense"),
        "operators.forward_residual_s": med("operators.forward_residual"),
        "scene.project_source_s": med("scene.project_source"),
        "solver.lu_factor_s": med("solver.lu_factor"),
        "solver.lu_gflop": median([sum(8 / 3 * n ** 3 for n in
                                       r["computed"]["solver.lu_n"]) / 1e9
                                   for r, _ in traced]),
        "solver.gmres_matvecs": median([r.get("iterations", 0)
                                        for r, _ in traced]),
        "solver.synthesize_field_s": med("solver.synthesize_field"),
        "cli.write_s": med("cli.write_field_csv", "cli.write_pgm"),
        "trace.overhead_s": med("cli.main") - median(untraced_wall),
    }


def environment(threads: int, seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": threads, "seed": seed}


def make_config(base: dict, path: Path, cache_dir: Path, out_dir: Path,
                theta_deg: float | None) -> Path:
    cfg = json.loads(json.dumps(base))
    cfg["cache"] = {"dir": str(cache_dir), "enabled": True}
    cfg["output"]["out_dir"] = str(out_dir)
    if theta_deg is not None:
        cfg["scene"]["theta_deg"] = theta_deg
    path.write_text(json.dumps(cfg, indent=1))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    wl = WORKLOADS[args.workload]
    root = Path.cwd()
    base_file = root / "configs" / f"{wl.config}.json"
    if not (root / "src" / "gaborscat" / "cli.py").is_file() or \
            not base_file.is_file():
        print("error: run from the root of a gaborscat checkout "
              "(src/gaborscat/ and configs/ are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import gaborscat as gs
    import gaborscat.cli  # noqa: F401  (Checker uses gs.cli.parse_config)

    base = json.loads(base_file.read_text())
    env, threads = child_env()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{name}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    deadline = t_start + RUN_LIMIT_S
    rng = random.Random(args.seed)
    checker = Checker(gs)
    warm_cache = WORK / f"cache-{wl.config}"
    solves, rss, spans, problems, harness = [], [], [], [], []
    try:
        if not wl.cold:                        # fill the cache, untimed
            prep = make_config(base, run_dir / "prep.json", warm_cache,
                               run_dir / "prep-out", None)
            result, _ = run_child(
                {"src": str(root / "src"), "run_id": name, "unit": "prep",
                 "calls": [["tables", str(prep)]], "trace": False,
                 "result": str(run_dir / "prep.result.json")},
                run_dir / "prep", env, deadline)
            if result is None or result["solves"][0]["exit"] != 0:
                print("error: could not fill the table cache", file=sys.stderr)
                return 1

        unit_s = []
        u = 0
        min_units = 2 if args.trace else wl.min_units
        while u < min_units or (time.monotonic() - t_start + max(unit_s)
                                <= args.seconds):
            traced = bool(args.trace) and u % 2 == 0
            cache = run_dir / f"cache-u{u}" if wl.cold else warm_cache
            thetas = [None] + [round(rng.uniform(0.0, 180.0), 3)
                               for _ in range(wl.angles - 1)]
            cfgs = [make_config(base, run_dir / f"u{u}-s{i}.json", cache,
                                run_dir / f"out-u{u}-s{i}", th)
                    for i, th in enumerate(thetas)]
            spec = {"src": str(root / "src"), "run_id": name, "unit": u,
                    "calls": [["solve", str(c)] for c in cfgs],
                    "trace": traced,
                    "coeff_files": [str(c.with_suffix(".npz")) for c in cfgs],
                    "result": str(run_dir / f"u{u}.result.json")}
            t0 = time.monotonic()
            result, peak = run_child(spec, run_dir / f"u{u}", env, deadline)
            unit_s.append(time.monotonic() - t0)
            rss.append(peak)
            out = result["solves"] if result else []
            for i, cfg_file in enumerate(cfgs):
                res = out[i] if i < len(out) else {"exit": "child failed"}
                failed, rel = checker.check(res, cfg_file, wl.cold)
                if failed:
                    problems.append(f"u{u}-s{i}: {', '.join(failed)}")
                mine = [s for s in result["spans"]
                        if s["solve"] == res["solve_id"]] if result and \
                    "solve_id" in res else []
                if traced and not failed:
                    method = base["solver"].get("method", "direct")
                    harness += [f"u{u}-s{i}: {b}"
                                for b in self_check(wl.cold, method, mine, res)]
                solves.append({"res": res, "ok": not failed, "rel": rel,
                               "traced": traced, "spans": mine})
            if result:
                spans += result["spans"]
            if wl.cold:
                shutil.rmtree(cache, ignore_errors=True)
            u += 1
            if time.monotonic() + max(unit_s) > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    with open(WORK / f"spans-{name}.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")

    if args.trace and not any(s["traced"] and s["ok"] for s in solves):
        harness.append("no traced solve passed its checks")
    if harness:
        print("error: harness self-check failed:\n  " + "\n  ".join(harness),
              file=sys.stderr)
        return 1

    ok = [s for s in solves if s["ok"]] or solves
    plain = [s for s in ok if not s["traced"]]
    e2e = {
        "wall_s": median([s["res"]["wall_s"] for s in plain if "wall_s" in s["res"]]),
        "setup_s": median([s["res"]["setup_s"] for s in plain if "setup_s" in s["res"]]),
        "solve_s": median([s["res"]["solve_s"] for s in plain if "solve_s" in s["res"]]),
        "peak_rss_mb": median(rss),
        "rel_l2_inside": max((s["rel"] for s in ok if math.isfinite(s["rel"])),
                             default=1.0),
    }
    if args.trace:
        metrics = per_layer([(s["res"], s["spans"]) for s in ok if s["traced"]],
                            [s["res"]["wall_s"] for s in plain])
        units = PER_LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS

    for p in problems:
        print(f"check failed: {p}")
    for s in solves:
        r = s["res"]
        print(f"  {r.get('solve_id', '?')}: {'traced' if s['traced'] else 'untraced'}"
              f" wall {r.get('wall_s', 0):.3f} s, setup {r.get('setup_s', 0):.3f} s,"
              f" solve {r.get('solve_s', 0):.3f} s, rel_l2_inside {s['rel']:.4g}")
    print(f"{args.workload}: {len(solves)} solves in {len(rss)} units "
          f"(units {', '.join(f'{t:.1f}' for t in unit_s)} s, peak RSS "
          f"{', '.join(f'{m:.0f}' for m in rss)} MiB); medians per solve; "
          f"operators.bytes, operators.xf_nnz_frac, tables.live_cols_frac "
          f"and solver.lu_gflop are computed from array sizes")
    for k, v in metrics.items():
        print(f"  {k:32s} {v:.6g} {units[k]}")
    print("env " + json.dumps(environment(threads, args.seed)))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(solves),
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
