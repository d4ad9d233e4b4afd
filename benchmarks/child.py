"""One benchmark unit, run in a fresh process by run.py.

Usage: python3 benchmarks/child.py SPEC.json

SPEC names the checkout's source directory, a list of `gaborscat.cli.main`
argument lists to run in order, whether to trace, and where to write the
result.  Every call is timed from outside the program:

- ``wall_s``  from the call into ``cli.main`` to its return;
- ``setup_s`` from that call to the call into ``gaborscat.cli.solve``;
- ``solve_s`` the duration of the ``solve`` call.

Untraced, only ``gaborscat.cli.solve`` is wrapped.  Traced, the public
functions of each layer are wrapped where their caller looks them up (the
program binds most of them with ``from .x import y``), and each call records
a span in memory: name, start, end, the id of the enclosing span, run id and
solve id.  Sizes are computed from the returned tables and operator after
``cli.main`` has returned.  The result file holds the timings, the spans and
the path of each solution's coefficients, which run.py checks against the
MoM oracle.
"""

import importlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np


class Tracer:
    """Spans and captured return values of wrapped calls, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.solve_id = None
        self.spans = []
        self.stack = []
        self.captured = {}
        self._patched = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"run": self.run_id, "solve": self.solve_id,
                           "id": sid,
                           "parent": self.stack[-1] if self.stack else None,
                           "name": name, "start": 0.0, "end": None})
        self.stack.append(sid)
        self.spans[sid]["start"] = time.perf_counter()
        return sid

    def close(self, sid: int) -> dict:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[sid]["end"] = end
        return self.spans[sid]

    def wrap(self, module_name: str, attr: str, name: str, capture=None):
        """Replace module.attr by a timing wrapper; capture(tracer, args, out)
        may keep a reference to the result for after the timed call."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)       # AttributeError: fail loudly

        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(sid)
            if capture is not None:
                capture(self, args, out)
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _keep(key):
    def capture(tracer, args, out):
        tracer.captured.setdefault(key, []).append(out)
    return capture


def _keep_lu_size(tracer, args, out):
    tracer.captured.setdefault("lu_n", []).append(int(np.shape(args[0])[0]))


# (module where the name is looked up, attribute, span name, capture)
TRACED = [
    ("gaborscat.cli", "zak_dual_window", "frame.zak_dual_window", None),
    ("gaborscat.cli", "fit_dual_coeffs", "frame.fit_dual_coeffs", None),
    ("gaborscat.cli", "load_or_build", "tables.load_or_build", _keep("tables")),
    ("gaborscat.tables", "build_spectral_table", "tables.build_spectral_table", None),
    ("gaborscat.tables", "build_spatial_table", "tables.build_spatial_table", None),
    ("gaborscat.tables", "load_table", "tables.load_table", None),
    ("gaborscat.cli", "build_operator", "operators.build_operator", _keep("operator")),
    ("gaborscat.solver", "project_source", "scene.project_source", None),
    ("gaborscat.solver", "assemble_dense", "operators.assemble_dense", None),
    ("scipy.linalg", "lu_factor", "solver.lu_factor", _keep_lu_size),
    ("gaborscat.solver", "green_apply", "operators.green_apply", None),
    ("gaborscat.solver", "contrast_multiply", "operators.contrast_multiply", None),
    ("gaborscat.solver", "forward_residual", "operators.forward_residual", None),
    ("gaborscat.cli", "synthesize_field", "solver.synthesize_field", None),
    ("gaborscat.cli", "write_field_csv", "cli.write_field_csv", None),
    ("gaborscat.cli", "write_pgm", "cli.write_pgm", None),
]


def _arrays(obj):
    """ndarrays and scipy.sparse matrices held directly by obj or its
    list/tuple/dict attributes."""
    items = list(vars(obj).items())
    while items:
        name, v = items.pop()
        if isinstance(v, (list, tuple)):
            items.extend((name, x) for x in v)
        elif isinstance(v, dict):
            items.extend((name, x) for x in v.values())
        elif isinstance(v, np.ndarray) or hasattr(v, "nnz"):
            yield name, v


def _nbytes(a) -> int:
    if isinstance(a, np.ndarray):
        return a.nbytes
    return sum(getattr(a, k).nbytes for k in ("data", "indices", "indptr", "row",
                                              "col", "offsets") if hasattr(a, k))


def _nnz(a) -> tuple[int, int]:
    """(nonzero entries, stored entries)."""
    if isinstance(a, np.ndarray):
        return int(np.count_nonzero(a)), a.size
    return int(np.count_nonzero(a.data)), a.data.size


def operator_sizes(op) -> dict:
    """Computed from array sizes: bytes held by the operator, and the nonzero
    share of its x-factor arrays (all its arrays if it has none named xf*)."""
    arrays = list(_arrays(op))
    xf = [a for name, a in arrays if name.startswith("xf")] or \
        [a for _, a in arrays]
    nnz = [_nnz(a) for a in xf]
    stored = sum(s for _, s in nnz)
    return {"operators.bytes": float(sum(_nbytes(a) for _, a in arrays)),
            "operators.xf_nnz_frac": sum(n for n, _ in nnz) / stored if stored else 0.0}


def live_cols_frac(tables) -> float:
    """Share of (q, p) table columns with any nonzero entry, both tables."""
    live = total = 0
    for t in tables:
        mask = np.abs(t.data).max(axis=2) > 0
        live += int(mask.sum())
        total += mask.size
    return live / total


def _record(res: dict, captured: dict, coeff_file, traced: bool):
    """Save the solution and compute sizes from what the wrapped calls
    returned; the references die with this frame, before the next call."""
    sols = captured.get("solution", [])
    if sols and coeff_file:
        res["coeffs"] = coeff_file
        res["iterations"] = int(sols[0].iterations)
        np.savez(coeff_file, J=sols[0].J, J_inc=sols[0].J_inc)
    if traced:
        computed = {"solver.lu_n": captured.get("lu_n", [])}
        for op in captured.get("operator", []):
            computed.update(operator_sizes(op))
        for spatial, spectral, hit in captured.get("tables", []):
            computed["tables.live_cols_frac"] = live_cols_frac((spatial, spectral))
            computed["tables.cache_hit"] = bool(hit)
        res["computed"] = computed


def run_unit(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import gaborscat.cli as cli

    tracer = Tracer(spec["run_id"])
    tracer.wrap("gaborscat.cli", "solve", "solver.solve", _keep("solution"))
    if spec["trace"]:
        for module, attr, name, capture in TRACED:
            tracer.wrap(module, attr, name, capture)

    coeff_files = spec.get("coeff_files") or [None] * len(spec["calls"])
    results = []
    try:
        for argv, coeff_file in zip(spec["calls"], coeff_files):
            tracer.solve_id = f"{spec['run_id']}/u{spec['unit']}/{len(results)}"
            root = tracer.open("cli.main")
            try:
                code = cli.main(argv)
            except Exception:               # reported as a failed solve
                code = traceback.format_exc()
            finally:
                main_span = tracer.close(root)
            res = {"argv": argv, "exit": code, "solve_id": tracer.solve_id,
                   "wall_s": main_span["end"] - main_span["start"]}
            solve_span = next((s for s in tracer.spans[root:]
                               if s["name"] == "solver.solve"), None)
            if solve_span is not None:
                res["setup_s"] = solve_span["start"] - main_span["start"]
                res["solve_s"] = solve_span["end"] - solve_span["start"]
            captured, tracer.captured = tracer.captured, {}
            _record(res, captured, coeff_file, spec["trace"])
            del captured
            results.append(res)
    finally:
        tracer.restore()
    return {"solves": results, "spans": tracer.spans}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    out = run_unit(spec)
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
