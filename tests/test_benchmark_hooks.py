"""The benchmark harness looks up package names by string: the traced child
wraps each (module, attribute) of its TRACED list, and run.py's checker calls
gaborscat functions through the package namespace.  A renamed or moved name
fails the benchmark run, so every one of them must resolve here."""

import importlib
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"

# gaborscat names that benchmarks/run.py calls as gs.<name>
RUN_NAMES = ["synthesize", "triangle_value", "mom_solve", "MoMConfig",
             "interior_mask", "compare_fields", "cli.parse_config"]


def _child_traced():
    """child.py's TRACED list, read from the source without importing it as a
    module (nothing is written next to it)."""
    path = BENCH / "child.py"
    namespace = {"__name__": "bench_child"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["TRACED"]


def _resolve(root, dotted):
    obj = root
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("entry", _child_traced(),
                         ids=lambda e: f"{e[0]}.{e[1]}")
def test_traced_hook_resolves(entry):
    module_name, attr = entry[:2]
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_run_checker_names_resolve():
    import gaborscat as gs
    import gaborscat.cli  # noqa: F401  (gs.cli, as run.py imports it)
    source = (BENCH / "run.py").read_text()
    used = set(re.findall(r"\bgs\.([A-Za-z_][\w.]*[A-Za-z_0-9])", source))
    assert set(RUN_NAMES) <= used
    for name in sorted(used | set(RUN_NAMES)):
        assert callable(_resolve(gs, name)), name
