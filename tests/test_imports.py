import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from .test_cli import write_config

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaborscat"


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never references (the package
    __init__ re-exports its imports and is not checked)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_unused_import_detector():
    assert _unused_imports("import os\nimport numpy as np\n"
                           "from a import b, c as d\nnp.x(d)\n") == ["b", "os"]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules
              if (names := _unused_imports(p.read_text()))}
    assert unused == {}


def _uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """Names module.name of each top-level def or class in the modules of
    sources (module name -> source) that no module references: by name in
    its own module, by `from .module import name` in another (the package
    __init__ re-exports that way and defines nothing checked), or as
    `module.name`."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    used = set()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((mod, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                used.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
    return sorted(f"{mod}.{node.name}" for mod, tree in trees.items()
                  if mod != "__init__" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and (mod, node.name) not in used)


def test_uncalled_definition_detector():
    sources = {"__init__": "from .a import exported\n",
               "a": "def exported(): pass\ndef helper(): pass\n"
                    "def dead(): pass\nclass Imported: pass\n"
                    "class Dead: pass\ndef by_attribute(): return helper()\n",
               "b": "from . import a\nfrom .a import Imported\n"
                    "x = a.by_attribute(Imported)\ndead = 1\n"}
    assert _uncalled_definitions(sources) == ["a.Dead", "a.dead"]


def test_package_functions_have_a_caller():
    # the console entry point cli.main is called by the package __main__
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert "__main__" in sources
    assert _uncalled_definitions(sources) == []


def _run_python(code: str, *args) -> str:
    """Standard output of `python -c code args` in a fresh process that
    imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_cli_import_leaves_out_scipy_integrate():
    # every contour integral of the package runs on its fixed-node rules, so
    # neither importing the CLI nor a `gaborscat green-check` run loads
    # scipy.integrate; only the tests' adaptive reference uses it
    listing = "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    assert _run_python("import sys, gaborscat.cli; " + listing).strip() == "[]"
    check = ("import sys; from gaborscat.cli import main; "
             "assert main(['green-check', '--k0', '1.45', '--n', '4']) == 0; "
             + listing)
    assert _run_python(check).splitlines()[-1] == "[]"


def test_solve_process_loads_no_scipy(tmp_path):
    # a GMRES solve needs FFTs, small matmuls, a Krylov loop and complex erf
    # for its cold table build, all numpy: importing the CLI, and a cold or
    # a warm `gaborscat solve` process, load no scipy module at all
    assert _run_python("import sys, gaborscat.cli; print(sorted(m for m in "
                       "sys.modules if m.split('.')[0] == 'scipy'))").strip() == "[]"
    path = write_config(tmp_path, **{"solver.method": "iterative"})
    code = ("import json, sys; from gaborscat.cli import main; "
            "assert main(['solve', sys.argv[1]]) == 0; "
            "print(json.dumps(sorted(sys.modules)))")
    metrics = tmp_path / "out" / "metrics.json"
    for warm in (False, True):
        loaded = json.loads(_run_python(code, str(path)).splitlines()[-1])
        assert json.loads(metrics.read_text())["kernel_cache_hit"] is warm
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
