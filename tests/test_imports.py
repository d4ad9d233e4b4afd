import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate serves only adaptive_quad (green-check and the tests),
    # so a fresh `gaborscat solve` process must not pay for importing it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, gaborscat.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
