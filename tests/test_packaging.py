import ast
import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_numpy_floor_has_trapezoid():
    # np.trapezoid, used by gap, cli and inequalities, first shipped in numpy 2.0
    match = re.search(r'"numpy>=(\d+)(?:\.\d+)*"', PYPROJECT.read_text(encoding="utf-8"))
    assert match, "pyproject.toml declares no numpy>= floor"
    assert int(match.group(1)) >= 2


def test_numpy_floor_has_vecdot():
    # np.linalg.vecdot, used for the basis polarization norms, first shipped
    # in numpy 2.0 alongside np.trapezoid
    import numpy as np

    match = re.search(r'"numpy>=(\d+)(?:\.\d+)*"', PYPROJECT.read_text(encoding="utf-8"))
    assert match, "pyproject.toml declares no numpy>= floor"
    assert int(match.group(1)) >= 2
    assert hasattr(np.linalg, "vecdot")
    assert "np.linalg.vecdot" in (PYPROJECT.parent / "src" / "plsf" / "basis.py").read_text(
        encoding="utf-8"
    )


def _unused_module_imports(source: str) -> list[str]:
    """"line name" for each name a module-level import binds that nothing in
    `source` reads, names in quoted annotations included; a line marked
    `# noqa: F401` is exempt."""
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                marks = lines[node.lineno - 1] + lines[alias.lineno - 1]
                if name not in read and "# noqa: F401" not in marks:
                    unused.append(f"{alias.lineno} {name}")
    return unused


def test_no_unused_module_imports_in_src():
    # no linter ships here, so an ast walk stands in for F401; __init__.py
    # imports to re-export
    sources = [p for p in (PYPROJECT.parent / "src" / "plsf").glob("*.py")
               if p.name != "__init__.py"]
    assert len(sources) > 1
    assert {p.name: _unused_module_imports(p.read_text(encoding="utf-8"))
            for p in sources} == {p.name: [] for p in sources}
    leftover = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
                "from .fields import (  # noqa: F401\n    gradient,\n)\n"
                "from .fields import inner_product, lp_norm\nfrom .grid import TorusGrid\n"
                "def f(x) -> 'TorusGrid':\n    return np.sum(x) + lp_norm(x, 2.0)\n")
    assert _unused_module_imports(leftover) == ["2 os", "7 inner_product"]
