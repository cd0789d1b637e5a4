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


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """"file line name" for each `_`-prefixed module-level function or class,
    and each `_`-prefixed method, that no code in `sources` (file name ->
    source) reads outside its own definition.  A read is a name or an
    attribute, or an f-string that starts with a prefix of the name (a
    lookup such as globals()[f"_suite_{name}"]); an import alone is none.
    Dunder names are exempt."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    prefixes = tuple(
        node.values[0].value for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr) and node.values
        and isinstance(node.values[0], ast.Constant) and node.values[0].value.startswith("_"))

    def reads(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr

    total = {}
    for tree in trees.values():
        for name in reads(tree):
            total[name] = total.get(name, 0) + 1
    dead = []
    for file, tree in trees.items():
        defs = [node for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [node for node in cls.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in defs:
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            own = sum(1 for read in reads(node) if read == name)
            if total.get(name, 0) - own == 0 and not name.startswith(prefixes):
                dead.append(f"{file} {node.lineno} {name}")
    return dead


def test_no_dead_private_names_in_src():
    # a private helper whose last reader is gone is a leftover; public names
    # are the API and may have no caller in src
    src = PYPROJECT.parent / "src" / "plsf"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))}
    assert len(sources) > 1
    assert _dead_private_names(sources) == []
    leftover = {
        "grid.py": (
            "from functools import cached_property\n"
            "class Grid:\n"
            "    def __init__(self):\n        self.n = self._used()\n"
            "    def _used(self):\n        return 1\n"
            "    def _mirror_index(self, n):\n        return self._mirror_index(n - 1)\n"
            "    @cached_property\n    def _lead_blocks(self):\n        return []\n"
            "def _helper():\n    return 2\n"
            "class _Unread:\n    pass\n"
            "def _run_a():\n    return 3\n"
            "def run(x):\n    return globals()[f'_run_{x}']()\n"
        ),
        "fields.py": "from .grid import _helper, _Unread  # noqa: F401\nx = _helper()\n",
    }
    assert sorted(_dead_private_names(leftover)) == [
        "grid.py 10 _lead_blocks", "grid.py 14 _Unread", "grid.py 7 _mirror_index"]
