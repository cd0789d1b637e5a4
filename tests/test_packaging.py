import ast
import os
import re
import subprocess
import sys
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


def _modules_loaded_by(statement: str) -> set[str]:
    """The names in sys.modules after `statement` runs in a fresh
    interpreter that imports from this checkout's src."""
    probe = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [str(PYPROJECT.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, cwd=PYPROJECT.parent,
                          env={**os.environ, "PYTHONPATH": path})
    return set(done.stdout.split())


def test_importing_the_cli_loads_no_numpy_random():
    # numpy.random adds about 6 MB of RSS to a process; only the random
    # draws need it, and they import it when they run
    loaded = _modules_loaded_by("import plsf, plsf.cli")
    assert "plsf.cli" in loaded and "numpy" in loaded
    assert not any(name.split(".")[:2] == ["numpy", "random"] for name in loaded)
    assert "numpy.random" in _modules_loaded_by("import plsf.cli, numpy.random")


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


def _reads(tree):
    """Each name and attribute that the code in `tree` reads; the names an
    import binds are not among them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _read_counts(trees) -> dict[str, int]:
    total = {}
    for tree in trees:
        for name in _reads(tree):
            total[name] = total.get(name, 0) + 1
    return total


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
    total = _read_counts(trees.values())
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
            own = sum(1 for read in _reads(node) if read == name)
            if total.get(name, 0) - own == 0 and not name.startswith(prefixes):
                dead.append(f"{file} {node.lineno} {name}")
    return dead


def test_no_dead_private_names_in_src():
    # a private helper whose last reader is gone is a leftover; public
    # names have their own gate below
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


# The public module-level functions that no src code reads, each kept for
# the reason given.  Every other public function and class of src is read
# by src: the shipped package holds each command's code and the paper's
# named checks, and what only tests use lives in tests/conftest.py.
LIBRARY_API = {
    "gradient": "the benchmark's tests check that plsf.galerkin re-exports it "
                "from plsf.fields",
    "lp_norm": "the benchmark's tests check that plsf.galerkin re-exports it "
               "from plsf.fields, and its tracer times it",
    "lemma5_functional": "the paper's bounded-variation functional of Lemma 5, "
                         "which acceptance criterion 7 reads; no command reports it yet",
    "lemma5_monotone_bound": "that functional's exact value for a piecewise-linear rho, "
                             "criterion 7's reference",
    "measure_bound_check": "the paper's tail bound on the exceedance measure |J_N(alpha)|; "
                           "no command reports it yet",
    "check_cl_i": "the paper's uniformity of the time integral of ||D^2 v||_p^(2 beta) "
                  "across a family; no command reports it yet",
}


def _unread_public_names(sources: dict[str, str]) -> list[str]:
    """"file line name" for each public module-level function or class in
    `sources` (file name -> source) that no code in `sources` reads, as a
    name or an attribute, outside its own definition.  An import is no
    read, and `__init__.py`, which only re-exports, is left out."""
    trees = {name: ast.parse(source) for name, source in sources.items()
             if name != "__init__.py"}
    total = _read_counts(trees.values())
    unread = []
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or (
                    node.name.startswith("_")):
                continue
            own = sum(1 for read in _reads(node) if read == node.name)
            if total.get(node.name, 0) - own == 0:
                unread.append(f"{file} {node.lineno} {node.name}")
    return unread


def test_src_reads_every_public_function_and_class():
    # a public function or class that no src code reads serves no command;
    # it moves to the tests' oracle unless LIBRARY_API names it, and a
    # listed name leaves the list once src reads it
    src = PYPROJECT.parent / "src" / "plsf"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))}
    assert len(sources) > 1
    unread = _unread_public_names(sources)
    assert [entry for entry in unread if entry.split()[-1] not in LIBRARY_API] == []
    assert sorted(entry.split()[-1] for entry in unread) == sorted(LIBRARY_API)
    leftover = {
        "gap.py": (
            "from .galerkin import run\n"
            "def lemma5_functional(r):\n    return r\n"
            "def unread(n):\n    return unread(n - 1) if n else 0\n"
            "class Report:\n    pass\n"
            "def used():\n    return Report(), run()\n"
        ),
        "galerkin.py": "from . import gap\ndef run():\n    return 1\nx = gap.used()\n",
        "__init__.py": "from .gap import Report, lemma5_functional, unread\nunread(2)\n",
    }
    assert _unread_public_names(leftover) == ["gap.py 2 lemma5_functional", "gap.py 4 unread"]
    assert [entry for entry in _unread_public_names(leftover)
            if entry.split()[-1] not in LIBRARY_API] == ["gap.py 4 unread"]


def _unread_public_members(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """"file line Class.name" for each public method or property of a
    module-level class in `sources` (file name -> source) that no code in
    `sources` or `readers` reads as an attribute outside its own
    definition.  Dunder and `_`-prefixed names are exempt; the private
    scan above covers the latter."""
    reads = {}
    for source in [*sources.values(), *readers.values()]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
    unread = []
    for file, source in sources.items():
        for cls in (node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                        node.name.startswith("_")):
                    continue
                own = sum(1 for read in ast.walk(node)
                          if isinstance(read, ast.Attribute) and read.attr == node.name)
                if reads.get(node.name, 0) - own == 0:
                    unread.append(f"{file} {node.lineno} {cls.name}.{node.name}")
    return unread


def test_no_unread_public_members_in_src():
    # a public method or property that no code in src, the tests or the
    # benchmark reads is API with no user; module-level functions and
    # classes have the gate above
    top = PYPROJECT.parent
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((top / "src" / "plsf").glob("*.py"))}
    readers = {str(p.relative_to(top)): p.read_text(encoding="utf-8")
               for folder in ("tests", "perfbench") for p in sorted((top / folder).glob("*.py"))}
    assert len(sources) > 1 and len(readers) > 1
    assert _unread_public_members(sources, readers) == []
    leftover = {
        "galerkin.py": (
            "class Segment:\n"
            "    def __init__(self):\n        self.t0 = self._start()\n"
            "    def _start(self):\n        return 0.0\n"
            "    @property\n    def t1(self):\n        return self.t0 + 1.0\n"
            "    def walk(self, n):\n        return self.walk(n - 1) if n else self.t0\n"
            "    def interpolate(self, t):\n        return t\n"
            "    def used_in_src(self):\n        return 1\n"
            "def run(seg):\n    return seg.used_in_src()\n"
        ),
    }
    tests = {"tests/test_galerkin.py": "def test_it(seg):\n    assert seg.interpolate(0.5)\n"}
    assert _unread_public_members(leftover, tests) == [
        "galerkin.py 7 Segment.t1", "galerkin.py 9 Segment.walk"]


def test_constructors_take_only_what_callers_set():
    # every settable value of these five is one that a caller sets; the
    # controller's counters and the estimate's results are fields the code
    # fills, the safety factor, the convergence tolerance and the amplitude
    # spread are module constants, and no synthesized field is validated
    import inspect

    from plsf.basis import StokesBasis
    from plsf.galerkin import StepController
    from plsf.gap import GapEstimate, converged_times_mask
    from plsf.inequalities import ensemble_fields

    settable = {f.__name__: list(inspect.signature(f).parameters) for f in (
        StepController, GapEstimate, converged_times_mask, ensemble_fields,
        StokesBasis.synthesize)}
    assert settable == {
        "StepController": ["rtol", "atol", "dt_min", "dt", "err_prev"],
        "GapEstimate": ["s", "t", "gamma", "alphas"],
        "converged_times_mask": ["records"],
        "ensemble_fields": ["dim", "M", "L", "band", "decay", "seed", "count",
                            "amplitude", "dealias"],
        "synthesize": ["self", "c"],
    }
    assert sum(map(len, settable.values())) == 21
