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
