import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_numpy_floor_has_trapezoid():
    # np.trapezoid, used by gap, cli and inequalities, first shipped in numpy 2.0
    match = re.search(r'"numpy>=(\d+)(?:\.\d+)*"', PYPROJECT.read_text(encoding="utf-8"))
    assert match, "pyproject.toml declares no numpy>= floor"
    assert int(match.group(1)) >= 2
