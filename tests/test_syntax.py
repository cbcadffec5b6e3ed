"""Every source file parses as the oldest Python that pyproject.toml allows.

`ast.parse(..., feature_version=...)` refuses grammar newer than that
version, such as `except*` or type parameter lists, on a newer
interpreter, so such syntax fails here before it fails an install.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REQUIRES = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                     (ROOT / "pyproject.toml").read_text(), re.M)
SOURCES = sorted(path.relative_to(ROOT) for top in ("src", "scripts", "tests")
                 for path in (ROOT / top).rglob("*.py"))


def test_requires_python_is_read():
    assert REQUIRES is not None
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_parses_as_the_oldest_supported_python(path):
    version = tuple(map(int, REQUIRES.groups()))
    ast.parse((ROOT / path).read_text(), filename=str(path),
              feature_version=version)
