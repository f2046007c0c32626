"""The sources stay within the declared ``requires-python >= 3.10`` floor.

``ast.parse(..., feature_version=(3, 10))`` rejects the grammar added after
3.10 (``except*``, ``type X = int``, PEP 695 generics), so a newer
construct fails here on any interpreter that runs the suite.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "stochctrl").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def test_the_floor_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("snippet", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type X = int\n",
    "def f[T](x: T) -> T:\n    return x\n",
])
def test_the_check_rejects_newer_grammar(snippet):
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=(3, 10))
