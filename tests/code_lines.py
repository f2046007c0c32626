"""Count the code lines of each ``src/stochctrl`` module: lines that hold code, not blank lines, comments
or docstrings.

    python tests/code_lines.py

prints one line per module and the total. A line counts when a token other than a comment or a line
break starts, ends or runs through it (``tokenize``), unless it lies in a module, class or function
docstring (``ast``). A multi-line string that is not a docstring counts every line it spans.
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochctrl"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:6d}")
    print(f"{'total':<16}{total:6d}")


if __name__ == "__main__":
    main()
