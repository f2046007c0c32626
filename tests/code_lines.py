"""Count the code lines of each ``src/stochctrl`` module: lines that hold code, not blank lines, comments
or docstrings.

    python tests/code_lines.py
    python tests/code_lines.py --against REV

prints one line per module and the total. With ``--against REV`` it prints each module's count at git
revision REV (its ``src/`` from ``git archive``, :func:`extract`), in the working tree and the difference,
then the totals (:func:`table`). A line counts when a token other than a comment or a line break starts,
ends or runs through it (``tokenize``), unless it lies in a module, class or function docstring
(``ast``). A multi-line string that is not a docstring counts every line it spans. The script imports
nothing from the package.
"""
from __future__ import annotations

import ast
import io
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "stochctrl"
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


def counts(package: Path) -> dict[str, int]:
    """The code lines of each module of ``package``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(Path(package).glob("*.py"))}


def table(before: dict[str, int], after: dict[str, int]) -> list[str]:
    """One line per module of either count, "name before after difference" (0 where a module is absent),
    then the totals."""
    names = sorted(before.keys() | after.keys())
    rows = [(name, before.get(name, 0), after.get(name, 0)) for name in names]
    rows.append(("total", sum(before.values()), sum(after.values())))
    return [f"{name:<16}{old:6d}{new:6d}{new - old:+6d}" for name, old, new in rows]


def extract(rev: str, dest: Path) -> Path:
    """Git revision ``rev``'s ``src/`` tree, written by ``git archive`` under ``dest``; returns its path."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"


def against(rev: str) -> list[str]:
    """:func:`table` of git revision ``rev``'s package and the working tree's."""
    with tempfile.TemporaryDirectory() as tmp:
        return table(counts(extract(rev, Path(tmp)) / "stochctrl"), counts(PACKAGE))


def main(argv: list[str]) -> None:
    if len(argv) == 2 and argv[0] == "--against":
        lines = against(argv[1])
    elif not argv:
        package = counts(PACKAGE)
        lines = [f"{name:<16}{count:6d}" for name, count in [*package.items(), ("total", sum(package.values()))]]
    else:
        sys.exit("usage: python tests/code_lines.py [--against REV]")
    sys.stdout.write("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main(sys.argv[1:])
