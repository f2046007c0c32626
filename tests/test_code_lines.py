"""``tests/code_lines.py`` counts the lines that hold code: not blank lines, comments or docstrings, and
tables two packages' counts module by module."""
import shutil
import subprocess
import textwrap

import pytest

from code_lines import PACKAGE, REPO, against, code_lines, counts, docstring_lines, extract, table

SNIPPET = textwrap.dedent('''\
    """A module docstring
    over two lines."""
    import os  # a comment after code

    # a comment line


    class A:
        """A class docstring."""

        def f(self):
            """A function docstring
            over two lines."""
            text = """a string that is not a docstring
    over two lines"""
            return text


    def g():
        return os.sep  # a comment after code
''')


def test_code_lines_skip_blank_lines_comments_and_docstrings():
    assert docstring_lines(SNIPPET) == {1, 2, 9, 12, 13}
    # import, class, def f, the string's two lines, return, def g, return
    assert code_lines(SNIPPET) == 8


def test_the_table_gives_each_modules_counts_and_their_difference(tmp_path):
    # A module in one tree only counts 0 in the other; the totals come last.
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    (before / "kept.py").write_text("x = 1\ny = 2\n")
    (before / "gone.py").write_text("z = 3\n")
    (after / "kept.py").write_text('"""A docstring."""\nx = 1\n')
    (after / "new.py").write_text("def f():\n    return 1\n")
    assert table(counts(before), counts(after)) == [
        "gone.py              1     0    -1",
        "kept.py              2     1    -1",
        "new.py               0     2    +2",
        "total                3     3    +0",
    ]


@pytest.mark.skipif(shutil.which("git") is None or not (REPO / ".git").exists(), reason="needs git and the history")
def test_against_a_revision_counts_its_package_from_git_archive(tmp_path):
    src = extract("HEAD", tmp_path)
    want = subprocess.run(["git", "-C", str(REPO), "show", "HEAD:src/stochctrl/synthesis.py"], capture_output=True,
                          check=True, text=True).stdout
    assert counts(src / "stochctrl")["synthesis.py"] == code_lines(want)
    assert against("HEAD") == table(counts(src / "stochctrl"), counts(PACKAGE))
