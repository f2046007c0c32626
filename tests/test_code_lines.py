"""``tests/code_lines.py`` counts the lines that hold code: not blank lines, comments or docstrings."""
import textwrap

from code_lines import code_lines, docstring_lines

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
