"""The rule of the code-line counter (`tests/code_lines.py`)."""

from code_lines import code_lines, docstring_lines

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


def f(x):
    """One-line docstring."""
    # a comment-only line
    y = (x
         + 1)
    return math.sqrt(y)


class C:
    """Class docstring."""

    text = """not a docstring,
    so both lines count"""
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # counted: import, def, both lines of the continued expression,
    # return, class, and both lines of the assigned string
    assert docstring_lines(SOURCE) == {1, 2, 8, 16}
    assert code_lines(SOURCE) == 8
    assert code_lines("") == 0
