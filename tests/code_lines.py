"""Count code lines per module: lines that are not blank, comment-only or
docstring lines.

A line counts when a token other than a comment, a newline or an indent
change starts on it or spans it, so every line of a continued
expression counts, and so does every line of a multi-line string that
is not a docstring.  A docstring is the string that opens a module,
class or function body; its lines never count.

Run as ``python3 tests/code_lines.py src/hypfeuer`` (any mix of files and
directories; a directory means its ``*.py`` files).  It prints one
``lines path`` row per module and the total.  pytest does not collect
this file; ``tests/test_code_lines.py`` pins its rule.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                       tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER})

_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers, from 1, of every docstring in source."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    paths: list[Path] = []
    for arg in argv or ["src/hypfeuer"]:
        path = Path(arg)
        paths.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
