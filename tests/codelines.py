"""Count the lines and the code lines of the ``edgepool`` package.

Prints two integers, ``lines code_lines``, summed over ``SRC/edgepool/*.py``.
A code line holds at least one token that is not a comment, and is not part
of a docstring (the string that opens a module, class or function, found
with :mod:`ast`); blank lines are not code lines. ::

    python tests/codelines.py                      # this tree
    python tests/codelines.py /path/to/parent/src  # another tree

SRC defaults to this tree's ``src``. pytest does not collect this file;
``tests/test_surface.py`` runs it once.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(src: Path) -> None:
    totals = [count(path.read_text(encoding="utf-8"))
              for path in sorted((src / "edgepool").glob("*.py"))]
    print(sum(t[0] for t in totals), sum(t[1] for t in totals))


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else SRC)
