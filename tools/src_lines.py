"""Count the lines of the package under ``src/``: all lines, and code lines.

    python3 tools/src_lines.py [SRC]

SRC defaults to this checkout's ``src/``. It prints one line per module,
sorted by path, then the total. A code line is a line that holds part of a
statement: blank lines, lines holding only a comment, and the lines of
docstrings (a string literal that opens a module, class or function body)
are not code lines. A statement over several lines counts each of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """A module's lines and its code lines."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    total = [0, 0]
    print(f"{'lines':>6} {'code':>6}  module")
    for path in sorted(src.rglob("*.py")):
        lines, code = count_lines(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{lines:>6} {code:>6}  {path.relative_to(src)}")
    print(f"{total[0]:>6} {total[1]:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
