"""Count the lines of each Python module: all lines, and code lines alone.

Code lines are the lines that hold a token of code; docstrings, comments and
blank lines are not code.  A docstring is the string literal that opens a
module, class or function body.  Run from the repository root:

    python tools/loc.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them; the default is
``src/wishartmix``.  Prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(lines, code_lines)`` of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docstrings:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/wishartmix"]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    width = max([len(str(f)) for f in files] + [5])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    totals = [0, 0]
    for f in files:
        lines, code = count(f.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{str(f):<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {totals[0]:>6}  {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
