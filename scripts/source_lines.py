#!/usr/bin/env python3
"""Count the source lines of the package, module by module.

A source line is one that holds code: blank lines, comment lines and the
lines of module, class and function docstrings are not counted.  Prints one
``<lines> <module>`` row per module under ``src/pebbling/``, then the total.

Example:
    python scripts/source_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pebbling"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def source_lines(text: str) -> int:
    skip = docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(code)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = source_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
