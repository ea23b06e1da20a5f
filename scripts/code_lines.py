#!/usr/bin/env python3
"""Count the code lines of the package's modules.

    python scripts/code_lines.py [FILE_OR_DIR ...]

A code line is a line of a .py file that is neither blank, nor only a
comment, nor part of a module, class or function docstring. With no
argument the files are src/steinlab/*.py. Prints one line per file, then
the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "steinlab"


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """Lines of source that hold a token other than a comment, outside
    docstrings."""
    skip = _docstring_lines(ast.parse(source))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [PACKAGE]
    files = sorted(f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p]))
    total = 0
    for f in files:
        count = code_lines(f.read_text())
        total += count
        print(f"{count:6d}  {f.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
