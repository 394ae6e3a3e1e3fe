"""Count the code lines of Python files.

A code line is a line that holds a token other than a comment, so blank
lines and comment-only lines do not count, and every line of a string that
spans several lines does.  Each file gets two counts: without docstring
lines (the lines of module, class and function docstrings, unless another
token shares them) and with them.

    python tools/count_lines.py src/zenosim/circuits.py src/zenosim/oracle.py

prints one `code  with-docstrings  path` row per file and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each module, class and function docstring
    begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(code lines without docstring lines, code lines with them)."""
    docstrings = _docstring_starts(ast.parse(source))
    code, doc = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        lines = range(tok.start[0], tok.end[0] + 1)
        (doc if tok.start in docstrings else code).update(lines)
    return len(code), len(code | doc)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = [0, 0]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = count(fh.read())
        total = [t + c for t, c in zip(total, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
