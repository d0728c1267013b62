#!/usr/bin/env python3
"""Line counts of the deepmp package, per module and in total.

For each module of ``src/deepmp`` prints its ``wc -l`` count (newline
characters) and its code-only count: the lines that hold a token other than a
comment or a docstring, so blank, comment-only and docstring lines are left
out. Docstrings are the leading string statements of the module, its classes
and its functions, found with ``ast``.

Usage (from anywhere):
  python3 scripts/loc.py
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "deepmp")

#: tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(text: str) -> tuple[int, int]:
    """``wc -l`` and code-only line counts of Python source ``text``."""
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING
                                     and token.start in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code)


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            lines, code = count(fh.read())
        totals[0] += lines
        totals[1] += code
        print(f"{name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")


if __name__ == "__main__":
    main()
