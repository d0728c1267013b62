#!/usr/bin/env python3
"""Line counts of the deepmp package, per module and in total.

For each module of ``src/deepmp`` prints its ``wc -l`` count (newline
characters) and its code-only count: the lines that hold a token other than a
comment or a docstring, so blank, comment-only and docstring lines are left
out. Docstrings are the leading string statements of the module, its classes
and its functions, found with ``ast``.

With ``--ref REV`` it prints REV's counts beside the working tree's, reading
REV's files with ``git show``, so no checkout is needed; a module that one
side lacks reads ``-`` there.

Usage (from anywhere):
  python3 scripts/loc.py [--ref REV]
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize
from collections.abc import Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the package's directory below the repository root
PACKAGE_DIR = "src/deepmp"

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


def working_tree(root: str = ROOT) -> dict[str, str]:
    """Source text of each module of the package in the working tree."""
    package = os.path.join(root, PACKAGE_DIR)
    texts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                texts[name] = fh.read()
    return texts


def revision(rev: str, root: str = ROOT) -> dict[str, str]:
    """Source text of each module of the package at git revision ``rev``."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", root, *args], check=True,
                              capture_output=True, encoding="utf-8").stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE_DIR}").split()
    return {name: git("show", f"{rev}:{PACKAGE_DIR}/{name}")
            for name in names if name.endswith(".py")}


def main(argv: Sequence[str] = (), root: str = ROOT) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", help="git revision to count beside the "
                                      "working tree")
    args = parser.parse_args(argv)
    sides = [working_tree(root)]
    if args.ref is not None:
        try:
            sides.insert(0, revision(args.ref, root))
        except subprocess.CalledProcessError as error:
            sys.exit(f"loc.py: {error.stderr.strip()}")
        print(f"{'':<16}" + "".join(f"{label:>16}"
                                    for label in (args.ref, "working tree")))
    totals = [[0, 0] for _ in sides]
    print(f"{'module':<16}" + f"{'wc -l':>8}{'code':>8}" * len(sides))
    for name in sorted(set().union(*sides)):
        row = f"{name:<16}"
        for side, total in zip(sides, totals):
            if name not in side:
                row += f"{'-':>8}{'-':>8}"
                continue
            lines, code = count(side[name])
            total[0] += lines
            total[1] += code
            row += f"{lines:>8}{code:>8}"
        print(row)
    print(f"{'total':<16}" + "".join(f"{lines:>8}{code:>8}"
                                     for lines, code in totals))


if __name__ == "__main__":
    main(sys.argv[1:])
