#!/usr/bin/env python3
"""Count the code lines of the package, without docstrings, comments or blanks.

    python3 tools/code_lines.py [CHECKOUT]
    python3 tools/code_lines.py A B

Prints one `count module` line per module of CHECKOUT/src/nikishin_hp
(CHECKOUT defaults to this repository), then the total.  With two
checkouts it prints `count_A count_B change module` per module of either,
a module missing from one counting 0 there, then the totals.  A line counts
when a token other than a comment or a line break lies on it; a string
token spanning several lines counts each of them.  The lines of a
docstring, the string that opens a module, class or function body, do not
count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def counts(checkout: Path) -> dict:
    """{module file name: code lines} for CHECKOUT/src/nikishin_hp."""
    return {
        path.name: code_lines(path.read_text())
        for path in sorted((checkout / "src" / "nikishin_hp").glob("*.py"))
    }


def main(argv) -> int:
    checkouts = [Path(a) for a in argv[1:3]] or [Path(__file__).resolve().parent.parent]
    tables = [counts(c) for c in checkouts]
    names = sorted(set().union(*tables))
    for name in names + ["total"]:
        row = [sum(t.values()) if name == "total" else t.get(name, 0) for t in tables]
        if len(row) == 2:
            row.append(row[1] - row[0])
            print(f"{row[0]:6d} {row[1]:6d} {row[2]:+6d} {name}")
        else:
            print(f"{row[0]:6d} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
