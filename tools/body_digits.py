#!/usr/bin/env python3
"""Digits of agreement between the printed errors of two sets of report bodies.

    python3 tools/body_digits.py A B

A and B are two trees written by tools/report_bodies.py, two golden
directories such as tests/data/golden_smoke, or two directories of golden
directories such as tests/data.  A directory holding convergence.csv is one
body; otherwise its subdirectories are compared by name.  The two sides
must hold the same files, and every file but convergence.csv must be byte
for byte the same.  In each convergence.csv pair everything but the err_*
columns (delta included) must be equal.  For every row, the index rows and
the delta row, the script prints the digits of agreement of each err_*
column, -log10(|a - b| / |b|), or `=` where the printed values are equal.
It exits 1, naming the file, when a check fails.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from fractions import Fraction
from pathlib import Path


def bodies(root: Path) -> dict:
    """{name: directory} of the bodies under root ('.' when root is one)."""
    if (root / "convergence.csv").exists():
        return {".": root}
    return {d.name: d for d in sorted(root.iterdir()) if d.is_dir()}


def digits(a: str, b: str) -> str:
    if a == b:
        return "="
    x, y = Fraction(a), Fraction(b)
    if y == 0:
        return "0.0"
    return f"{-math.log10(abs(x - y) / abs(y)):.1f}"


def compare(name: str, a: Path, b: Path) -> list:
    """Checks one pair of bodies; returns the printed table lines."""
    files_a = sorted(p.name for p in a.iterdir() if p.is_file())
    files_b = sorted(p.name for p in b.iterdir() if p.is_file())
    if files_a != files_b:
        raise SystemExit(f"{name}: files differ: {files_a} against {files_b}")
    for f in files_a:
        if f != "convergence.csv" and (a / f).read_bytes() != (b / f).read_bytes():
            raise SystemExit(f"{name}/{f}: bodies differ")
    rows_a = list(csv.reader(io.StringIO((a / "convergence.csv").read_text())))
    rows_b = list(csv.reader(io.StringIO((b / "convergence.csv").read_text())))
    header = rows_a[0]
    if rows_b[0] != header or len(rows_a) != len(rows_b):
        raise SystemExit(f"{name}/convergence.csv: header or row count differs")
    errs = [i for i, col in enumerate(header) if col.startswith("err_")]
    lines = []
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if [v for i, v in enumerate(ra) if i not in errs] != [
            v for i, v in enumerate(rb) if i not in errs
        ]:
            raise SystemExit(f"{name}/convergence.csv: row {ra[0]} differs outside err_*")
        cells = " ".join(f"{header[i]} {digits(ra[i], rb[i])}" for i in errs)
        lines.append(f"{name} {ra[0]}: {cells}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/body_digits.py A B", file=sys.stderr)
        return 2
    left, right = bodies(Path(argv[0])), bodies(Path(argv[1]))
    if sorted(left) != sorted(right):
        print(f"body sets differ: {sorted(left)} against {sorted(right)}", file=sys.stderr)
        return 1
    try:
        for name in left:
            for line in compare(name, left[name], right[name]):
                print(line)
    except SystemExit as failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
