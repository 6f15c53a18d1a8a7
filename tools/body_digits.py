#!/usr/bin/env python3
"""Compare two sets of report bodies by the digits each one prints.

    python3 tools/body_digits.py A B

A is the reference (the parent's bodies), B the bodies under test.  Each is
a tree written by tools/report_bodies.py, a golden directory such as
tests/data/golden_smoke, or a directory of such directories such as
tests/data.  A directory holding convergence.csv is one body; otherwise its
subdirectories are compared by name.  The two sides must hold the same files.

convergence.csv: columns are matched by name, the former `nullity_flag`
standing for `flag`; a column on one side only (`digits`) is not compared.
Every cell outside the err_* columns must be equal.  An err_* cell (delta
included) matches when the shorter of the two printed values is the longer
one correctly rounded to its significant digits, so every printed digit
agrees; the line shows `=` for equal cells, `=N` for a match at N digits,
and the digits of agreement, -log10(|a - b| / |b|), for a mismatch.

identities.json: a `reduction` entry of A, where B has none, stands for
B's `orthogonality` entry (the orthogonality check now reads the tail sums
the reduction entry read, and the reduction entry is gone), and A's own
`orthogonality` is then not compared.  Every field must be equal but the
residuals and scales,
each of which must stay within a factor 2^8 of A's and, for a residual,
within its own gate, max_residual <= 2^-floor(P f) scale with f the
entry's tolerance_fraction; the line shows log2 of each ratio B/A.

atoms.txt, vectors.txt, transforms.txt and roots.txt (report_bodies.py's raw
dumps): every line must match outside its `_mpf_` tuples; the line shows how
many values moved and the largest move, in units of 2^-P, P being the run's
precision_bits, against the value and against the largest value of its
line.  Every other file must be equal byte for byte.

It exits 1, naming the file, when a check fails.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

# a residual or scale may move by at most this factor against the reference
RESIDUAL_FACTOR = 2**8
RAW_DUMPS = ("atoms.txt", "vectors.txt", "transforms.txt", "roots.txt")
MPF = re.compile(r"\((\d), (\d+), (-?\d+), (-?\d+)\)")
RENAMED = {"nullity_flag": "flag"}
RENAMED_CHECKS = {"reduction": "orthogonality"}


class Mismatch(Exception):
    pass


def bodies(root: Path) -> dict:
    """{name: directory} of the bodies under root ('.' when root is one)."""
    if (root / "convergence.csv").exists():
        return {".": root}
    return {d.name: d for d in sorted(root.iterdir()) if d.is_dir()}


def printed_match(a: str, b: str) -> str:
    """`=`, `=N` when the shorter value is the longer one rounded to its N digits, else the digits of agreement."""
    if a == b:
        return "="
    try:
        x, y = Decimal(a), Decimal(b)
        short, long_ = (x, y) if len(x.as_tuple().digits) <= len(y.as_tuple().digits) else (y, x)
        digits, exponent = short.as_tuple()[1:]
        if abs(Fraction(short) - Fraction(long_)) <= Fraction(10) ** exponent / 2:
            return f"={len(digits)}"
        if y == 0:
            return "0.0"
        return f"{-math.log10(abs(Fraction(x) - Fraction(y)) / abs(Fraction(y))):.1f}"
    except (InvalidOperation, ValueError, OverflowError):
        raise Mismatch(f"{a!r} against {b!r}") from None


def compare_convergence(name: str, a: Path, b: Path) -> tuple:
    """(the printed lines, whether a printed digit differs) for one convergence.csv pair."""
    rows_a = list(csv.reader(io.StringIO(a.read_text())))
    rows_b = list(csv.reader(io.StringIO(b.read_text())))
    head_a = [RENAMED.get(c, c) for c in rows_a[0]]
    head_b = [RENAMED.get(c, c) for c in rows_b[0]]
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{name}/convergence.csv: row counts differ")
    shared = [c for c in head_a if c in head_b]
    lines, failed = [], False
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        cells_a, cells_b = dict(zip(head_a, ra)), dict(zip(head_b, rb))
        out = []
        for col in shared:
            if col.startswith("err_"):
                verdict = printed_match(cells_a[col], cells_b[col])
                failed |= not verdict.startswith("=")
                out.append(f"{col} {verdict}")
            elif cells_a[col] != cells_b[col]:
                raise Mismatch(f"{name}/convergence.csv: row {ra[0]} differs in {col}")
        lines.append(f"{name} {ra[0]}: {' '.join(out)}")
    if failed:
        lines.append(f"{name}/convergence.csv: a printed digit differs")
    return lines, failed


def gate_exponent(bits: int, fraction: float) -> int:
    """floor(P f) for the fraction identities.json stores to 6 decimals (1/3 as 0.333333)."""
    return int(bits * fraction + 0.002)


def compare_identities(name: str, a: Path, b: Path) -> list:
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    for old, new in RENAMED_CHECKS.items():
        if old in da["checks"] and old not in db["checks"]:
            da["checks"][new] = da["checks"].pop(old)
    if da.get("precision_bits") != db.get("precision_bits") or set(da["checks"]) != set(db["checks"]):
        raise Mismatch(f"{name}/identities.json: precision or checks differ")
    lines = []
    for check in sorted(da["checks"]):
        ea, eb = da["checks"][check], db["checks"][check]
        if set(ea) != set(eb):
            raise Mismatch(f"{name}/identities.json {check}: fields differ")
        ratios = []
        for field in sorted(ea):
            if field not in ("max_residual", "scale"):
                if ea[field] != eb[field]:
                    raise Mismatch(f"{name}/identities.json {check}: {field} differs")
                continue
            x, y = Fraction(ea[field]), Fraction(eb[field])
            if x == y:
                ratios.append(f"{field} =")
                continue
            if x == 0 or y == 0 or not 1 / RESIDUAL_FACTOR <= y / x <= RESIDUAL_FACTOR:
                raise Mismatch(f"{name}/identities.json {check}: {field} moved beyond 2^8")
            ratios.append(f"{field} 2^{math.log2(y / x):+.2f}")
        if "max_residual" in eb:
            gate = Fraction(1, 2 ** gate_exponent(db["precision_bits"], eb["tolerance_fraction"]))
            if Fraction(eb["max_residual"]) > gate * Fraction(eb["scale"]):
                raise Mismatch(f"{name}/identities.json {check}: max_residual above its gate")
        if ratios:
            lines.append(f"{name} identities.json {check}: {' '.join(ratios)}")
    return lines


def mpf_value(match) -> Fraction:
    sign, man, exp, _ = (int(g) for g in match.groups())
    return (-1) ** sign * man * Fraction(2) ** exp


def compare_raw(name: str, a: Path, b: Path, bits: int) -> str:
    """How many values of a raw dump moved, and the largest move in units of 2^-P.

    A move is measured against the value itself and against the largest
    value of its line (a vector's coefficients, a residual with its
    scale), which is the scale of a value at the rounding level.
    """
    lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
    if len(lines_a) != len(lines_b):
        raise Mismatch(f"{name}/{a.name}: line counts differ")
    differ = total = 0
    worst = {"value": (Fraction(0), None), "line": (Fraction(0), None)}
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if MPF.sub("#", la) != MPF.sub("#", lb):
            raise Mismatch(f"{name}/{a.name}: line {number} differs outside its values")
        pairs = [(mpf_value(ma), mpf_value(mb)) for ma, mb in zip(MPF.finditer(la), MPF.finditer(lb))]
        total += len(pairs)
        largest = max((max(abs(x), abs(y)) for x, y in pairs), default=0)
        for x, y in pairs:
            if x == y:
                continue
            differ += 1
            for key, scale in (("value", max(abs(x), abs(y))), ("line", largest)):
                move = abs(x - y) / scale * 2**bits
                if move > worst[key][0]:
                    worst[key] = (move, number)
    if not differ:
        return f"{name} {a.name}: ="
    (value, at), (line, line_at) = worst["value"], worst["line"]
    return (
        f"{name} {a.name}: {differ} of {total} values moved, at most {float(value):.3g} 2^-P of the"
        f" value (line {at}) and {float(line):.3g} 2^-P of its line's largest (line {line_at})"
    )


def compare(name: str, a: Path, b: Path) -> tuple:
    """Checks one pair of bodies; returns (the printed lines, whether a printed digit differs)."""
    files_a = sorted(p.name for p in a.iterdir() if p.is_file())
    files_b = sorted(p.name for p in b.iterdir() if p.is_file())
    if files_a != files_b:
        raise Mismatch(f"{name}: files differ: {files_a} against {files_b}")
    lines, failed = compare_convergence(name, a / "convergence.csv", b / "convergence.csv")
    lines += compare_identities(name, a / "identities.json", b / "identities.json")
    bits = json.loads((b / "identities.json").read_text())["precision_bits"]
    for f in files_a:
        if f in RAW_DUMPS:
            lines.append(compare_raw(name, a / f, b / f, bits))
        elif f not in ("convergence.csv", "identities.json") and (a / f).read_bytes() != (b / f).read_bytes():
            raise Mismatch(f"{name}/{f}: bodies differ")
    return lines, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/body_digits.py A B", file=sys.stderr)
        return 2
    left, right = bodies(Path(argv[0])), bodies(Path(argv[1]))
    if sorted(left) != sorted(right):
        print(f"body sets differ: {sorted(left)} against {sorted(right)}", file=sys.stderr)
        return 1
    status = 0
    try:
        for name in left:
            lines, failed = compare(name, left[name], right[name])
            status |= failed
            for line in lines:
                print(line)
    except Mismatch as failure:
        print(failure, file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
