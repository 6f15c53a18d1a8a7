#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, with per-metric medians.

    python3 tools/bench_pairs.py A B --workload W --pairs N [--seconds S] [--json PATH]

Runs `benchmark/run.py --workload W --seed s --trace 0` from checkout A
and from checkout B for s = 1..N, one run at a time, A first on odd seeds
and B first on even ones.  Each run imports the package from its own
checkout's `src/`.  Runs start with PYTHONDONTWRITEBYTECODE set, so nothing is
written under either `benchmark/` (run.py keeps its scratch output in the
checkout's `.bench_out/`).  --seconds defaults to A's `BENCHMARK.json`
`run_seconds`.

It prints each pair, then for each end-to-end metric of A's
`BENCHMARK.json`: both medians with their quartiles, the change of the
median, and in how many pairs B was better (ties count for neither side),
and last the `correct` flags of every run.  --json PATH stores the pairs
and that summary under "workloads" -> W in PATH, keeping the other
workloads already there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one benchmark run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable,
        str(checkout / "benchmark" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no output from benchmark/run.py\n{proc.stderr}")
    return json.loads(lines[-1])


def revision(checkout: Path) -> dict:
    """The checkout's git commit, and whether its tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    rev = git("rev-parse", "--short", "HEAD")
    if rev is None:
        return {"rev": None, "dirty": None}
    return {"rev": rev, "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, metrics: list) -> dict:
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [p["a"]["metrics"][name]["value"] for p in pairs]
        b = [p["b"]["metrics"][name]["value"] for p in pairs]
        med_a, med_b = statistics.median(a), statistics.median(b)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "a_median": med_a,
            "a_quartiles": quartiles(a),
            "b_median": med_b,
            "b_quartiles": quartiles(b),
            "change": (med_b - med_a) / med_a if med_a else None,
            "b_better_pairs": sum((y < x) if lower else (y > x) for x, y in zip(a, b)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    a, b = args.a.resolve(), args.b.resolve()
    bench = json.loads((a / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    pairs = []
    for seed in range(1, args.pairs + 1):
        order = ("a", "b") if seed % 2 else ("b", "a")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(a if side == "a" else b, args.workload, seed, seconds)
        pairs.append(pair)
        times = [pair[s]["metrics"].get("experiment_s", {}).get("value") for s in "ab"]
        print(f"seed {seed} ({order[0]} first): experiment_s a {times[0]} b {times[1]}", flush=True)

    summary = summarize(pairs, bench["end_to_end"])
    print(f"{args.workload}, {len(pairs)} pairs, seconds {seconds}")
    for name, s in summary.items():
        change = "n/a" if s["change"] is None else f"{100 * s['change']:+.1f}%"
        a_q, b_q = s["a_quartiles"], s["b_quartiles"]
        print(
            f"  {name} [{s['unit']}]: a {s['a_median']:.4g} (q {a_q[0]:.4g}..{a_q[1]:.4g})"
            f"  b {s['b_median']:.4g} (q {b_q[0]:.4g}..{b_q[1]:.4g})"
            f"  {change}, b better in {s['b_better_pairs']}/{s['pairs']}"
        )
    correct = {s: [p[s]["correct"] for p in pairs] for s in "ab"}
    print(f"  correct: a {correct['a']} b {correct['b']}")

    if args.json is not None:
        record = json.loads(args.json.read_text()) if args.json.exists() else {}
        record.setdefault("workloads", {})[args.workload] = {
            "a": revision(a),
            "b": revision(b),
            "seconds": seconds,
            "pairs": pairs,
            "summary": summary,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(correct["a"] + correct["b"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
