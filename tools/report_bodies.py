#!/usr/bin/env python3
"""Write the report bodies of a checkout for a byte-for-byte comparison.

    python3 tools/report_bodies.py CHECKOUT OUT_DIR

Runs `nikishin-hp run`, imported from CHECKOUT/src, on the benchmark
workloads smoke, readme-m2, deep-diag-m2 and identities-m4 at seeds 0 and
3 (configs from this repository's benchmark/workloads.py, which is only
read), and writes OUT_DIR/<workload>-s<seed>/ with convergence.csv,
identities.json and zeros.csv (when the run writes one), their timestamp
comment lines removed, and atoms.txt: the nodes and weights of every
generator the config realizes, then those of the inverse measure tau of
sigma_1, one `node weight` line per atom as mpmath `_mpf_` tuples, so an
atom or a gap root that moves by one bit shows directly.  Two
checkouts give the same output exactly when `diff -r OUT_A OUT_B` prints
nothing.  The runs take about 30 s in all.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("smoke", "readme-m2", "deep-diag-m2", "identities-m4")
SEEDS = (0, 3)
REPORTS = ("convergence.csv", "identities.json", "zeros.csv")


def load_workloads():
    path = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_cli(checkout: Path):
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    from nikishin_hp import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"nikishin_hp was imported from {cli.__file__}, not from {src}")
    return cli


def atoms_text(cli, config: dict) -> str:
    """Every generator's sign and (node, weight) pairs as _mpf_ tuples, then tau's of sigma_1."""
    from mpmath import mp

    # the checkout's, as load_cli put it first
    from nikishin_hp.measures import inverse_measure, realize

    parsed = cli.parse_config(config)
    lines = []
    with mp.workprec(parsed.precision_bits):
        generators = [realize(spec) for spec in parsed.system.measures]
        _, tau = inverse_measure(generators[0])
        named = [(f"generator {j}", mu) for j, mu in enumerate(generators, start=1)]
        for name, mu in named + [("tau of generator 1", tau)]:
            if mu is None:
                lines.append(f"{name} empty")
                continue
            lines.append(f"{name} sign {mu.sign}")
            lines += [f"{x._mpf_} {w._mpf_}" for x, w in zip(mu.nodes, mu.weights)]
    return "\n".join(lines) + "\n"


def strip_timestamps(data: bytes) -> bytes:
    return b"".join(l for l in data.splitlines(keepends=True) if not l.startswith(b"#"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/report_bodies.py CHECKOUT OUT_DIR", file=sys.stderr)
        return 2
    checkout, out_dir = Path(argv[0]), Path(argv[1])
    make_config = load_workloads().make_config
    cli = load_cli(checkout)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                run_dir = Path(tmp) / f"{name}-s{seed}"
                config = dict(make_config(name, seed), output_dir=str(run_dir))
                config_path = Path(tmp) / f"{name}-s{seed}.json"
                config_path.write_text(json.dumps(config))
                code = cli.main(["run", str(config_path)])
                status = max(status, code)
                dest = out_dir / f"{name}-s{seed}"
                dest.mkdir(parents=True, exist_ok=True)
                for report in REPORTS:
                    if (run_dir / report).exists():
                        body = strip_timestamps((run_dir / report).read_bytes())
                        (dest / report).write_bytes(body)
                (dest / "atoms.txt").write_text(atoms_text(cli, config))
                print(f"{name} seed {seed}: exit {code}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
