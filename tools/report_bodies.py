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
atom or a gap root that moves by one bit shows directly.  roots.txt does
the same for the pole-attraction census, whose zeros.csv holds only
counts: the perturbation's poles with their multiplicities, then, for
each a_j of each swept index that the census factors, every root that
poly_roots gives, one `_mpc_` tuple per line.  vectors.txt does the same
for what convergence.csv reduces to errors and identities.json to a
maximum: one line per call of the run's solve_type1,
solve_type1_perturbed, solve_type2, check_orthogonality and
first_level_remainder_values, in call order, with the index and every
coefficient, residual, scale or remainder value as an `_mpf_` tuple, so a
coefficient that moves by one bit shows too.  transforms.txt does the same
for the Cauchy transforms behind the printed residuals and errors: every
entry of the run's transform table `s_hat` in sorted key order, one
`key value` line with the value as an `_mpf_` or `_mpc_` tuple, then the
sign and atoms of every chain s_{a,b} with a != b, as atoms.txt writes
them.  Two checkouts give the same output exactly when
`diff -r OUT_A OUT_B` prints nothing.  The runs take about 30 s in all.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from contextlib import contextmanager
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


@contextmanager
def census_roots(cli):
    """While active, the lines of roots.txt for the checkout's pole-attraction census calls.

    cli.pole_attraction is wrapped, and poly_roots too during each census
    call (pole_attraction imports it from algebra when it runs), so only
    the census's roots are recorded.
    """
    from mpmath import mpc

    from nikishin_hp import algebra

    census, factor = cli.pole_attraction, algebra.poly_roots
    lines = []

    def recording(p):
        roots = factor(p)
        lines.extend(str(z._mpc_) for z in roots)
        return roots

    def pole_attraction(pert, v, j, *args):
        if not lines:
            lines.extend(f"pole {mpc(zeta)._mpc_} kappa {kappa}" for zeta, kappa in pert.poles)
        lines.append(f"n {list(v.n.parts)} a_{j}")
        algebra.poly_roots = recording
        try:
            return census(pert, v, j, *args)
        finally:
            algebra.poly_roots = factor

    cli.pole_attraction = pole_attraction
    try:
        yield lines
    finally:
        cli.pole_attraction = census


RECORDED = (
    "solve_type1",
    "solve_type1_perturbed",
    "solve_type2",
    "check_orthogonality",
    "first_level_remainder_values",
)


def recorded_values(name: str, out) -> str:
    """The `_mpf_` values of one result of the cli name `name`.

    A type I vector gives a_0, ..., a_m and a type II vector Q, P_1, ...,
    P_m, one bracketed list per polynomial.
    """
    if name.startswith("solve"):
        polys = (out.q,) + out.p if hasattr(out, "q") else out.a
        return " ".join(str([c._mpf_ for c in p.coeffs]) for p in polys)
    if name == "check_orthogonality":
        return f"{out.max_residual._mpf_} {out.scale._mpf_}"
    return " ".join(str(x._mpf_) for x in out)


@contextmanager
def built_systems(cli):
    """While active, the list of the systems the checkout's cli.build_system returns."""
    build, systems = cli.build_system, []

    def recording(spec):
        systems.append(build(spec))
        return systems[-1]

    cli.build_system = recording
    try:
        yield systems
    finally:
        cli.build_system = build


def transforms_text(systems) -> str:
    """Each system's s_hat entries in sorted key order, then its chains s_{a,b}, a != b.

    A key is (a, b, point, precision), the point an `_mpf_` tuple or an
    `_mpc_` pair; real points sort before complex ones.
    """
    from mpmath import mpc

    def order(key):
        a, b, point, prec = key
        return a, b, isinstance(point[0], tuple), point, prec

    lines = []
    for system in systems:
        for key in sorted(system.s_hat, key=order):
            value = system.s_hat[key]
            lines.append(f"{key} {value._mpc_ if isinstance(value, mpc) else value._mpf_}")
        for (a, b), mu in sorted(system.chains.items()):
            if a != b:
                lines.append(f"chain {a} {b} sign {mu.sign}")
                lines += [f"{x._mpf_} {w._mpf_}" for x, w in zip(mu.nodes, mu.weights)]
    return "\n".join(lines or ["no system"]) + "\n"


@contextmanager
def recorded_vectors(cli):
    """While active, the lines of vectors.txt for the checkout's calls of the RECORDED names.

    Each line holds the name, the index of the vector the call returned or
    read, and recorded_values of its result.
    """
    real = {name: getattr(cli, name) for name in RECORDED}
    lines = []

    def recording(name):
        def call(*args):
            out = real[name](*args)
            v = out if name.startswith("solve") else args[1]
            lines.append(f"{name} n {list(v.n.parts)} {recorded_values(name, out)}")
            return out

        return call

    for name in RECORDED:
        setattr(cli, name, recording(name))
    try:
        yield lines
    finally:
        for name, f in real.items():
            setattr(cli, name, f)


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
                with (
                    census_roots(cli) as roots,
                    recorded_vectors(cli) as vectors,
                    built_systems(cli) as systems,
                ):
                    code = cli.main(["run", str(config_path)])
                status = max(status, code)
                dest = out_dir / f"{name}-s{seed}"
                dest.mkdir(parents=True, exist_ok=True)
                for report in REPORTS:
                    if (run_dir / report).exists():
                        body = strip_timestamps((run_dir / report).read_bytes())
                        (dest / report).write_bytes(body)
                (dest / "atoms.txt").write_text(atoms_text(cli, config))
                (dest / "roots.txt").write_text("\n".join(roots or ["no pole census"]) + "\n")
                (dest / "vectors.txt").write_text("\n".join(vectors or ["no solve"]) + "\n")
                (dest / "transforms.txt").write_text(transforms_text(systems))
                print(f"{name} seed {seed}: exit {code}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
