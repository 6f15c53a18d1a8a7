#!/usr/bin/env python3
"""Benchmark of nikishin-hp: one named workload, one process, one thread.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's `src/`, and nothing is installed.  Each
workload is a closed loop of one caller: a config made from the seed (see
workloads.py) is parsed and the experiment run through the public API
(`parse_config`, `build_system`, `run_experiment`); the next experiment
starts once the previous one has written its reports and they have been
checked.  Every repetition writes into a fresh output directory, so the
moment cache starts cold.

With --trace 0 the run times SETUP_REPS set-ups and then experiments for
--seconds (at least MIN_REPS of them), and reports the end-to-end metrics.
With --trace 1 it runs one untraced and one traced experiment and reports
the per-layer metrics (spans.py) plus the tracing overhead.  Timings are
medians of host-speed-normalized seconds (hostspeed.py).  Both modes check
the program's outputs, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import os

# One thread: pin the BLAS pools before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3
MIN_REPS = 2
# accuracy_digits below these fails the run; README.md gives the measured values
MIN_DIGITS = {"readme-m2": 8, "deep-diag-m2": 35, "identities-m4": 60, "smoke": 5}


def import_package():
    """Import nikishin_hp from this checkout's src/, never from elsewhere."""
    pkg = SRC / "nikishin_hp"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {pkg}")
    sys.path.insert(0, str(SRC))
    import nikishin_hp

    if Path(nikishin_hp.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported nikishin_hp from {nikishin_hp.__file__}, not {pkg}")
    return nikishin_hp


class Checks:
    """Counts output checks; each is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(name)
            print(f"check failed: {name} {detail}".rstrip(), file=sys.stderr)
        return ok


def digits(error, cap):
    """-log10 of a relative error (an mpf), capped at `cap`."""
    from mpmath import mp

    return cap if error == 0 else min(cap, float(-mp.log10(error)))


def body(path):
    """A report's text without its timestamp comment lines."""
    return "\n".join(line for line in path.read_text().splitlines() if not line.startswith("#"))


def read_csv(path):
    lines = body(path).splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Experiment:
    """One workload: its config, the package API, and the report checks."""

    def __init__(self, pkg, name, seed, run_dir):
        from nikishin_hp import cli

        self.pkg, self.cli, self.run_dir = pkg, cli, run_dir
        self.raw = make_config(name, seed)
        self.first_bodies = None
        self.identities = None  # the first repetition's identities.json
        self.solutions = []
        # keep each experiment's type I vectors for the reference comparison
        for attr in ("solve_type1", "solve_type1_perturbed"):
            setattr(cli, attr, self._capturing(getattr(cli, attr)))

    def _capturing(self, fn):
        def solve(*args, **kwargs):
            v = fn(*args, **kwargs)
            self.solutions.append(v)
            return v

        return solve

    def parse(self):
        return self.cli.parse_config(copy.deepcopy(self.raw))

    def setup(self):
        config = self.parse()
        return config, self.pkg.build_system(config.system)

    def run(self, runner=None):
        """One experiment into a fresh directory; returns (result, out_dir)."""
        config = self.parse()
        config.output_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=self.run_dir))
        self.solutions = []
        return (runner or self.cli.run_experiment)(config), config.output_dir

    def check_reports(self, checks, result, out):
        raw = self.raw
        checks("exit code 0", result.exit_code == 0, f"got {result.exit_code}")
        checks("moment cache cold", result.cache_hits == 0, f"{result.cache_hits} hits")
        identities = json.loads((out / "identities.json").read_text())
        for name, entry in sorted(identities["checks"].items()):
            checks(f"identities.json {name} passes", entry.get("pass") is True)
        if self.identities is None:
            self.identities = identities

        pert_degree = sum(len(p["den_coeffs"]) - 1 for p in raw.get("perturbations", []) if p)
        sweep_totals = [r.n.total for r in result.rows]
        if sweep_totals:
            rows = read_csv(out / "convergence.csv")
            data = [r for r in rows if r["abs_n"] != "delta"]
            delta = [r for r in rows if r["abs_n"] == "delta"]
            for col in [c for c in rows[0] if c.startswith("err_")]:
                errs = [float(r[col]) for r in data]
                checks(
                    f"{col} decreases strictly",
                    all(a > b for a, b in zip(errs, errs[1:])),
                    str(errs),
                )
                rate = float(delta[0][col]) if delta and delta[0][col] else math.nan
                checks(f"{col} rate delta < 1", rate < 1, f"delta = {rate}")
        if "sign_changes" in raw["checks"]:
            counts = identities["checks"]["sign_changes"]["counts"]
            need = [t - pert_degree - 1 for t in sweep_totals]
            checks(
                "sign changes reach |n| - deg T - 1",
                all(c >= r for c, r in zip(counts, need)),
                f"{counts} vs {need}",
            )
        if "pole_attraction" in raw["checks"] and pert_degree:
            zeros = read_csv(out / "zeros.csv")
            top = str(max(sweep_totals))
            at_top = [r for r in zeros if r["abs_n"] == top]
            captured = all(r["count"] == r["kappa"] for r in at_top if r["kind"] == "pole")
            strays = sum(int(r["count"]) for r in at_top if r["kind"] == "census")
            checks("each pole captures kappa zeros at the largest index", bool(at_top) and captured)
            checks("no stray zeros at the largest index", strays == 0, f"{strays} strays")

        reports = ("convergence.csv", "identities.json", "zeros.csv")
        bodies = {name: body(out / name) for name in reports if (out / name).exists()}
        if self.first_bodies is None:
            self.first_bodies = bodies
        else:
            checks("report bodies byte-identical across repetitions", bodies == self.first_bodies)
        shutil.rmtree(out)

    def perturbation(self, config):
        if config.perturbation_coeffs is None:
            return None
        pkg = self.pkg
        return pkg.RationalPerturbation(
            [pkg.RationalFn(num, den) for num, den in config.perturbation_coeffs]
        )

    def identity_digits(self, config, system, solutions):
        """min over the identity checks run of -log10(max_residual / scale).

        chile and ratio44 are read from identities.json.  For orthogonality
        and reduction, whose instances are the sweep's solutions,
        identities.json keeps only the solution with the largest absolute
        residual together with that solution's scale, so its ratio is not
        the worst one: the scales fall by about 13 decades per step of the
        deep-diag-m2 sweep while the residuals all sit at rounding level.
        Those two are therefore recomputed here for every solution, with the
        same package functions run_experiment uses.
        """
        from mpmath import mp

        pkg = self.pkg
        pkg.set_precision(config.precision_bits)
        pairs = [
            (mp.mpf(entry["max_residual"]), mp.mpf(entry["scale"]))
            for name, entry in self.identities["checks"].items()
            if name in ("chile", "ratio44")
        ]
        pert = self.perturbation(config)
        for v in solutions:
            target = v
            if pert is not None:
                report = pkg.perturbed_reduce(pert, v, system)
                pairs.append((report.max_residual, report.scale))
                target = report.reduced
            if "orthogonality" in config.checks:
                orth = pkg.check_orthogonality(system, target)
                pairs.append((orth.max_residual, orth.scale))
        cap = config.precision_bits * math.log10(2)
        return min(digits(res / scale, cap) for res, scale in pairs if scale)

    def reference_digits(self, checks, config, system, solutions):
        """Digits of agreement with reference.py at twice the working precision, per quantity."""
        from mpmath import mp

        pkg, raw = self.pkg, self.raw
        P = config.precision_bits
        R = 2 * P
        pkg.set_precision(P)
        for i, (spec, g) in enumerate(zip(raw["system"], system.generators)):
            problems = reference.check_rule(spec, g.nodes, g.weights, g.sign, P)
            checks(f"atoms of generator {i + 1}", not problems, "; ".join(problems))

        grid = pkg.EvalGrid.default(
            system,
            self.perturbation(config),
            radius_factor=mp.mpf(config.grid.get("radius_factor", 4)),
            circle_points=int(config.grid.get("circle_points", 64)),
            segment_points=int(config.grid.get("segment_points", 16)),
        )
        with mp.workprec(R):
            gens = [(g.nodes, [g.sign * w for w in g.weights]) for g in system.generators]
            table = reference.chains(gens)
        per_quantity = {}
        for (j, k) in sorted(table):
            got = [pkg.s_hat_eval(system, j, k, z) for z in grid.points]
            with mp.workprec(R):
                ref = [reference.s_hat(table, j, k, z) for z in grid.points]
                err = max(abs(g - r) / abs(r) for g, r in zip(got, ref))
            per_quantity[f"s_hat_{j}{k}"] = err
        m = system.m
        for v in solutions:
            n = tuple(v.n)
            K = sum(n) + max(n) + 4
            with mp.workprec(R):
                tails = []
                for j in range(1, m + 1):
                    tail = reference.moments(table[(1, j)], K)
                    if config.perturbation_coeffs is not None:
                        num, den = config.perturbation_coeffs[j - 1]
                        if any(c != 0 for c in num):
                            tail = [a + b for a, b in zip(tail, reference.laurent(num, den, K))]
                    tails.append(tail)
                ref = reference.type1(tails, n)
                err = reference.disagreement([list(p.coeffs) for p in v.a], ref)
            per_quantity[f"type1_k{n[0]}" if len(set(n)) == 1 else f"type1_{n}"] = err
        return {q: digits(e, R * math.log10(2)) for q, e in per_quantity.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("smoke",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    speed = HostSpeed()
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    exp = Experiment(pkg, args.workload, args.seed, run_dir)
    metrics = {}
    info = []
    speed.start()
    try:
        # warm-up: every module's code paths and lazy imports, untimed
        warm_cfg = exp.cli.parse_config(make_config("smoke", 0))
        warm_cfg.output_dir = exp.run_dir / "warm-up"
        checks("warm-up exits 0", exp.cli.run_experiment(warm_cfg).exit_code == 0)
        shutil.rmtree(warm_cfg.output_dir)

        setup_s = []
        for _ in range(SETUP_REPS):
            mark = speed.mark()
            config, system = exp.setup()
            setup_s.append(speed.normalized(mark))

        if args.trace == 0:
            times, walls = [], []
            deadline = time.perf_counter() + args.seconds
            while len(times) < MIN_REPS or time.perf_counter() < deadline:
                mark = speed.mark()
                result, out = exp.run()
                net, factor = speed.window(mark)
                times.append(net * factor)
                walls.append(net)
                solutions = exp.solutions
                exp.check_reports(checks, result, out)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            mark = speed.mark()
            result, out = exp.run()
            untraced = speed.normalized(mark)
            solutions = exp.solutions
            exp.check_reports(checks, result, out)
            with Tracer(speed.clock) as tracer:
                mark = speed.mark()
                result, out = exp.run(lambda cfg: tracer.run(exp.cli.run_experiment, cfg))
                net, factor = speed.window(mark)
            exp.check_reports(checks, result, out)
            metrics = tracer.metrics(factor, config.precision_bits)
            metrics["trace.overhead_s"] = (net * factor - untraced, "s")
            info.append(f"traced experiment {net * factor:.3f} s, untraced {untraced:.3f} s")
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        speed.stop()
        shutil.rmtree(exp.run_dir, ignore_errors=True)

    per_digits = exp.reference_digits(checks, config, system, solutions)
    accuracy = min(per_digits.values())
    checks(
        f"accuracy_digits >= {MIN_DIGITS[args.workload]}",
        accuracy >= MIN_DIGITS[args.workload],
        f"got {accuracy:.2f}",
    )
    info += [f"reference digits {q}: {d:.2f}" for q, d in per_digits.items()]
    if args.trace == 0:
        metrics = {
            "experiment_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "accuracy_digits": (accuracy, "digits"),
            "identity_digits": (exp.identity_digits(config, system, solutions), "digits"),
        }
        info.append(f"experiments {len(times)}, normalized s {[round(t, 3) for t in times]}")
        info.append(f"experiments wall s {[round(t, 3) for t in walls]}")
        info.append(f"set-ups normalized s {[round(t, 4) for t in setup_s]}")

    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
