"""Batch experiment runner.

Ingests a JSON experiment description, realizes the measures, builds the
system, runs the solver sweep serially, and emits CSV/JSON reports.  Exit
code 0 means every requested check passed its tolerance; check failures exit
1.  The exit status of a failure follows the phase of the run: anything that
fails before the first solve (reading, parsing, validating, building the
system, the perturbation and the grid) exits 2, and any failure after it
exits 3 as numerical, both with a machine-readable JSON error on stderr.

Config schema (numbers may be JSON numbers or decimal strings, and must be
finite; a key the parser does not read, in any section, exits 2):

    {
      "precision_bits": 256,
      "system": [
        {"kind": "legendre-density", "interval": [-1, 0], "node_count": 16,
         "density_scale": 1},
        {"kind": "jacobi-density", "interval": [1, 3], "node_count": 16,
         "alpha": -0.5, "beta": -0.5, "density_scale": 1},
        {"kind": "atoms", "interval": [-1, 1], "nodes": [-1, 1],
         "weights": [0.5, 0.5], "sign": 1}
      ],
      "perturbations": [{"num_coeffs": [1], "den_coeffs": [-5, 1]}, null],
      "sweep": {"shape": "diagonal", "k_min": 4, "k_max": 12, "step": 2},
      "grid": {"radius_factor": 4, "circle_points": 64, "segment_points": 16},
      "checks": ["chile", "ratio44", "orthogonality", "sign_changes",
                 "pole_attraction", "type2"],
      "output_dir": "out",
      "pole_eps": 0.25,
      "order_deficit": 0,
      "max_index_spread": 0
    }

"sweep" may also be an explicit list of multi-indices ([[4,4],[6,6]]) or [];
an entry with n_m = 0, or with any n_j = 0 when pole_attraction runs on a
perturbed system, is refused before the first solve.
"grid" may be {"points": [[re, im], ...]}.  Poles and coefficient lists are
ascending-degree.  The precision is the first of --precision-bits, the
config's precision_bits and NIKISHIN_HP_PRECISION that is set, else the
default; main alone reads the flag and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from mpmath import mp, mpc, mpf

from .algebra import RationalFn
from .analysis import (
    EvalGrid,
    convergence_row,
    estimate_rate,
    pole_attraction,
    sign_changes,
    validate_pole_eps,
)
from .hermite_pade import (
    MultiIndex,
    RationalPerturbation,
    check_orthogonality,
    first_level_remainder_values,
    perturbed_reduce,
    solve_type1,
    solve_type1_perturbed,
    solve_type2,
)
# moments is unused here; benchmark/spans.py still patches cli.moments
from .measures import Interval, MeasureSpec, moments  # noqa: F401
from .nikishin import (
    Residual,
    SystemSpec,
    build_system,
    check_chain_identity,
    check_ratio_identity,
    refuse_sigma1_hat_zeros,
)
from .precision import DEFAULT_PRECISION_BITS, checked_bits, is_integer, noise_floor, working_precision

ENV_PRECISION = "NIKISHIN_HP_PRECISION"
KNOWN_CHECKS = ("chile", "ratio44", "orthogonality", "sign_changes", "pole_attraction", "type2")
# the keys each section of a config may hold; any other key is a config error
CONFIG_KEYS = (
    "precision_bits", "system", "perturbations", "sweep", "grid", "checks",
    "output_dir", "pole_eps", "order_deficit", "max_index_spread",
)
DENSITY_KEYS = ("kind", "interval", "node_count", "density_scale")
MEASURE_KEYS = {
    "atoms": ("kind", "interval", "nodes", "weights", "sign"),
    "legendre-density": DENSITY_KEYS,
    "jacobi-density": DENSITY_KEYS + ("alpha", "beta"),
}
GRID_KEYS = ("points", "radius_factor", "circle_points", "segment_points")


class ConfigError(Exception):
    """A config the run rejects before its first solve (exit 2)."""


def _num(x) -> mpf:
    """A config number: a JSON number or a decimal string, finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ValueError(f"expected a number, got {x!r}")
    x = mpf(x)
    if not mp.isfinite(x):
        raise ValueError(f"expected a finite number, got {x}")
    return x


@dataclass
class ExperimentConfig:
    system: SystemSpec  # carries the working precision
    perturbation_coeffs: Optional[tuple]  # ((num, den) ascending-degree, ...) or None
    sweep: tuple
    grid: dict
    checks: tuple
    output_dir: Path
    pole_eps: mpf
    order_deficit: int = 0
    warnings: tuple = field(default_factory=tuple)

    @property
    def precision_bits(self) -> int:
        return self.system.precision_bits


def _validated(what: str, convert, value):
    """convert(value), with a malformed value reported as a config error."""
    try:
        return convert(value)
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _integer(key: str, value) -> int:
    """An integer config value: a decimal string, parsed by int(), or a
    number that precision.is_integer accepts; a fraction, a bool or any
    other type is a config error."""
    if isinstance(value, str):
        return _validated(key, int, value)
    if not is_integer(value):
        raise ConfigError(f"bad {key}: expected an integer, got {value!r}")
    return int(value)


def _object(what: str, value, keys) -> dict:
    """value, a JSON object whose every key is one of keys; anything else is a config error."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {what}; it takes {', '.join(keys)}")
    return value


def _checks(value) -> tuple:
    """A list of check names, each one of KNOWN_CHECKS."""
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise ConfigError(f"bad checks: expected a list of names, got {value!r}")
    for c in value:
        if c not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check {c!r}; known: {KNOWN_CHECKS}")
    return tuple(value)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate the raw JSON dict into an ExperimentConfig.

    The result depends on raw alone: a missing or null precision_bits is
    DEFAULT_PRECISION_BITS (main resolves the flag and NIKISHIN_HP_PRECISION
    into raw before it calls this).  The numbers are converted at that
    precision, which the SystemSpec carries; mp.prec is left as it was.
    """
    _object("config root", raw, CONFIG_KEYS)
    precision = raw.get("precision_bits")
    if precision is None:
        precision = DEFAULT_PRECISION_BITS
    precision = _validated("precision_bits", checked_bits, _integer("precision_bits", precision))

    warnings = []
    with working_precision(precision):
        system = _validated(
            "system", lambda s: SystemSpec(map(_parse_measure, s), precision), raw.get("system", [])
        )
        m = system.m
        pert_coeffs = _validated(
            "perturbations", lambda p: _parse_perturbations(p, m), raw.get("perturbations", [])
        )
        pole_eps = _validated("pole_eps", _num, raw.get("pole_eps", 0.25))
    sweep = _validated("sweep", lambda s: _parse_sweep(s, m), raw.get("sweep", []))

    spread_cap = raw.get("max_index_spread")
    if spread_cap is not None:
        spread_cap = _integer("max_index_spread", spread_cap)
        for n in sweep:
            if n.spread > spread_cap:
                warnings.append(
                    f"multi-index {tuple(n)} exceeds the declared spread bound "
                    f"{spread_cap}; the ratio limits assume a bounded spread"
                )

    grid = _object("grid", raw.get("grid", {}), GRID_KEYS)
    if "points" in grid:  # the points or the default recipe, not both
        _object("grid with points", grid, ("points",))

    # last two intervals touching undermines the bounded-gap hypothesis
    if m >= 2:
        lo, hi = system.measures[-2].interval.gap(system.measures[-1].interval)
        if lo == hi:
            warnings.append(
                "the last two intervals touch; the ratio limits then require a "
                "moment-growth (determinacy) condition on the last generator"
            )

    return ExperimentConfig(
        system=system,
        perturbation_coeffs=pert_coeffs,
        sweep=sweep,
        grid=grid,
        checks=_checks(raw.get("checks", [])),
        output_dir=_validated("output_dir", Path, raw.get("output_dir", "out")),
        pole_eps=pole_eps,
        order_deficit=_integer("order_deficit", raw.get("order_deficit", 0)),
        warnings=tuple(warnings),
    )


def _parse_perturbations(pert_raw, m: int) -> Optional[tuple]:
    if not pert_raw:
        return None
    if len(pert_raw) != m:
        raise ConfigError("perturbations must list one entry per generator")
    coeffs = []
    for entry in pert_raw:
        if entry is None:  # this component is unperturbed
            entry = {"num_coeffs": [0], "den_coeffs": [1]}
        _object("perturbation entry", entry, ("num_coeffs", "den_coeffs"))
        coeffs.append((tuple(map(_num, entry["num_coeffs"])), tuple(map(_num, entry["den_coeffs"]))))
    return tuple(coeffs)


def _parse_measure(d: dict) -> MeasureSpec:
    kind = d["kind"]
    if kind not in MEASURE_KEYS:
        raise ValueError(f"unknown measure kind {kind!r}")
    _object(f"{kind} system entry", d, MEASURE_KEYS[kind])
    interval = Interval(_num(d["interval"][0]), _num(d["interval"][1]))
    if kind == "atoms":
        return MeasureSpec(
            kind="atoms",
            interval=interval,
            nodes=tuple(_num(x) for x in d["nodes"]),
            weights=tuple(_num(w) for w in d["weights"]),
            sign=_integer("sign", d.get("sign", 1)),
        )
    return MeasureSpec(
        kind=kind,
        interval=interval,
        node_count=_integer("node_count", d["node_count"]),
        alpha=_num(d["alpha"]) if "alpha" in d else None,
        beta=_num(d["beta"]) if "beta" in d else None,
        density_scale=_num(d.get("density_scale", 1)),
    )


def _parse_sweep(sweep_raw, m: int):
    if isinstance(sweep_raw, dict):
        _object("sweep", sweep_raw, ("shape", "k_min", "k_max", "step", "m"))
        if sweep_raw.get("shape") != "diagonal":
            raise ValueError(f"unknown sweep shape {sweep_raw.get('shape')!r}")
        k_min = _integer("k_min", sweep_raw["k_min"])
        k_max = _integer("k_max", sweep_raw["k_max"])
        step = _integer("step", sweep_raw.get("step", 2))
        mm = _integer("m", sweep_raw.get("m", m))
        if mm != m:
            raise ValueError("sweep m does not match the system size")
        if k_min < 1 or step < 1 or k_max < k_min:
            raise ValueError("diagonal sweep requires 1 <= k_min <= k_max and step >= 1")
        return tuple(MultiIndex.diagonal(m, k) for k in range(k_min, k_max + 1, step))
    sweep = tuple(MultiIndex([_integer("sweep", p) for p in entry]) for entry in sweep_raw)
    for n in sweep:
        if len(n) != m:
            raise ValueError(f"multi-index {tuple(n)} does not match the {m}-generator system")
        if n[-1] == 0:
            # every index gets a convergence row, which divides by a_m
            raise ValueError(f"multi-index {tuple(n)} has n_m = 0, so a_m is identically zero")
    return sweep


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    exit_code: int
    passes: dict
    output_dir: Path
    rows: tuple
    elapsed_s: float
    cache_hits: int = 0  # always 0: each run builds a fresh system; benchmark/run.py asserts it


# the significant digits of an identities.json residual or scale: residuals
# sit at the noise level, so their leading digits still move with rounding
RESIDUAL_DIGITS = 3


def _fmt(x, digits=None) -> str:
    """Decimal scientific notation at `digits` significant digits, ceil(0.3 * P) by default."""
    if digits is None:
        digits = max(3, math.ceil(mp.prec * 0.3))
    if x is None:
        return ""
    x = mpf(x)
    if not mp.isfinite(x):
        return "inf" if x > 0 else "-inf"
    return mp.nstr(x, digits, min_fixed=1, max_fixed=0, strip_zeros=False)


def _error_digits(digits, flagged=False) -> int:
    """The significant digits an error prints from a vector of `digits` digits.

    max(1, min(20, floor(digits) - 2)): a printed error has about `digits`
    correct digits, and the margin of 2 keeps its last printed digit clear
    of the rounding noise.  A flagged vector's digits are not trusted, so
    its errors print at most 3.
    """
    count = max(1, min(20, math.floor(digits) - 2))
    return min(3, count) if flagged else count


def _residual_entry(results, fraction, **extra) -> dict:
    """identities.json entry gating results with .max_residual and .scale.

    A result fails when max_residual > noise_floor(fraction) * scale, a
    relative gate at every scale; every scale is a sum or maximum of the
    |terms|, so a zero scale carries a zero residual, which passes.  The
    entry reports the result with the largest max_residual / scale.
    """
    tol = noise_floor(fraction)
    results = list(results)
    ok = all(r.max_residual <= tol * r.scale for r in results)
    worst = max(results, key=lambda r: r.max_residual / r.scale if r.scale else 0, default=Residual(0, 0))
    return {
        "max_residual": _fmt(worst.max_residual, RESIDUAL_DIGITS),
        "scale": _fmt(worst.scale, RESIDUAL_DIGITS),
        "tolerance_fraction": round(fraction, 6),
        "pass": ok,
        **extra,
    }


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    t_start = time.monotonic()
    with working_precision(config.precision_bits):
        for w in config.warnings:
            print(json.dumps({"warning": w}), file=_sys.stderr)

        # setup: whatever fails here is a config error, raised before any solve
        try:
            if config.order_deficit < 0:
                raise ValueError("order_deficit must be nonnegative")
            sys = build_system(config.system)
            pert = None
            if config.perturbation_coeffs is not None:
                pert = RationalPerturbation(
                    [RationalFn(num, den) for num, den in config.perturbation_coeffs]
                )
                if pert.is_zero:
                    pert = None
            if pert is not None:
                if config.order_deficit:
                    # solve_type1_perturbed solves at the full order |n|
                    raise ValueError("order_deficit applies to unperturbed systems only")
                pert.validate_against(sys)
                if "pole_attraction" in config.checks:
                    validate_pole_eps(pert, config.pole_eps, sys.intervals[-1])
                    # the census finds the roots of every a_j
                    for n in config.sweep:
                        if 0 in n:
                            raise ValueError(f"pole_attraction needs every n_j >= 1, got {tuple(n)}")
            grid = _build_grid(config, sys, pert)
        except (ValueError, IndexError) as exc:
            raise ConfigError(str(exc)) from exc
        m = sys.m
        points = grid.points[:24]

        if pert is not None:
            solutions = [solve_type1_perturbed(sys, pert, n) for n in config.sweep]
        else:
            solutions = [solve_type1(sys, n, config.order_deficit) for n in config.sweep]
        rows = [convergence_row(sys, pert, v, grid) for v in solutions]

        checks = {}
        identities = {"precision_bits": config.precision_bits, "checks": checks}

        if "chile" in config.checks:
            results = (check_chain_identity(sys, j, z) for j in range(m) for z in points)
            checks["chile"] = _residual_entry(results, 0.5)

        if "ratio44" in config.checks:
            if m < 2:
                checks["ratio44"] = {"pass": True, "note": "m=1: no ratios"}
            else:
                checks["ratio44"] = _residual_entry(check_ratio_identity(sys, points), 1.0 / 3.0)

        # both remainder checks read plain-system vectors: a perturbed solve
        # through its T-reduction, whose report carries the reduced vector's
        # orthogonality, which a perturbed run always reports
        plain, reports = solutions, None
        if pert is not None:
            reports = [perturbed_reduce(pert, v, sys) for v in solutions]
            plain = [r.reduced for r in reports]
        elif "orthogonality" in config.checks:
            reports = [check_orthogonality(sys, v) for v in solutions]
        if reports is not None:
            checks["orthogonality"] = _residual_entry(reports, 0.5, instances=len(solutions))

        if "sign_changes" in config.checks:
            values = [first_level_remainder_values(sys, v) for v in plain]
            # all noise (A_1 vanishes at every atom at atomic degree): no sign change
            counts = [sign_changes(vals) if any(vals) else 0 for vals in values]
            ok = all(c >= v.order_target - 1 for c, v in zip(counts, plain))
            checks["sign_changes"] = {"counts": counts, "pass": ok}

        zero_rows = []
        if "pole_attraction" in config.checks:
            if pert is None:
                checks["pole_attraction"] = {"pass": True, "note": "no perturbation"}
            else:
                ok = True
                largest = max(solutions, key=lambda v: v.n.total, default=None)
                for v in solutions:
                    for j in range(1, m + 1):
                        rep = pole_attraction(pert, v, j, config.pole_eps, sys.intervals[-1])
                        for zeta, kappa, count in rep.counts:
                            zero_rows.append((v.n, j, zeta, kappa, count))
                            if v is largest and count != kappa:
                                ok = False
                        zero_rows.append((v.n, j, None, None, len(rep.strays)))
                        if v is largest and rep.strays:
                            ok = False
                checks["pole_attraction"] = {
                    "pass": ok,
                    "eps": _fmt(config.pole_eps),
                    "judged_at": list(largest.n) if largest is not None else None,
                }

        if "type2" in config.checks:
            worst_order_gap = 0
            flagged = []
            for n in config.sweep:
                v2 = solve_type2(sys, n)
                for j in range(m):
                    worst_order_gap = max(worst_order_gap, (n[j] + 1) - v2.residual_orders[j])
                if v2.nullity_flag:
                    flagged.append(list(n))
            checks["type2"] = {
                "pass": worst_order_gap <= 0 and not flagged,
                "worst_order_gap": worst_order_gap,
                "instances": len(config.sweep),
            }
            if flagged:
                checks["type2"]["flagged"] = flagged

        # made only now, so a rejected config or a numerical failure leaves none
        config.output_dir.mkdir(parents=True, exist_ok=True)
        _write_convergence_csv(config.output_dir / "convergence.csv", sys, rows)
        (config.output_dir / "identities.json").write_text(
            json.dumps(identities, indent=2, sort_keys=True) + "\n"
        )
        if zero_rows:
            _write_zeros_csv(config.output_dir / "zeros.csv", sys, zero_rows)

        passes = {name: entry["pass"] for name, entry in checks.items()}
        return ExperimentResult(
            exit_code=0 if all(passes.values()) else 1,
            passes=passes,
            output_dir=config.output_dir,
            rows=tuple(rows),
            elapsed_s=time.monotonic() - t_start,
        )


def _build_grid(config: ExperimentConfig, sys, pert) -> EvalGrid:
    """The run's evaluation grid, before any solve.

    Explicit points go through EvalGrid.admissible with pole_eps as the
    clearance, and the default recipe through the same filter with 1/4
    (see EvalGrid.default).  When ratio44 runs, an explicit point where
    sigma_1-hat vanishes is refused (nikishin.refuse_sigma1_hat_zeros);
    those zeros are real and lie in the first interval, where the default
    recipe puts no point.
    """
    g = config.grid
    if "points" in g:
        grid = _validated(
            "grid",
            lambda ps: EvalGrid.admissible(
                sys, pert, [mpc(_num(p[0]), _num(p[1])) for p in ps], config.pole_eps
            ),
            g["points"],
        )
        if "ratio44" in config.checks:
            refuse_sigma1_hat_zeros(sys, grid.points)
        return grid
    return _validated(
        "grid",
        lambda g: EvalGrid.default(
            sys,
            pert,
            _num(g.get("radius_factor", 4)),
            _integer("circle_points", g.get("circle_points", 64)),
            _integer("segment_points", g.get("segment_points", 16)),
        ),
        g,
    )


def _write_csv(path: Path, header, rows):
    """A timestamp comment line, then the header and rows as comma-joined cells."""
    lines = [f"# written {time.strftime('%Y-%m-%dT%H:%M:%S%z')} (timestamp only; body is deterministic)"]
    lines += [",".join(cells) for cells in [header, *rows]]
    path.write_text("\n".join(lines) + "\n")


def _write_convergence_csv(path: Path, sys, rows):
    """One line per row, each error at _error_digits of its vector, then the delta row.

    Each delta prints at the least _error_digits of the rows its rate was
    fitted to.
    """
    m = sys.m
    names = [f"err_{j}" for j in range(1, m)] + ["err_0"]
    header = ["abs_n"] + [f"n_{j}" for j in range(1, m + 1)] + names + ["digits", "flag", "precision_used"]
    lines = []
    for row in rows:
        count = _error_digits(row.digits, row.nullity_flag)
        cells = [str(row.n.total)]
        cells += [str(p) for p in row.n]
        cells += [_fmt(e, count) for e in (*row.err, row.err0)]
        cells += [f"{row.digits:.1f}", "1" if row.nullity_flag else "0", str(row.precision_bits)]
        lines.append(cells)
    try:
        rate = estimate_rate(rows)
    except ValueError:  # fewer than three distinct |n|: no rate
        pass
    else:
        cells = ["delta"] + [""] * m
        for name in names:
            least = rate.digits[name]
            cells.append("" if least is None else _fmt(rate.deltas[name], _error_digits(least)))
        cells += ["", "", ""]
        lines.append(cells)
    _write_csv(path, header, lines)


def _write_zeros_csv(path: Path, sys, zero_rows):
    header = (
        ["abs_n"]
        + [f"n_{j}" for j in range(1, sys.m + 1)]
        + ["component", "kind", "zeta_re", "zeta_im", "kappa", "count"]
    )
    lines = []
    for n, j, zeta, kappa, count in zero_rows:
        cells = [str(n.total)] + [str(p) for p in n] + [str(j)]
        if zeta is None:
            cells += ["census", "", "", "", str(count)]
        else:
            cells += ["pole", _fmt(zeta.real), _fmt(zeta.imag), str(kappa), str(count)]
        lines.append(cells)
    _write_csv(path, header, lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nikishin-hp",
        description="Batch experiments: simultaneous rational approximation of "
        "Cauchy transforms over Nikishin systems, with rational perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment described by a JSON config")
    run.add_argument("config", type=Path)
    run.add_argument("--output-dir", type=Path, default=None)
    # a string, so that the config's integer rule judges it (exit 2 with JSON)
    run.add_argument("--precision-bits", type=str, default=None)
    run.add_argument(
        "--check",
        action="append",
        dest="checks",
        default=None,
        help="override the config's checks (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text()
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        _emit_error("parse", str(exc))
        return 2
    if isinstance(raw, dict):
        # the precision's sources, first to last: the flag, the config,
        # NIKISHIN_HP_PRECISION, and parse_config's default for None
        if args.precision_bits is not None:
            raw["precision_bits"] = args.precision_bits
        elif raw.get("precision_bits") is None:
            raw["precision_bits"] = os.environ.get(ENV_PRECISION)
    try:
        config = parse_config(raw)
        if args.output_dir is not None:
            config.output_dir = args.output_dir
        if args.checks is not None:
            config.checks = _checks(args.checks)
        result = run_experiment(config)
    except ConfigError as exc:
        _emit_error("validate", str(exc))
        return 2
    except (ValueError, IndexError, RuntimeError) as exc:
        # the config was accepted: a failure now is numerical
        _emit_error("numeric", str(exc))
        return 3

    summary = {
        "passes": result.passes,
        "output_dir": str(result.output_dir),
        "elapsed_s": round(result.elapsed_s, 3),
    }
    print(json.dumps(summary, sort_keys=True))
    return result.exit_code


def _emit_error(code: str, detail: str):
    print(json.dumps({"error": code, "detail": detail}), file=_sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
