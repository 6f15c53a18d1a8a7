"""Property-based fuzzing of the CLI's exit contract.

The contract is the one README and cli's docstring state: exit 0 or 1 from
the checks, 2 for anything that fails before the first solve, 3 for
anything that fails after it.  Exits 2 and 3 print one JSON error on
stderr and leave no output directory; every exit leaves mp.prec as it was.

The configs are valid ones, drawn over m = 1..3 generators (Legendre,
Jacobi and atoms with weights up to 10^+-20), simple, double and
complex-pair poles, diagonal and explicit sweeps, default and explicit
grids (points on the real axis included) and check subsets, of which some
then take one mutation from a pool of malformed or borderline values
(non-finite numbers and misspelt keys among them, each of which exits 2).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp

from nikishin_hp import cli
from nikishin_hp.cli import KNOWN_CHECKS, main

ERRORS = {2: {"io", "parse", "validate"}, 3: {"numeric"}}
WEIGHTS = ["1", "0.5", "3", "1e20", "1e-20"]
POLES = ["5", "-5", "2.5", "-0.5", "1e3", "-7"]

# one malformed or borderline value per key; a drawn config may take one
MUTATIONS = {
    "precision_bits": [32, "abc", 64.5, None],
    "sweep": [
        [[0, 0]], [[1]], "x", [[-1, 2]], [[3, 0]], [[0, 3]], {"shape": "diagonal", "k_min": 0, "k_max": 2},
        {"shape": "diagonal", "k_min": 1, "k_max": 3, "stpe": 2},
    ],
    "pole_eps": ["nan", "inf", "-inf", -1, 0, 100],
    "checks": ["chile", ["bogus"]],
    "grid": [
        {"points": []}, {"radius_factor": 1}, {"circle_points": -1}, [], {"points": [[0, 0]]},
        {"points": [["inf", 0], [2, "nan"]]}, {"points": [["-inf", 1]]}, {"radius_factor": "inf"},
        {"radius_factor": "nan"}, {"radius_factor": 4, "circle_point": 8}, {"points": [[2, 1]], "radius_factor": 4},
    ],
    "order_deficit": [-1, 2, 0.5],
    "perturbations": [
        [{"num_coeffs": [1], "den_coeffs": [0]}], "x", [None, None, None, None],
        [{"num_coeffs": ["inf"], "den_coeffs": [-5, 1]}], [{"num_coeffs": [1], "den_coeffs": ["nan", 1]}],
        [{"num_coeffs": [1], "den_coeff": [-5, 1]}],
    ],
    "system": [
        [], [{"kind": "legendre-density", "interval": [1, 0], "node_count": 4}],
        [{"kind": "legendre-density", "interval": [0, 1], "node_count": 4, "density_scale": "inf"}],
        [{"kind": "legendre-density", "interval": [0, "-inf"], "node_count": 4}],
        [{"kind": "jacobi-density", "interval": [0, 1], "node_count": 4, "alpha": "inf", "beta": 0}],
        [{"kind": "jacobi-density", "interval": [0, 1], "node_count": 4, "alpha": 0, "beta": "nan"}],
        [{"kind": "atoms", "interval": [0, 1], "nodes": [0.5, "nan"], "weights": [1, 1]}],
        [{"kind": "atoms", "interval": [0, 1], "nodes": [0.5], "weights": ["-inf"]}],
        [{"kind": "legendre-density", "interval": [0, 1], "node_count": 4, "density_scal": 2}],
        [{"kind": "atoms", "interval": [0, 1], "nodes": [0.5], "weights": [1], "sing": -1}],
    ],
    # misspelt keys, which the parser does not read
    "check": [["chile"]],
    "circle_point": [16],
}


@st.composite
def measures(draw, a, b):
    kind = draw(st.sampled_from(["legendre-density", "jacobi-density", "atoms"]))
    if kind == "atoms":
        ticks = draw(st.lists(st.integers(0, 16), min_size=1, max_size=12, unique=True))
        return {
            "kind": "atoms",
            "interval": [a, b],
            "nodes": [a + (b - a) * t / 16 for t in sorted(ticks)],
            "weights": [draw(st.sampled_from(WEIGHTS)) for _ in ticks],
            "sign": draw(st.sampled_from([1, 1, -1])),
        }
    entry = {
        "kind": kind,
        "interval": [a, b],
        "node_count": draw(st.integers(1, 12)),
        "density_scale": draw(st.sampled_from(WEIGHTS + ["-1"])),
    }
    if kind == "jacobi-density":
        entry["alpha"] = draw(st.sampled_from([-0.5, 0, 0.5, 1.5, "-0.7"]))
        entry["beta"] = draw(st.sampled_from([-0.5, 0, 0.5, 2]))
    return entry


@st.composite
def fractions(draw):
    """None, or a proper fraction with a simple, a double or a complex-pair pole."""
    shape = draw(st.sampled_from(["none", "simple", "double", "pair"]))
    if shape == "none":
        return None
    p = float(draw(st.sampled_from(POLES)))
    if shape == "simple":
        den = [-p, 1]
    elif shape == "double":
        den = [p * p, -2 * p, 1]
    else:
        b = draw(st.sampled_from([0.5, 2]))
        den = [p * p + b * b, -2 * p, 1]
    num = draw(st.sampled_from([[1], [1, 1], [2, -1]]))
    return {"num_coeffs": num[: len(den) - 1], "den_coeffs": den}


@st.composite
def configs(draw):
    m = draw(st.integers(1, 3))
    system, left = [], draw(st.sampled_from([-3, -1, 0]))
    for _ in range(m):
        right = left + draw(st.sampled_from([0.5, 1, 2]))
        system.append(draw(measures(left, right)))
        left = right + draw(st.sampled_from([0, 0.5, 1]))
    if draw(st.booleans()):
        k_min = draw(st.integers(1, 5))
        k_max = draw(st.integers(k_min, min(k_min + 4, 9)))
        sweep = {"shape": "diagonal", "k_min": k_min, "k_max": k_max, "step": draw(st.integers(1, 2))}
    else:
        entry = st.lists(st.integers(0, 5), min_size=m, max_size=m).filter(any)
        sweep = draw(st.lists(entry, max_size=3))
    if draw(st.booleans()):
        grid = {
            "radius_factor": draw(st.sampled_from([4, 2, 1.5])),
            "circle_points": draw(st.sampled_from([0, 4, 8, 16])),
            "segment_points": draw(st.sampled_from([0, 1, 4])),
        }
    else:
        point = st.tuples(st.sampled_from([-20, -2, -0.5, 0.5, 1.5, 4, 20]), st.sampled_from([0, 0, 0.1, 3]))
        grid = {"points": [list(p) for p in draw(st.lists(point, min_size=1, max_size=6))]}
    cfg = {
        "precision_bits": draw(st.sampled_from([64, 96, 128])),
        "system": system,
        "perturbations": [draw(fractions()) for _ in range(m)] if draw(st.booleans()) else [],
        "sweep": sweep,
        "grid": grid,
        "checks": draw(st.lists(st.sampled_from(KNOWN_CHECKS), unique=True)),
        "pole_eps": draw(st.sampled_from([0.25, 0.1, 0.01])),
    }
    if draw(st.integers(0, 3)) == 3:
        key = draw(st.sampled_from(sorted(MUTATIONS)))
        cfg[key] = draw(st.sampled_from(MUTATIONS[key]))
    return cfg


def run(cfg):
    """main on cfg in a fresh directory: (exit code, stderr lines, solves, report files or None)."""
    solves = []

    def counted(solve):
        def wrapper(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        return wrapper

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for name in ("solve_type1", "solve_type1_perturbed"):
            patch.setattr(cli, name, counted(getattr(cli, name)))
        out = Path(tmp) / "out"
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(dict(cfg, output_dir=str(out))))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(path)])
        written = sorted(p.name for p in out.iterdir()) if out.exists() else None
    return code, err.getvalue().splitlines(), len(solves), written


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(configs())
def test_exit_contract(cfg):
    prec = mp.prec
    code, lines, solves, written = run(cfg)
    assert mp.prec == prec
    assert code in (0, 1, 2, 3)
    records = [json.loads(line) for line in lines]
    errors = [r for r in records if "error" in r]
    if code in (2, 3):
        assert len(errors) == 1 and errors[0]["error"] in ERRORS[code], records
        assert written is None
    else:
        assert errors == []
        assert written is not None and {"convergence.csv", "identities.json"} <= set(written)
    if code == 2:
        assert solves == 0, records
