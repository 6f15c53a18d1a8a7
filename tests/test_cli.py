"""End-to-end CLI runs: config validation, outputs, determinism, exit codes."""

import ast
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from nikishin_hp import (
    EvalGrid,
    RationalFn,
    RationalPerturbation,
    Residual,
    build_system,
    cli,
    hermite_pade,
    noise_floor,
    working_precision,
)
from nikishin_hp.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_smoke"
GOLDEN_M3 = Path(__file__).parent / "data" / "golden_m3"
GOLDEN_README = Path(__file__).parent / "data" / "golden_readme"
GOLDEN_DEEP = Path(__file__).parent / "data" / "golden_deep"
GOLDEN_CLASS = Path(__file__).parent / "data" / "golden_class"
GOLDEN_OFFDIAG = Path(__file__).parent / "data" / "golden_offdiag"
GOLDEN_M3_CLASS = Path(__file__).parent / "data" / "golden_m3_class"
README = Path(__file__).resolve().parent.parent / "README.md"
WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
_spec = importlib.util.spec_from_file_location(
    "_body_digits", Path(__file__).resolve().parent.parent / "tools" / "body_digits.py"
)
BODY_DIGITS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(BODY_DIGITS)


def base_config(out_dir, sweep=None, checks=None, pert=None):
    cfg = {
        "precision_bits": 256,
        "system": [
            {"kind": "legendre-density", "interval": [-1, 0], "node_count": 8},
            {"kind": "legendre-density", "interval": [1, 3], "node_count": 8},
        ],
        "perturbations": pert or [],
        "sweep": sweep if sweep is not None else [[2, 2], [3, 3], [4, 4]],
        "grid": {"radius_factor": 4, "circle_points": 12, "segment_points": 4},
        "checks": checks if checks is not None else ["chile", "ratio44", "orthogonality"],
        "output_dir": str(out_dir),
    }
    return cfg


def golden_smoke_config(out_dir):
    """The small run over every module whose report bodies tests/data/golden_smoke holds."""
    return {
        "precision_bits": 128,
        "system": [
            {"kind": "legendre-density", "interval": [-1, 0], "node_count": 16},
            {"kind": "legendre-density", "interval": [1, 3], "node_count": 16},
        ],
        "perturbations": [
            {"num_coeffs": [1], "den_coeffs": [-5, 1]},
            {"num_coeffs": [1], "den_coeffs": [5, 1]},
        ],
        "sweep": {"shape": "diagonal", "k_min": 3, "k_max": 7, "step": 2},
        "grid": {"radius_factor": 4, "circle_points": 16, "segment_points": 4},
        "checks": ["chile", "ratio44", "orthogonality", "sign_changes", "pole_attraction", "type2"],
        "pole_eps": 0.25,
        "output_dir": str(out_dir),
    }


def golden_class_config(out_dir):
    """The smoke run with r_1 = 1/(z^2 + 4) and r_2 = 1/(z - 0.5); tests/data/golden_class."""
    cfg = golden_smoke_config(out_dir)
    cfg["perturbations"] = [
        {"num_coeffs": [1], "den_coeffs": [4, 0, 1]},
        {"num_coeffs": [1], "den_coeffs": [-0.5, 1]},
    ]
    cfg["pole_eps"] = 0.1
    return cfg


def golden_offdiag_config(out_dir):
    """The smoke run at 256 bits on the indices (k+1, k), k = 2..6; tests/data/golden_offdiag."""
    cfg = dict(golden_smoke_config(out_dir), precision_bits=256)
    cfg["sweep"] = [[k + 1, k] for k in range(2, 7)]
    return cfg


def golden_m3_class_config(out_dir):
    """m=3 at 256 bits with every component perturbed; tests/data/golden_m3_class."""
    cfg = dict(golden_smoke_config(out_dir), precision_bits=256, pole_eps=0.1875)
    cfg["system"] = [
        {"kind": "legendre-density", "interval": [a, b], "node_count": 24}
        for a, b in ((-1, 0), (1, 3), (4, 6))
    ]
    cfg["perturbations"] = [
        {"num_coeffs": [1], "den_coeffs": [3, 1]},
        {"num_coeffs": [1], "den_coeffs": [-3.5, 1]},
        {"num_coeffs": [1], "den_coeffs": [-8, 1]},
    ]
    cfg["sweep"] = {"shape": "diagonal", "k_min": 3, "k_max": 6, "step": 1}
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_body(path):
    """CSV body without the timestamp comment line."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def body_bytes(path):
    """A report's bytes without its timestamp comment line."""
    return b"".join(l for l in path.read_bytes().splitlines(keepends=True) if not l.startswith(b"#"))


def _atoms_first(cfg, nodes=(-0.75, -0.25), weights=(1, 1)):
    cfg["system"][0] = {"kind": "atoms", "interval": [-1, 0], "nodes": list(nodes), "weights": list(weights)}


# every number of a config, each set to a given value on the smoke config
NON_FINITE_FIELDS = {
    "interval": lambda cfg, v: cfg["system"][0].update(interval=[v, 0]),
    "density_scale": lambda cfg, v: cfg["system"][0].update(density_scale=v),
    "alpha": lambda cfg, v: cfg["system"][1].update(kind="jacobi-density", alpha=v, beta=0),
    "beta": lambda cfg, v: cfg["system"][1].update(kind="jacobi-density", alpha=0, beta=v),
    "atom node": lambda cfg, v: _atoms_first(cfg, nodes=(-0.75, v)),
    "atom weight": lambda cfg, v: _atoms_first(cfg, weights=(1, v)),
    "num_coeffs": lambda cfg, v: cfg["perturbations"][0].update(num_coeffs=[v]),
    "den_coeffs": lambda cfg, v: cfg["perturbations"][0].update(den_coeffs=[v, 1]),
    "pole_eps": lambda cfg, v: cfg.update(pole_eps=v),
    "radius_factor": lambda cfg, v: cfg["grid"].update(radius_factor=v),
    "grid point re": lambda cfg, v: cfg.update(grid={"points": [[v, 0], [2, 1]]}),
    "grid point im": lambda cfg, v: cfg.update(grid={"points": [[2, v], [2, 1]]}),
}


# one key the parser does not read per config section: (an edit of the
# smoke config that adds it, the key); were unknown keys ignored, the
# misspelt "check" would run the orthogonality check alone and exit 0
UNKNOWN_KEYS = {
    "top level": (lambda cfg: cfg.update(check=cfg.pop("checks")), "check"),
    "top level circle_point": (lambda cfg: cfg.update(circle_point=16), "circle_point"),
    "atoms entry": (lambda cfg: _atoms_first(cfg) or cfg["system"][0].update(node_count=2), "node_count"),
    "legendre-density entry": (lambda cfg: cfg["system"][0].update(density_scal=2), "density_scal"),
    "legendre-density alpha": (lambda cfg: cfg["system"][0].update(alpha=0), "alpha"),
    "jacobi-density entry": (
        lambda cfg: cfg["system"][1].update(kind="jacobi-density", alpha=0, beta=0, gamma=0),
        "gamma",
    ),
    "perturbation entry": (lambda cfg: cfg["perturbations"][0].update(den_coeff=[1]), "den_coeff"),
    "sweep": (lambda cfg: cfg["sweep"].update(stpe=1), "stpe"),
    "grid": (lambda cfg: cfg["grid"].update(circle_point=8), "circle_point"),
    # the points or the recipe, not both
    "grid with points": (lambda cfg: cfg["grid"].update(points=[[2, 1]]), "radius_factor"),
}


class TestArgumentHandling:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parse"

    def test_output_dir_flag_overrides_the_config(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "from_config", sweep=[[2, 2]], checks=[])
        path = write_config(tmp_path, cfg)
        flagged = tmp_path / "from_flag"
        assert main(["run", str(path), "--output-dir", str(flagged)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["output_dir"] == str(flagged)
        assert sorted(p.name for p in flagged.iterdir()) == ["convergence.csv", "identities.json"]
        assert not (tmp_path / "from_config").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "io"

    def test_unknown_check_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", checks=["nonsense"])
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("grid", {"points": [1, 2]}),
            ("grid", {"circle_points": [3]}),
            ("checks", 5),
            ("perturbations", 5),
            ("order_deficit", [1]),
            ("output_dir", 5),
            ("pole_eps", "abc"),
            ("pole_eps", [1]),
        ],
    )
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, key, value):
        # a malformed value is a config error, not a failed check
        cfg = base_config(tmp_path / "out", sweep=[[2, 2]], checks=[])
        cfg[key] = value
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        # stderr holds JSON lines only, no traceback
        err = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert err[-1]["error"] == "validate"
        if key == "pole_eps":
            assert err[-1]["detail"].startswith("bad pole_eps: ")

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("order_deficit", lambda cfg: cfg.update(order_deficit=1.5)),
            ("node_count", lambda cfg: cfg["system"][0].update(node_count=4.9)),
            ("k_min", lambda cfg: cfg.update(sweep={"shape": "diagonal", "k_min": 2.9, "k_max": 3.9})),
            ("precision_bits", lambda cfg: cfg.update(precision_bits=256.5)),
            ("step", lambda cfg: cfg.update(sweep={"shape": "diagonal", "k_min": 2, "k_max": 3, "step": True})),
        ],
        ids=["order_deficit", "node_count", "k_min", "precision_bits", "step"],
    )
    def test_non_integer_for_an_integer_exits_2(self, tmp_path, capsys, key, edit):
        # int() would truncate 1.5 to 1 and read true as 1
        cfg = base_config(tmp_path / "out", sweep=[[2, 2]], checks=[])
        edit(cfg)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate"
        assert err["detail"].startswith(f"bad {key}: ")

    @pytest.mark.parametrize(
        "value, detail",
        [
            (2.9, "bad k_min: expected an integer, got 2.9"),
            (True, "bad k_min: expected an integer, got True"),
            ([2], "bad k_min: expected an integer, got [2]"),
            ("2.9", "bad k_min: invalid literal for int() with base 10: '2.9'"),
        ],
    )
    def test_non_integer_message(self, tmp_path, capsys, value, detail):
        cfg = base_config(tmp_path / "out", checks=[])
        cfg["sweep"] = {"shape": "diagonal", "k_min": value, "k_max": 3}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "validate", "detail": detail}

    def test_integral_json_numbers_accepted(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep={"shape": "diagonal", "k_min": 2.0, "k_max": 2, "step": 1}, checks=[])
        cfg["precision_bits"] = 128.0
        cfg["system"][0]["node_count"] = 8.0
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert json.loads((out / "identities.json").read_text())["precision_bits"] == 128

    @pytest.mark.parametrize("value", ["chile", ""])
    @pytest.mark.parametrize("override", [[], ["--check", "chile"]], ids=["config", "override"])
    def test_checks_must_be_a_list(self, tmp_path, capsys, value, override):
        # a string is not read as its characters, with or without --check
        cfg = base_config(tmp_path / "out", sweep=[[2, 2]])
        cfg["checks"] = value
        assert main(["run", str(write_config(tmp_path, cfg))] + override) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate"
        assert err["detail"].startswith("bad checks: ")

    def test_system_validation_failure(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["system"][1]["interval"] = [-0.5, 3]  # overlaps the first interval
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def zero_vector(*args, **kwargs):
            raise RuntimeError("nullspace produced the zero vector")

        monkeypatch.setattr(cli, "solve_type2", zero_vector)
        cfg = base_config(tmp_path / "out", sweep=[[2, 2]], checks=["type2"])
        assert main(["run", str(write_config(tmp_path, cfg))]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "numeric", "detail": "nullspace produced the zero vector"}
        assert not (tmp_path / "out").exists()  # no empty output directory

    def test_unresolvable_gap_root_exits_3(self, tmp_path, capsys):
        # sigma_1-hat's zero sits 10^-100 from the atom 1, closer than the
        # inverse measure's P+64 bits resolve
        cfg = base_config(tmp_path / "out", sweep=[], checks=["ratio44"])
        cfg["system"] = [
            {"kind": "atoms", "interval": [0, 1], "nodes": [0, 1], "weights": ["1e100", 1]},
            {"kind": "legendre-density", "interval": [2, 3], "node_count": 4},
        ]
        assert main(["run", str(write_config(tmp_path, cfg))]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {
            "error": "numeric",
            "detail": "inverse measure construction failed; raise precision",
        }
        assert not (tmp_path / "out").exists()

    def test_value_error_after_the_solves_exits_3(self, tmp_path, capsys, monkeypatch):
        # the config was accepted: a ValueError from a check is numerical
        def vanishing(*args, **kwargs):
            raise ValueError("function vanishes on grid")

        monkeypatch.setattr(cli, "sign_changes", vanishing)
        cfg = base_config(tmp_path / "out", sweep=[[2, 2]], checks=["sign_changes"])
        assert main(["run", str(write_config(tmp_path, cfg))]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "numeric", "detail": "function vanishes on grid"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, detail",
        [
            (
                "system",
                [
                    {"kind": "legendre-density", "interval": [-1, 0], "node_count": 16},
                    {"kind": "legendre-density", "interval": [-0.5, 3], "node_count": 16},
                ],
                "overlap",
            ),
            (
                "perturbations",
                [
                    {"num_coeffs": [-5, 1], "den_coeffs": [25, -10, 1]},  # (z-5)/(z-5)^2
                    {"num_coeffs": [1], "den_coeffs": [5, 1]},
                ],
                "reducible",
            ),
            ("order_deficit", 1, "order_deficit applies to unperturbed systems only"),
            ("order_deficit", -1, "order_deficit must be nonnegative"),
        ],
        ids=["overlapping-supports", "reducible-perturbation", "deficit-with-perturbation", "negative-deficit"],
    )
    def test_setup_failure_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch, key, value, detail):
        solved = []

        def recording_solve(*args, **kwargs):
            solved.append(args)
            raise AssertionError("solved before the setup was checked")

        monkeypatch.setattr(cli, "solve_type1", recording_solve)
        monkeypatch.setattr(cli, "solve_type1_perturbed", recording_solve)
        cfg = golden_smoke_config(tmp_path / "out")
        cfg[key] = value
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate" and detail in err["detail"]
        assert solved == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "eps, detail",
        [
            (0, "eps must be positive"),
            (3, "eps exceeds half the pole distance to the last interval"),
            (6, "eps exceeds half the minimal pole separation"),
        ],
    )
    def test_bad_pole_eps_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch, eps, detail):
        solved = []

        def recording_solve(*args, **kwargs):
            solved.append(args)
            raise AssertionError("solved before pole_eps was checked")

        monkeypatch.setattr(cli, "solve_type1_perturbed", recording_solve)
        cfg = golden_smoke_config(tmp_path / "out")  # poles at +-5, last interval [1, 3]
        cfg["pole_eps"] = eps
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "validate", "detail": detail}
        assert solved == []
        assert not (tmp_path / "out").exists()  # no empty output directory

    @pytest.mark.parametrize("section", sorted(UNKNOWN_KEYS))
    def test_a_key_the_parser_does_not_read_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, section
    ):
        solved = []

        def recording_solve(*args, **kwargs):
            solved.append(args)
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(cli, "solve_type1", recording_solve)
        monkeypatch.setattr(cli, "solve_type1_perturbed", recording_solve)
        cfg = golden_smoke_config(tmp_path / "out")
        edit, key = UNKNOWN_KEYS[section]
        edit(cfg)
        prec = mp.prec
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validate"
        assert f"unknown key {key!r}" in err["detail"]
        assert solved == [] and mp.prec == prec
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
    def test_a_number_that_is_not_finite_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        solved = []

        def recording_solve(*args, **kwargs):
            solved.append(args)
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(cli, "solve_type1", recording_solve)
        monkeypatch.setattr(cli, "solve_type1_perturbed", recording_solve)
        cfg = golden_smoke_config(tmp_path / "out")
        NON_FINITE_FIELDS[field](cfg, value)
        prec = mp.prec
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        shown = {"inf": "+inf", "-inf": "-inf", "nan": "nan"}[value]
        assert err["error"] == "validate"
        assert err["detail"].endswith(f"expected a finite number, got {shown}")
        assert solved == [] and mp.prec == prec
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, detail",
        [
            # the radius-2.5 circle crosses the support [1, 3]
            ("radius_factor", 0.5, "radius_factor must exceed 1"),
            ("radius_factor", 0, "radius_factor must exceed 1"),
            ("circle_points", -16, "must be nonnegative"),
            ("segment_points", -4, "must be nonnegative"),
        ],
    )
    def test_default_grid_reaching_the_supports_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, key, value, detail
    ):
        solved = []

        def recording_solve(*args, **kwargs):
            solved.append(args)
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(cli, "solve_type1_perturbed", recording_solve)
        cfg = golden_smoke_config(tmp_path / "out")
        cfg["grid"][key] = value
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate"
        assert err["detail"].startswith("bad grid: ") and detail in err["detail"]
        assert solved == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("point", [[0, 0], ["1e-50", 0], [0, "1e-60"]])
    def test_grid_point_where_sigma1_hat_vanishes_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, point
    ):
        # sigma_1-hat of a Legendre rule on [-1, 1] is 0 at z = 0 by symmetry,
        # and check_ratio_identity divides by it
        solved = []
        monkeypatch.setattr(cli, "solve_type1", lambda *args: solved.append(args))
        cfg = base_config(tmp_path / "out", sweep=[[2, 2]], checks=["ratio44"])
        cfg["system"][0]["interval"] = [-1, 1]
        cfg["system"][1]["interval"] = [2, 3]
        cfg["grid"] = {"points": [point, [5, 1]]}
        prec = mp.prec
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validate" and "sigma_1-hat vanishes" in err["detail"]
        assert solved == [] and mp.prec == prec
        assert not (tmp_path / "out").exists()
        # the other checks never divide by it
        monkeypatch.undo()
        cfg["checks"] = ["chile"]
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0

    def test_default_grid_of_radius_zero_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # one atom at 0: the circle of radius 4 * 0 is the atom itself
        solved = []
        monkeypatch.setattr(cli, "solve_type1", lambda *args: solved.append(args))
        cfg = base_config(tmp_path / "out", sweep=[[1]], checks=[])
        cfg["system"] = [{"kind": "atoms", "interval": [-1, 1], "nodes": [0], "weights": [1]}]
        prec = mp.prec
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validate" and "positive radius" in err["detail"]
        assert solved == [] and mp.prec == prec
        assert not (tmp_path / "out").exists()


class TestEndToEnd:
    def test_small_experiment_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, checks=["chile", "ratio44", "orthogonality", "sign_changes", "type2"])
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert all(summary["passes"].values())

        body = read_body(out / "convergence.csv")
        assert body[0].split(",")[:3] == ["abs_n", "n_1", "n_2"]
        assert len(body) == 1 + 3 + 1  # header, three rows, delta footer
        assert body[-1].startswith("delta,")

        identities = json.loads((out / "identities.json").read_text())
        assert identities["precision_bits"] == 256
        for name in ("chile", "ratio44", "orthogonality", "sign_changes", "type2"):
            assert identities["checks"][name]["pass"] is True
        assert sorted(p.name for p in out.iterdir()) == ["convergence.csv", "identities.json"]

    def test_diagonal_sweep_emits_expected_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep={"shape": "diagonal", "k_min": 2, "k_max": 4, "step": 2}, checks=[])
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        body = read_body(out / "convergence.csv")
        assert len(body) == 1 + 2  # two rows, no footer below three rows

    def test_explicit_grid_points(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=["chile"])
        cfg["grid"] = {"points": [[0.5, 2.0], [-1.0, 3.0]]}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0

    def test_explicit_grid_on_support_rejected(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=["chile"])
        cfg["grid"] = {"points": [[2.0, 0.0]]}  # on the last interval
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2

    def test_explicit_grid_points_on_an_atom_are_dropped(self, tmp_path, capsys):
        # the 7-node Legendre rule on [-1, 0] has an atom at -0.5, where no
        # Cauchy transform of the system can be evaluated
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=["chile", "ratio44"])
        cfg["system"][0]["node_count"] = 7
        cfg["grid"] = {"points": [[-0.5, 0], [10, 1], [5, 5]]}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        cfg["grid"] = {"points": [[-0.5, 0]]}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate" and "atom" in err["detail"]

    def test_explicit_grid_points_on_a_pole_are_dropped(self, tmp_path, capsys):
        # pole_eps 0 keeps points near the pole at 5, but not the one on it,
        # where the ratio targets divide by zero
        out = tmp_path / "out"
        pert = [{"num_coeffs": [1], "den_coeffs": [-5, 1]}, None]
        cfg = base_config(out, sweep=[[2, 2]], checks=["chile"], pert=pert)
        cfg["pole_eps"] = 0
        cfg["grid"] = {"points": [[5, 0], [10, 1]]}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        cfg["grid"] = {"points": [[5, 0]]}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate" and "pole" in err["detail"]

    def test_perturbed_run_writes_zero_census(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            sweep=[[4, 4]],
            checks=["pole_attraction"],
            pert=[
                {"num_coeffs": [1], "den_coeffs": [-5, 1]},
                {"num_coeffs": [1], "den_coeffs": [5, 1]},
            ],
        )
        code = main(["run", str(write_config(tmp_path, cfg))])
        zeros = read_body(out / "zeros.csv")
        assert zeros[0].split(",")[:4] == ["abs_n", "n_1", "n_2", "component"]
        assert any("census" in line for line in zeros[1:])
        assert any("pole" in line for line in zeros[1:])
        identities = json.loads((out / "identities.json").read_text())
        assert "orthogonality" in identities["checks"]  # always reported with a perturbation
        assert code in (0, 1)  # attraction may legitimately fail at small |n|

    def test_failing_check_exits_1(self, tmp_path):
        out = tmp_path / "out"
        # at n=(1,1) the poles cannot have captured zeros yet
        cfg = base_config(
            out,
            sweep=[[1, 1]],
            checks=["pole_attraction"],
            pert=[
                {"num_coeffs": [1], "den_coeffs": [-5, 1]},
                {"num_coeffs": [1], "den_coeffs": [5, 1]},
            ],
        )
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1

    @pytest.mark.parametrize(
        "residual, scale, above",
        [
            (2**64, 1, True),
            (1, 1, False),
            # below a scale of 1 the gate stays relative: one against
            # max(scale, 1) would pass this residual
            (2 * 2**-10, 2**-10, True),
            (2**-10, 2**-10, False),
            (0, 0, False),
        ],
    )
    def test_residual_gate_is_strict(self, tmp_path, monkeypatch, residual, scale, above):
        # a residual (in units of noise_floor(0.5)) above noise_floor(0.5) *
        # scale fails the run; one equal to it passes, and so does a zero
        # residual at a zero scale
        def fixed_residual(sys, j, z):
            return Residual(residual * noise_floor(0.5), mpf(scale))

        monkeypatch.setattr(cli, "check_chain_identity", fixed_residual)
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=["chile"])
        assert main(["run", str(write_config(tmp_path, cfg))]) == (1 if above else 0)
        entry = json.loads((out / "identities.json").read_text())["checks"]["chile"]
        assert entry["pass"] is not above

    def test_ratio_identity_at_m1_has_no_ratios(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[3]], checks=["ratio44"])
        cfg["system"] = cfg["system"][:1]
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        checks = json.loads((out / "identities.json").read_text())["checks"]
        assert checks == {"ratio44": {"pass": True, "note": "m=1: no ratios"}}

    def test_all_null_perturbations_run_the_plain_system(self, tmp_path):
        checks = ["chile", "ratio44", "orthogonality", "sign_changes", "type2"]
        plain = base_config(tmp_path / "plain", sweep=[[2, 2], [3, 3]], checks=checks)
        null = base_config(tmp_path / "null", sweep=[[2, 2], [3, 3]], checks=checks, pert=[None, None])
        assert main(["run", str(write_config(tmp_path, plain, "plain.json"))]) == 0
        assert main(["run", str(write_config(tmp_path, null, "null.json"))]) == 0
        for name in ("convergence.csv", "identities.json"):
            assert body_bytes(tmp_path / "null" / name) == body_bytes(tmp_path / "plain" / name), name
        identities = json.loads((tmp_path / "null" / "identities.json").read_text())
        assert set(identities["checks"]) == set(checks)
        assert not (tmp_path / "null" / "zeros.csv").exists()

    def test_pole_attraction_without_a_perturbation(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=["pole_attraction"])
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        checks = json.loads((out / "identities.json").read_text())["checks"]
        assert checks == {"pole_attraction": {"pass": True, "note": "no perturbation"}}
        assert not (out / "zeros.csv").exists()

    def test_type2_fails_on_a_nullity_flag(self, tmp_path):
        # on 4+4 atoms the order conditions at (3,3), (5,5) and (7,7)
        # outnumber the atoms, so every type II solve sets its nullity flag
        # although it meets its orders
        out = tmp_path / "out"
        cfg = golden_smoke_config(out)
        for spec in cfg["system"]:
            spec["node_count"] = 4
        cfg["checks"] = ["type2"]
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1
        entry = json.loads((out / "identities.json").read_text())["checks"]["type2"]
        assert entry["worst_order_gap"] == 0
        assert entry["flagged"] == [[3, 3], [5, 5], [7, 7]]
        assert entry["pass"] is False


class TestConfigWarnings:
    def test_index_spread_warning(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[1, 5]], checks=[])
        cfg["max_index_spread"] = 1
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert "spread" in capsys.readouterr().err

    def test_touching_last_intervals_warning(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        cfg["system"][1]["interval"] = [0, 2]  # touches the first interval at 0
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert "touch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "first, last, warned",
        [([0, 2], [-1, 0], True), ([-1, 0], [1, 3], False), ([1, 3], [-1, 0], False)],
    )
    def test_touching_warning_either_way_round(self, tmp_path, capsys, first, last, warned):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        cfg["system"][0]["interval"] = first
        cfg["system"][1]["interval"] = last
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert ("touch" in capsys.readouterr().err) == warned

    def test_wrong_length_sweep_entry_rejected(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2, 2]], checks=[])
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2

    def test_order_deficit_with_perturbation_rejected(self, tmp_path, capsys):
        # the perturbed solver takes no deficit, so the pair must not run
        cfg = base_config(
            tmp_path / "out",
            sweep=[[4, 4]],
            checks=["sign_changes"],
            pert=[{"num_coeffs": [1], "den_coeffs": [-5, 1]}, None],
        )
        cfg["order_deficit"] = 3
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate"
        assert "order_deficit" in err["detail"]


class TestDeterminism:
    def test_identical_bodies_across_runs(self, tmp_path):
        cfg1 = base_config(tmp_path / "out1", sweep=[[2, 2], [3, 3]], checks=["chile"])
        cfg2 = base_config(tmp_path / "out2", sweep=[[2, 2], [3, 3]], checks=["chile"])
        assert main(["run", str(write_config(tmp_path, cfg1, "a.json"))]) == 0
        assert main(["run", str(write_config(tmp_path, cfg2, "b.json"))]) == 0
        assert read_body(tmp_path / "out1" / "convergence.csv") == read_body(
            tmp_path / "out2" / "convergence.csv"
        )
        assert (tmp_path / "out1" / "identities.json").read_text() == (
            tmp_path / "out2" / "identities.json"
        ).read_text()


def assert_golden(out, golden, names):
    """convergence.csv and zeros.csv byte for byte; identities.json by tools/body_digits.py's rule.

    That rule requires every field to be the stored one but each
    max_residual and scale, which must stay within a factor 2^8 of the
    stored value, and each max_residual within its own gate.
    """
    for name in names:
        if name == "identities.json":
            BODY_DIGITS.compare_identities(golden.name, golden / name, out / name)
        else:
            assert body_bytes(out / name) == (golden / name).read_bytes(), name


class TestGoldenBodies:
    """Each golden run's report bodies, as assert_golden compares them.

    convergence.csv and identities.json were reprinted once at the digits
    each row holds (cli._error_digits, 3 for a residual or scale), from
    the values they held before; tools/body_digits.py shows every printed
    digit the same.  The residuals and scales are compared by ratio: the
    Cauchy pass is exact only to its error bound, and a residual at the
    rounding level moves with the rounding (by at most a factor 2^2.54,
    golden_m3_class's chile, when the pass moved from correctly rounded
    terms to its error bound).
    """

    @pytest.fixture(autouse=True)
    def mpmath_default_precision(self):
        # each run starts from mpmath's default 53 bits: the bytes must not
        # depend on the precision the caller left set, and the run must
        # leave it as it was
        mp.prec = 53
        yield
        assert mp.prec == 53

    def test_smoke_bodies_match_stored_bytes(self, tmp_path):
        # the report bodies of a small run over every module, stored as
        # written when the type I solve moved from the SVD to the order
        # basis, and convergence.csv again when the convergence rows moved
        # from Horner to power rows: any change of the output bits shows here
        out = tmp_path / "out"
        cfg = golden_smoke_config(out)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert_golden(out, GOLDEN, ("convergence.csv", "identities.json", "zeros.csv"))

    def test_m3_bodies_match_stored_bytes(self, tmp_path):
        # m=3 pins k=2 and k=3 of the ratio identity and the two ratio
        # limits of every row; stored as written when the type I solve moved
        # from the SVD to the order basis, convergence.csv again when the
        # rows moved to power rows
        out = tmp_path / "out"
        cfg = {
            "precision_bits": 128,
            "system": [
                {"kind": "legendre-density", "interval": [-1, 0], "node_count": 16},
                {"kind": "legendre-density", "interval": [1, 3], "node_count": 16},
                {"kind": "legendre-density", "interval": [4, 6], "node_count": 16},
            ],
            "perturbations": [
                {"num_coeffs": [1], "den_coeffs": [-8, 1]},
                None,
                {"num_coeffs": [1], "den_coeffs": [8, 1]},
            ],
            "sweep": {"shape": "diagonal", "k_min": 2, "k_max": 4, "step": 1},
            "grid": {"radius_factor": 4, "circle_points": 16, "segment_points": 4},
            "checks": ["chile", "ratio44"],
            "output_dir": str(out),
        }
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert_golden(out, GOLDEN_M3, ("convergence.csv", "identities.json"))

    def test_readme_bodies_match_stored_bytes(self, tmp_path):
        # the README example verbatim: type I and type II up to |n| = 24 and
        # the roots of degree-11 a_j, beyond the smoke run's k <= 7; stored
        # as written when the type I solve moved from the SVD to the order
        # basis, convergence.csv again when the rows moved to power rows
        out = tmp_path / "out"
        (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        cfg = dict(json.loads(block), output_dir=str(out))
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert_golden(out, GOLDEN_README, ("convergence.csv", "identities.json", "zeros.csv"))

    def test_deep_diag_bodies_match_stored_bytes(self, tmp_path):
        # the benchmark's deep-diag-m2 config at seed 0 with its sweep cut
        # to k = 4..8: the unperturbed solve_type1 on 64+64 Chebyshev atoms
        # at 512 bits, which no other golden run reaches; stored as written
        # when the type I solve moved from the SVD to the order basis,
        # convergence.csv again when the rows moved to power rows
        spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        out = tmp_path / "out"
        cfg = dict(workloads.make_config("deep-diag-m2", 0), output_dir=str(out))
        cfg["sweep"] = dict(cfg["sweep"], k_min=4, k_max=8, step=2)
        assert "perturbations" not in cfg
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert_golden(out, GOLDEN_DEEP, ("convergence.csv", "identities.json"))

    def test_class_bodies_match_stored_bytes(self, tmp_path):
        # the rest of the paper's class: r_1 = 1/(z^2 + 4) has the conjugate
        # poles +-2i and r_2 = 1/(z - 0.5) a pole in the gap between the
        # supports; at k = 7 each pole has captured one zero of a_1 and one
        # of a_2 with no strays.  Stored as written when the type I solve
        # moved from the SVD to the order basis, convergence.csv again when
        # the rows moved to power rows
        out = tmp_path / "out"
        cfg = golden_class_config(out)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert_golden(out, GOLDEN_CLASS, ("convergence.csv", "identities.json", "zeros.csv"))

    def test_offdiag_bodies_match_stored_bytes(self, tmp_path):
        # the nested indices (k+1, k), k = 2..6, at 256 bits: every check
        # passes, and delta is 0.442 (err_1) and 0.515 (err_0).  Every
        # printed error agrees with a 512-bit run to 52 digits
        out = tmp_path / "out"
        cfg = golden_offdiag_config(out)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert_golden(out, GOLDEN_OFFDIAG, ("convergence.csv", "identities.json", "zeros.csv"))

    def test_m3_class_bodies_match_stored_bytes(self, tmp_path):
        # m=3 with every component perturbed, r = (1/(z+3), 1/(z-3.5),
        # 1/(z-8)), the pole at 3.5 in the gap beside [1, 3]: at k = 6 every
        # pole captures one zero of each a_j with no strays, and every
        # printed error agrees with a 512-bit run to 29 digits
        out = tmp_path / "out"
        cfg = golden_m3_class_config(out)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert_golden(out, GOLDEN_M3_CLASS, ("convergence.csv", "identities.json", "zeros.csv"))

    @pytest.fixture(scope="class")
    def full_smoke_checks(self, tmp_path_factory):
        """The identities.json checks of one full smoke run."""
        tmp = tmp_path_factory.mktemp("full")
        mp.prec = 53
        assert main(["run", str(write_config(tmp, golden_smoke_config(tmp / "out")))]) == 0
        return json.loads((tmp / "out" / "identities.json").read_text())["checks"]

    @pytest.mark.parametrize("check", cli.KNOWN_CHECKS)
    def test_each_check_alone_matches_the_full_run(self, tmp_path, check, full_smoke_checks):
        # a check run on its own reports what it reports beside the other
        # five: no check depends on another having run first
        out = tmp_path / "out"
        cfg = golden_smoke_config(out)
        assert main(["run", str(write_config(tmp_path, cfg)), "--check", check]) == 0
        got = json.loads((out / "identities.json").read_text())["checks"][check]
        assert got == full_smoke_checks[check]


def identities_file(path, residual, scale="2.59", passed=True):
    entry = {"max_residual": residual, "pass": passed, "scale": scale, "tolerance_fraction": 0.5}
    path.write_text(json.dumps({"checks": {"chile": entry}, "precision_bits": 128}))
    return path


class TestBodyDigitsRule:
    """tools/body_digits.py, which assert_golden applies to identities.json."""

    def test_printed_digits_match_the_longer_value(self):
        match = BODY_DIGITS.printed_match
        assert match("5.0193185e-3", "5.0193185264250989120389709300882808e-3") == "=8"
        assert match("1.00e+1", "9.996") == "=3"  # rounding carries to 10
        assert match("5.0193186e-3", "5.0193185264250989120389709300882808e-3") == "7.8"

    @pytest.mark.parametrize("factor, ok", [(1, True), (2**-7.9, True), (2**7.9, True), (2**8.1, False), (2**-8.1, False)])
    def test_residuals_and_scales_move_by_at_most_2_to_the_8(self, tmp_path, factor, ok):
        stored = identities_file(tmp_path / "a.json", "1.18e-38")
        for moved in (f"{1.18e-38 * factor:.3g}", None):
            got = identities_file(tmp_path / "b.json", moved or "1.18e-38", f"{2.59 * factor:.3g}" if not moved else "2.59")
            if ok:
                BODY_DIGITS.compare_identities("x", stored, got)
            else:
                with pytest.raises(BODY_DIGITS.Mismatch, match="beyond 2\\^8"):
                    BODY_DIGITS.compare_identities("x", stored, got)

    def test_a_residual_above_its_gate_fails(self, tmp_path):
        # the gate is 2^-64 scale at 128 bits: 1.40e-19 for a scale of 2.59
        stored = identities_file(tmp_path / "a.json", "1.39e-19")
        BODY_DIGITS.compare_identities("x", stored, identities_file(tmp_path / "b.json", "1.40e-19"))
        with pytest.raises(BODY_DIGITS.Mismatch, match="above its gate"):
            BODY_DIGITS.compare_identities("x", stored, identities_file(tmp_path / "b.json", "1.41e-19"))

    def test_a_reduction_entry_stands_for_the_orthogonality_entry(self, tmp_path):
        # the parent's reduction entry read the tail sums that orthogonality
        # reads now; its atom-route orthogonality entry is not compared
        def entry(residual, scale):
            return {"instances": 5, "max_residual": residual, "pass": True, "scale": scale, "tolerance_fraction": 0.5}

        parent = {"orthogonality": entry("1.61e-58", "3.53e-31"), "reduction": entry("1.61e-58", "3.58e+1")}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"checks": parent, "precision_bits": 256}))
        b.write_text(json.dumps({"checks": {"orthogonality": entry("1.61e-58", "3.58e+1")}, "precision_bits": 256}))
        assert BODY_DIGITS.compare_identities("x", a, b) == ["x identities.json orthogonality: max_residual = scale ="]
        b.write_text(json.dumps({"checks": {"orthogonality": entry("1.61e-58", "3.53e-31")}, "precision_bits": 256}))
        with pytest.raises(BODY_DIGITS.Mismatch, match="scale moved beyond 2\\^8"):
            BODY_DIGITS.compare_identities("x", a, b)

    def test_every_other_field_must_be_equal(self, tmp_path):
        stored = identities_file(tmp_path / "a.json", "1.18e-38")
        with pytest.raises(BODY_DIGITS.Mismatch, match="pass differs"):
            BODY_DIGITS.compare_identities("x", stored, identities_file(tmp_path / "b.json", "1.18e-38", passed=False))


class TestPrecisionResolution:
    def test_env_var_is_last_resort(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        del cfg["precision_bits"]
        path = write_config(tmp_path, cfg)
        monkeypatch.setenv("NIKISHIN_HP_PRECISION", "128")
        assert main(["run", str(path)]) == 0
        identities = json.loads((out / "identities.json").read_text())
        assert identities["precision_bits"] == 128

    def test_default_without_config_or_env(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        del cfg["precision_bits"]
        monkeypatch.delenv("NIKISHIN_HP_PRECISION", raising=False)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        identities = json.loads((out / "identities.json").read_text())
        assert identities["precision_bits"] == cli.DEFAULT_PRECISION_BITS == 256

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        del cfg["precision_bits"]
        path = write_config(tmp_path, cfg)
        monkeypatch.setenv("NIKISHIN_HP_PRECISION", "128")
        assert main(["run", str(path), "--precision-bits", "192"]) == 0
        identities = json.loads((out / "identities.json").read_text())
        assert identities["precision_bits"] == 192

    def test_config_overrides_env(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        cfg["precision_bits"] = 192
        monkeypatch.setenv("NIKISHIN_HP_PRECISION", "128")
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert json.loads((out / "identities.json").read_text())["precision_bits"] == 192

    def test_null_config_bits_take_the_env(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        cfg["precision_bits"] = None
        monkeypatch.setenv("NIKISHIN_HP_PRECISION", "128")
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert json.loads((out / "identities.json").read_text())["precision_bits"] == 128

    def test_parse_config_reads_no_environment(self, tmp_path, monkeypatch):
        # main alone resolves the environment; parse_config depends on its
        # argument alone
        cfg = base_config(tmp_path / "out")
        del cfg["precision_bits"]
        monkeypatch.setenv("NIKISHIN_HP_PRECISION", "128")
        assert cli.parse_config(cfg).precision_bits == cli.DEFAULT_PRECISION_BITS
        monkeypatch.setenv("NIKISHIN_HP_PRECISION", "")
        assert cli.parse_config(cfg).precision_bits == cli.DEFAULT_PRECISION_BITS

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_empty_bits_exit_2(self, tmp_path, monkeypatch, capsys, source):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        del cfg["precision_bits"]
        flag = []
        if source == "flag":
            flag = ["--precision-bits", ""]
        else:
            monkeypatch.setenv("NIKISHIN_HP_PRECISION", "")
        assert main(["run", str(write_config(tmp_path, cfg))] + flag) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {
            "error": "validate",
            "detail": "bad precision_bits: invalid literal for int() with base 10: ''",
        }
        assert not out.exists()

    def test_the_bits_live_on_the_system_spec(self, tmp_path):
        config = cli.parse_config(base_config(tmp_path / "out"))
        assert "precision_bits" not in {f.name for f in dataclasses.fields(config)}
        assert config.precision_bits == config.system.precision_bits == 256

    @pytest.mark.parametrize("source", ["config", "flag", "env"])
    def test_below_64_bits_exits_2_before_any_solve(self, tmp_path, monkeypatch, capsys, source):
        solved = []

        def recording_solve(*args, **kwargs):
            solved.append(args)
            raise AssertionError("solved at a rejected precision")

        monkeypatch.setattr(cli, "solve_type1_perturbed", recording_solve)
        out = tmp_path / "out"
        cfg = golden_smoke_config(out)  # perturbed, at 128 bits
        flag = []
        if source == "config":
            cfg["precision_bits"] = 32
        elif source == "flag":
            flag = ["--precision-bits", "32"]  # overrides the config's 128
        else:
            del cfg["precision_bits"]
            monkeypatch.setenv("NIKISHIN_HP_PRECISION", "32")
        mp.prec = 53
        assert main(["run", str(write_config(tmp_path, cfg))] + flag) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {
            "error": "validate",
            "detail": "bad precision_bits: working precision must be >= 64 bits, got 32",
        }
        assert solved == []
        assert not out.exists()
        assert mp.prec == 53

    @pytest.mark.parametrize("value", ["abc", "128.5", ""])
    def test_non_integer_flag_exits_2_with_json(self, tmp_path, capsys, value):
        # the flag goes through the config's integer rule, not argparse's
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        assert main(["run", str(write_config(tmp_path, cfg)), "--precision-bits", value]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate"
        assert err["detail"].startswith("bad precision_bits: ")
        assert not out.exists()

    def test_check_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=["chile", "ratio44"])
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--check", "chile"]) == 0
        identities = json.loads((out / "identities.json").read_text())
        assert "chile" in identities["checks"]
        assert "ratio44" not in identities["checks"]


def _exit_0(out, monkeypatch):
    return base_config(out, sweep=[[2, 2]], checks=["chile"])


def _exit_1(out, monkeypatch):
    # at n=(1,1) the poles cannot have captured zeros yet
    pert = [{"num_coeffs": [1], "den_coeffs": [-5, 1]}, {"num_coeffs": [1], "den_coeffs": [5, 1]}]
    return base_config(out, sweep=[[1, 1]], checks=["pole_attraction"], pert=pert)


def _exit_2_parsing(out, monkeypatch):
    cfg = base_config(out, sweep=[[2, 2]], checks=[])
    cfg["system"][0]["interval"] = [0, -1]  # reversed endpoints
    return cfg


def _exit_2_building(out, monkeypatch):
    cfg = base_config(out, sweep=[[2, 2]], checks=[])
    cfg["system"][1]["interval"] = [-0.5, 3]  # overlaps the first interval
    return cfg


def _exit_3(out, monkeypatch):
    def zero_vector(*args, **kwargs):
        raise RuntimeError("nullspace produced the zero vector")

    monkeypatch.setattr(cli, "solve_type1", zero_vector)
    return base_config(out, sweep=[[2, 2]], checks=[])


EXITS = [(_exit_0, 0), (_exit_1, 1), (_exit_2_parsing, 2), (_exit_2_building, 2), (_exit_3, 3)]
EXIT_IDS = ["exit-0", "exit-1", "exit-2-parsing", "exit-2-building", "exit-3"]


class TestAmbientPrecisionUnchanged:
    """No entry point leaves mp.prec changed, whatever the exit."""

    @pytest.mark.parametrize("make, code", EXITS, ids=EXIT_IDS)
    def test_main(self, tmp_path, monkeypatch, capsys, make, code):
        path = write_config(tmp_path, make(tmp_path / "out", monkeypatch))
        mp.prec = 53
        assert main(["run", str(path)]) == code
        assert mp.prec == 53

    @pytest.mark.parametrize("make, code", EXITS, ids=EXIT_IDS)
    def test_parse_build_and_run(self, tmp_path, monkeypatch, make, code):
        cfg = make(tmp_path / "out", monkeypatch)
        mp.prec = 53
        try:
            config = cli.parse_config(cfg)
        except cli.ConfigError:
            assert (mp.prec, code) == (53, 2)
            return
        assert mp.prec == 53
        try:
            cli.build_system(config.system)
        except ValueError:
            assert code == 2
        assert mp.prec == 53
        try:
            got = cli.run_experiment(config).exit_code
        except cli.ConfigError:
            got = 2
        except RuntimeError:
            got = 3
        assert (mp.prec, got) == (53, code)


class TestDependencies:
    def test_a_full_run_never_imports_numpy(self, tmp_path):
        # the smoke run reaches every module, the lazy imports of
        # run_experiment and pole_attraction included
        path = write_config(tmp_path, golden_smoke_config(tmp_path / "out"))
        code = (
            "import sys\n"
            "from nikishin_hp.cli import main\n"
            f"assert main(['run', {str(path)!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr


def default_recipe_before(sys, pert, radius_factor, circle_points, segment_points):
    """The reference: EvalGrid.default's points as they were built before
    the grids shared EvalGrid.admissible, the candidates less the points
    within 1/4 of a pole."""
    poles = pert.poles if pert is not None else ()
    outer = max([sys.outer_radius] + [abs(zeta) for zeta, _ in poles])
    radius = mpf(radius_factor) * outer
    pts = [radius * mp.expjpi(2 * mpf(k) / circle_points) for k in range(circle_points)]
    lo, hi = sys.intervals[0].gap(sys.intervals[-1])
    if lo < hi and segment_points > 0:
        span = hi - lo
        if segment_points == 1:
            pts.append(mpc(lo + span / 2, mpf("0.1")))
        else:
            for i in range(segment_points):
                t = mpf("0.1") + mpf("0.8") * i / (segment_points - 1)
                pts.append(mpc(lo + t * span, mpf("0.1")))
    return [z for z in pts if all(abs(z - zeta) >= mpf("0.25") for zeta, _ in poles)]


def _workload_config(name, seed):
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return lambda out: dict(workloads.make_config(name, seed), output_dir=str(out))


def _readme_config(out):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return dict(json.loads(block), output_dir=str(out))


def _golden_m3_config(out):
    # the system, perturbation and grid of test_m3_bodies_match_stored_bytes
    cfg = golden_smoke_config(out)
    cfg["system"] = [
        {"kind": "legendre-density", "interval": [a, b], "node_count": 16}
        for a, b in ((-1, 0), (1, 3), (4, 6))
    ]
    cfg["perturbations"] = [
        {"num_coeffs": [1], "den_coeffs": [-8, 1]},
        None,
        {"num_coeffs": [1], "den_coeffs": [8, 1]},
    ]
    return cfg


class TestOneGridFilter:
    """Both grids keep their points through EvalGrid.admissible."""

    @pytest.mark.parametrize(
        "make",
        [
            _workload_config(name, seed)
            for name in ("smoke", "readme-m2", "deep-diag-m2", "identities-m4")
            for seed in (0, 3)
        ]
        + [
            _readme_config,
            golden_smoke_config,
            _golden_m3_config,
            golden_class_config,
            golden_offdiag_config,
            golden_m3_class_config,
        ],
    )
    def test_default_grids_keep_the_points_they_had(self, tmp_path, make):
        config = cli.parse_config(make(tmp_path / "out"))
        with working_precision(config.precision_bits):
            sys_ = build_system(config.system)
            pert = None
            if config.perturbation_coeffs is not None:
                pert = RationalPerturbation(
                    [RationalFn(num, den) for num, den in config.perturbation_coeffs]
                )
            args = (
                mpf(config.grid.get("radius_factor", 4)),
                config.grid.get("circle_points", 64),
                config.grid.get("segment_points", 16),
            )
            got = EvalGrid.default(sys_, pert, *args).points
            want = default_recipe_before(sys_, pert, *args)
            assert [z._mpc_ for z in got] == [mpc(z)._mpc_ for z in want]

    def test_default_grid_off_the_last_interval_converges(self, tmp_path):
        # radius_factor 1.001 put the circle point 2.99239 on [1, 3]: the
        # run exited 0 with err_1 = 0.916, 0.841, 0.791 and delta 0.964
        out = tmp_path / "out"
        cfg = golden_smoke_config(out)
        cfg.update(perturbations=[], checks=["chile", "ratio44"])
        cfg["sweep"] = {"shape": "diagonal", "k_min": 2, "k_max": 4, "step": 1}
        cfg["grid"] = {"radius_factor": 1.001, "circle_points": 16, "segment_points": 4}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        delta = read_body(out / "convergence.csv")[-1].split(",")
        assert delta[0] == "delta" and mpf(delta[3]) < mpf("0.6")

    def test_default_grid_on_an_atom_no_longer_fails_after_the_solve(self, tmp_path):
        # radius 1 + 10^-71 put two circle points within 2^-128 of the atoms
        # +-1, and the run exited 3 with "evaluation on support"
        cfg = base_config(tmp_path / "out", sweep=[[2], [3], [4]], checks=[])
        cfg["system"] = [
            {"kind": "atoms", "interval": [-1, 1], "nodes": [-1, 1], "weights": ["0.5", "0.5"]}
        ]
        radius_factor = "1." + "0" * 70 + "1"
        cfg["grid"] = {"radius_factor": radius_factor, "circle_points": 8, "segment_points": 0}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0

    def test_cli_reads_no_atoms_and_no_poles(self):
        # the grid rules live in analysis, nikishin and measures; cli only
        # parses points and hands them on
        tree = ast.parse(Path(cli.__file__).read_text())
        found = [
            (node.lineno, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("nodes", "weights", "poles")
        ]
        assert found == []

    def test_an_emptied_explicit_grid_says_bad_grid(self, tmp_path, capsys):
        # both grids report an emptied point list through the same prefix
        cfg = base_config(tmp_path / "out", sweep=[[2, 2]], checks=["chile"])
        cfg["grid"] = {"points": [[2.0, 0.0]]}  # on the last interval
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate"
        assert err["detail"].startswith("bad grid: every grid point is on the last interval")


def rate_row(tmp_path, sweep):
    """The delta row of a checkless 16+16-atom run at 128 bits, or None."""
    out = tmp_path / "out"
    cfg = dict(golden_smoke_config(out), perturbations=[], checks=[], sweep=sweep)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    rows = [r for r in read_body(out / "convergence.csv") if r.startswith("delta,")]
    return rows[0] if rows else None


class TestPrintedDigits:
    """Each row prints the digits its vector holds, and a flagged row at most 3."""

    @pytest.mark.parametrize(
        "digits, flagged, count",
        [(66.2, False, 20), (22.9, False, 20), (17.2, False, 15), (11.9, False, 9), (3.0, False, 1),
         (2.4, False, 1), (19.3, True, 3), (4.5, True, 2)],
    )
    def test_error_digits(self, digits, flagged, count):
        assert cli._error_digits(digits, flagged) == count

    @pytest.mark.parametrize("value, text", [("inf", "+inf"), ("-inf", "-inf"), ("nan", "nan")])
    def test_non_finite_values_print_as_mpmath_prints_them(self, value, text):
        # nan is neither > 0 nor < 0, and prints as itself, not as an infinity
        assert cli._fmt(mpf(value)) == text
        assert cli._fmt(mpf(value), 5) == text

    def test_a_flagged_row_prints_three_digits(self, tmp_path):
        # the m = 3 system on k = 3, 5, 7: at k = 7 the 48 atoms cannot tell
        # the order conditions apart, and the flagged row claims 19.3 digits
        # where two Cauchy kernels agree on 9.0; the rate is fitted to the
        # k = 3 and 5 rows alone, at the 17 digits the k = 5 row prints
        out = tmp_path / "out"
        cfg = dict(_golden_m3_config(out), checks=[])
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        header, *rows, delta = [line.split(",") for line in read_body(out / "convergence.csv")]
        assert header[-6:] == ["err_1", "err_2", "err_0", "digits", "flag", "precision_used"]
        last = rows[-1]
        assert last[0] == "21" and last[-3:-1] == ["19.3", "1"]
        assert [len(e.split("e")[0].replace(".", "")) for e in last[4:7]] == [3, 3, 3]
        assert [r[-2] for r in rows[:-1]] == ["0", "0"]
        count = cli._error_digits(min(float(r[-3]) for r in rows[:-1]))
        assert [len(e.split("e")[0].replace(".", "")) for e in delta[4:7]] == [count] * 3


class TestRateRow:
    """estimate_rate alone decides whether a sweep has a delta row."""

    @pytest.mark.parametrize("sweep", [[[7, 7], [5, 5], [3, 3]], [[3, 3], [7, 7], [5, 5]]])
    def test_a_reordered_sweep_prints_the_ascending_rate(self, tmp_path, sweep):
        # the rows of a shared system equal fresh ones bit for bit, and
        # estimate_rate sorts them by |n|; delta(err_1) reads 0.46860
        ascending = rate_row(tmp_path, [[3, 3], [5, 5], [7, 7]])
        assert ascending.startswith("delta,,,4.6859545517")
        assert rate_row(tmp_path, sweep) == ascending

    def test_two_equal_totals_print_no_rate(self, tmp_path):
        assert rate_row(tmp_path, [[3, 3], [5, 5], [4, 6]]) is None


class TestZeroDegreeBudgets:
    """An index whose entry makes a needed component identically zero is refused before any solve."""

    @pytest.fixture
    def solved(self, monkeypatch):
        calls = []

        def recording_solve(*args, **kwargs):
            calls.append(args)
            raise AssertionError("solved before the sweep was checked")

        monkeypatch.setattr(cli, "solve_type1", recording_solve)
        monkeypatch.setattr(cli, "solve_type1_perturbed", recording_solve)
        return calls

    @pytest.mark.parametrize(
        "sweep, checks, detail",
        [
            ([[3, 3], [3, 0]], ["chile"], "n_m = 0"),
            ([[2, 2], [0, 3]], ["pole_attraction"], "pole_attraction needs every n_j >= 1"),
        ],
        ids=["last-entry", "pole-census"],
    )
    def test_zero_entry_exits_2_before_any_solve(self, tmp_path, capsys, solved, sweep, checks, detail):
        # the first exited 3 with "degenerate last component" after its
        # solves, the second with "component is identically zero"
        pert = [{"num_coeffs": [1], "den_coeffs": [-5, 1]}, {"num_coeffs": [1], "den_coeffs": [5, 1]}]
        cfg = base_config(tmp_path / "out", sweep=sweep, checks=checks, pert=pert)
        prec = mp.prec
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validate" and detail in err["detail"]
        assert solved == [] and mp.prec == prec
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "checks, pert",
        [
            (["chile", "orthogonality"], [{"num_coeffs": [1], "den_coeffs": [-5, 1]}, None]),
            (["pole_attraction"], None),
        ],
        ids=["no-census", "no-perturbation"],
    )
    def test_a_zero_first_entry_runs_without_a_pole_census(self, tmp_path, checks, pert):
        cfg = base_config(tmp_path / "out", sweep=[[0, 3], [2, 2]], checks=checks, pert=pert)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert (tmp_path / "out" / "convergence.csv").exists()


class TestWidelySeparatedPoles:
    @pytest.mark.parametrize("bits, far", [(64, "1e10"), (128, "1e20"), (256, "1e40")])
    def test_a_far_pole_gets_its_reports(self, tmp_path, bits, far):
        # T/t_j by division left a remainder above its 2^-P/2 gate (1.71,
        # 1.14 and 13.7 times it) and the run exited 3 with "pole
        # cancellation failed"; the cofactors are now products, and at 64
        # bits the orthogonality check fails honestly: max_residual 8.17e8
        # against a scale of 9.30e9
        out = tmp_path / "out"
        pert = [
            {"num_coeffs": [1], "den_coeffs": ["-3/7", 1]},
            {"num_coeffs": [1], "den_coeffs": [far, 1]},
        ]
        cfg = base_config(out, sweep=[[2, 2], [3, 3]], checks=["orthogonality"], pert=pert)
        cfg["precision_bits"] = bits
        cfg["grid"] = {"points": [[0.5, 2.0], [-1.0, 3.0], [5, 5], [10, -3]]}
        assert main(["run", str(write_config(tmp_path, cfg))]) in (0, 1)
        checks = json.loads((out / "identities.json").read_text())["checks"]
        assert set(checks) == {"orthogonality"}
        if bits == 64:
            assert not checks["orthogonality"]["pass"]
            assert checks["orthogonality"]["max_residual"] == "8.17e+8"


class TestRemainderChecks:
    @pytest.mark.parametrize("perturbed", [True, False])
    def test_each_vector_is_evaluated_at_the_atoms_once(self, tmp_path, monkeypatch, perturbed):
        # orthogonality reads the tail sums, so sign_changes alone reads A_1
        # at sigma_1's atoms
        calls = []
        values = hermite_pade.first_level_remainder_values

        def counting(sys, v):
            calls.append(v.n)
            return values(sys, v)

        monkeypatch.setattr(cli, "first_level_remainder_values", counting)
        monkeypatch.setattr(hermite_pade, "first_level_remainder_values", counting)
        cfg = golden_smoke_config(tmp_path / "out")
        cfg["checks"] = ["orthogonality", "sign_changes"]
        if not perturbed:
            del cfg["perturbations"]
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert len(calls) == len(set(calls)) == 3

    def test_noise_at_atomic_degree_shows_no_sign_change(self, tmp_path):
        # on 4 + 4 atoms at 128 bits A_1 is rounding noise at every atom of
        # sigma_1 from n = (3, 3) on, whose alternations read [3, 3, 3, 3];
        # the check still fails, as a check and not as a numerical error
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[k, k] for k in range(2, 6)], checks=["sign_changes"])
        cfg["precision_bits"] = 128
        for spec in cfg["system"]:
            spec["node_count"] = 4
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1
        entry = json.loads((out / "identities.json").read_text())["checks"]["sign_changes"]
        assert entry == {"counts": [3, 0, 0, 0], "pass": False}

    def test_the_worst_instance_is_the_one_with_the_largest_ratio(self):
        results = [Residual(mpf(2), mpf(1e40)), Residual(mpf(1e-30), mpf(1e-20)), Residual(mpf(0), mpf(0))]
        entry = cli._residual_entry(results, 0.5)
        assert (entry["max_residual"], entry["scale"]) == ("1.00e-30", "1.00e-20")
        assert entry["pass"] is False  # the first fails its gate


def scaled_m3_config(out, scale, weight):
    """m = 3 at 96 bits: 4 Chebyshev atoms on [0, 2] times `scale`, and one atom of `weight` at
    2.0625 and one at 3.0625; the index (1, 1, 1) on the grid point -2."""
    return {
        "precision_bits": 96,
        "system": [
            {
                "kind": "jacobi-density",
                "interval": [0, 2],
                "node_count": 4,
                "alpha": -0.5,
                "beta": -0.5,
                "density_scale": scale,
            },
            {"kind": "atoms", "interval": [2, 2.5], "nodes": [2.0625], "weights": [weight]},
            {"kind": "atoms", "interval": [3, 4], "nodes": [3.0625], "weights": [weight]},
        ],
        "sweep": [[1, 1, 1]],
        "grid": {"points": [[-2, 0]]},
        "checks": [],
        "output_dir": str(out),
    }


class TestRelativeSkipGate:
    """convergence_row skips a point where |a_m| is below 2^-P/2 of the terms it sums, not below 2^-P/2."""

    def test_rescaled_generators_keep_their_row(self, tmp_path):
        # with the scales 1e-20, 1e20, 1e20, a_3 = 1e-20 while a_2 = 1: the
        # absolute gate skipped the one grid point, and the run exited 3
        # with "every grid point fell on a zero of the last component"
        bodies = []
        for scale, weight in (("1", "1"), ("1e-20", "1e20")):
            out = tmp_path / scale
            path = write_config(tmp_path, scaled_m3_config(out, scale, weight), f"{scale}.json")
            assert main(["run", str(path)]) == 0
            bodies.append(read_body(out / "convergence.csv"))
        assert bodies[0] == bodies[1]
        assert bodies[0][1].startswith("3,1,1,1,1.00000000")
