"""End-to-end CLI runs: config validation, outputs, determinism, exit codes."""

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from nikishin_hp import cli
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


class TestArgumentHandling:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parse"

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

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_pole_eps_that_is_not_finite_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, eps
    ):
        solved = []

        def recording_solve(*args, **kwargs):
            solved.append(args)
            raise AssertionError("solved before pole_eps was checked")

        monkeypatch.setattr(cli, "solve_type1_perturbed", recording_solve)
        cfg = golden_smoke_config(tmp_path / "out")
        cfg["pole_eps"] = eps
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validate" and err["detail"].startswith("bad pole_eps: ")
        assert solved == []
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
        assert "reduction" in identities["checks"]  # reduction always reported with a perturbation
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


class TestGoldenBodies:
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
        for name in ("convergence.csv", "identities.json", "zeros.csv"):
            assert body_bytes(out / name) == (GOLDEN / name).read_bytes(), name

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
        for name in ("convergence.csv", "identities.json"):
            assert body_bytes(out / name) == (GOLDEN_M3 / name).read_bytes(), name

    def test_readme_bodies_match_stored_bytes(self, tmp_path):
        # the README example verbatim: type I and type II up to |n| = 24 and
        # the roots of degree-11 a_j, beyond the smoke run's k <= 7; stored
        # as written when the type I solve moved from the SVD to the order
        # basis, convergence.csv again when the rows moved to power rows
        out = tmp_path / "out"
        (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        cfg = dict(json.loads(block), output_dir=str(out))
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        for name in ("convergence.csv", "identities.json", "zeros.csv"):
            assert body_bytes(out / name) == (GOLDEN_README / name).read_bytes(), name

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
        for name in ("convergence.csv", "identities.json"):
            assert body_bytes(out / name) == (GOLDEN_DEEP / name).read_bytes(), name

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
        for name in ("convergence.csv", "identities.json", "zeros.csv"):
            assert body_bytes(out / name) == (GOLDEN_CLASS / name).read_bytes(), name

    def test_offdiag_bodies_match_stored_bytes(self, tmp_path):
        # the nested indices (k+1, k), k = 2..6, at 256 bits: every check
        # passes, and delta is 0.442 (err_1) and 0.515 (err_0).  Every
        # printed error agrees with a 512-bit run to 52 digits
        out = tmp_path / "out"
        cfg = dict(golden_smoke_config(out), precision_bits=256)
        cfg["sweep"] = [[k + 1, k] for k in range(2, 7)]
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        for name in ("convergence.csv", "identities.json", "zeros.csv"):
            assert body_bytes(out / name) == (GOLDEN_OFFDIAG / name).read_bytes(), name

    def test_m3_class_bodies_match_stored_bytes(self, tmp_path):
        # m=3 with every component perturbed, r = (1/(z+3), 1/(z-3.5),
        # 1/(z-8)), the pole at 3.5 in the gap beside [1, 3]: at k = 6 every
        # pole captures one zero of each a_j with no strays, and every
        # printed error agrees with a 512-bit run to 29 digits
        out = tmp_path / "out"
        cfg = dict(golden_smoke_config(out), precision_bits=256, pole_eps=0.1875)
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
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        for name in ("convergence.csv", "identities.json", "zeros.csv"):
            assert body_bytes(out / name) == (GOLDEN_M3_CLASS / name).read_bytes(), name

    @pytest.mark.parametrize("check", cli.KNOWN_CHECKS)
    def test_each_check_alone_matches_the_full_run(self, tmp_path, check):
        # a check run on its own reports what it reports beside the other
        # five: no check depends on another having run first
        out = tmp_path / "out"
        cfg = golden_smoke_config(out)
        assert main(["run", str(write_config(tmp_path, cfg)), "--check", check]) == 0
        got = json.loads((out / "identities.json").read_text())["checks"][check]
        want = json.loads((GOLDEN / "identities.json").read_text())["checks"][check]
        assert got == want


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

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_config(out, sweep=[[2, 2]], checks=[])
        del cfg["precision_bits"]
        path = write_config(tmp_path, cfg)
        monkeypatch.setenv("NIKISHIN_HP_PRECISION", "128")
        assert main(["run", str(path), "--precision-bits", "192"]) == 0
        identities = json.loads((out / "identities.json").read_text())
        assert identities["precision_bits"] == 192

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
