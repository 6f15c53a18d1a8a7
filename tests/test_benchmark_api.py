"""What benchmark/run.py reads from the package.

benchmark/run.py is read, never changed, here.  It parses configs with
`cli.parse_config`, runs them with `cli.run_experiment(config)`, wraps
`cli.solve_type1` and `cli.solve_type1_perturbed` to capture the type I
vectors, and reads `exit_code`, `cache_hits` and `rows` of the result.  Its
reference and identity-digit passes then rebuild the perturbation from
`config.perturbation_coeffs`, the grid from `config.grid` with
`EvalGrid.default`, and call `s_hat_eval`, `perturbed_reduce` and
`check_orthogonality` on the captured vectors.  A refactor that drops one of
these would break the benchmark only when the benchmark runs, so this runs a
tiny experiment through the same names, called the same way.
"""

import nikishin_hp as pkg
from mpmath import mp

from nikishin_hp import cli


def test_run_py_reads_names_that_exist(tmp_path, monkeypatch):
    solutions = []

    def capturing(fn):
        def solve(*args, **kwargs):
            solutions.append(fn(*args, **kwargs))
            return solutions[-1]

        return solve

    for attr in ("solve_type1", "solve_type1_perturbed"):
        monkeypatch.setattr(cli, attr, capturing(getattr(cli, attr)))
    config = cli.parse_config(
        {
            "precision_bits": 64,
            "system": [
                {"kind": "legendre-density", "interval": [-1, 0], "node_count": 4},
                {"kind": "legendre-density", "interval": [1, 3], "node_count": 4},
            ],
            "perturbations": [{"num_coeffs": [1], "den_coeffs": [-5, 1]}, None],
            "sweep": [[1, 1], [2, 2]],
            "grid": {"radius_factor": 4, "circle_points": 4, "segment_points": 2},
            "checks": ["orthogonality"],
            "output_dir": str(tmp_path / "out"),
        }
    )
    result = cli.run_experiment(config)
    assert result.exit_code == 0
    assert result.cache_hits == 0
    assert [row.n.total for row in result.rows] == [2, 4]
    assert [v.n.total for v in solutions] == [2, 4]
    assert config.checks == ("orthogonality",)

    # reference_digits and identity_digits
    system = pkg.build_system(config.system)
    pkg.set_precision(config.precision_bits)
    pert = pkg.RationalPerturbation(
        [pkg.RationalFn(num, den) for num, den in config.perturbation_coeffs]
    )
    grid = pkg.EvalGrid.default(
        system,
        pert,
        radius_factor=mp.mpf(config.grid.get("radius_factor", 4)),
        circle_points=int(config.grid.get("circle_points", 64)),
        segment_points=int(config.grid.get("segment_points", 16)),
    )
    assert len(grid.points) == 6
    for g in system.generators:
        assert len(g.nodes) == len(g.weights) == 4 and g.sign in (1, -1)
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert mp.isfinite(pkg.s_hat_eval(system, j, k, grid.points[0]))
    for v in solutions:
        assert len(tuple(v.n)) == len([list(p.coeffs) for p in v.a]) - 1 == system.m
        report = pkg.perturbed_reduce(pert, v, system)
        assert report.max_residual <= report.scale
        orth = pkg.check_orthogonality(system, report.reduced)
        assert orth.max_residual <= orth.scale
