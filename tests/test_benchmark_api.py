"""What benchmark/run.py reads from the package.

benchmark/run.py is read, never changed, here.  It parses configs with
`cli.parse_config`, runs them with `cli.run_experiment(config)`, wraps
`cli.solve_type1` and `cli.solve_type1_perturbed` to capture the type I
vectors, and reads `exit_code`, `cache_hits` and `rows` of the result.  A
refactor that drops one of these would break the benchmark only when the
benchmark runs, so this runs a tiny experiment through the same names.
"""

from nikishin_hp import cli


def test_run_py_reads_names_that_exist(tmp_path):
    assert callable(cli.solve_type1)
    assert callable(cli.solve_type1_perturbed)
    config = cli.parse_config(
        {
            "precision_bits": 64,
            "system": [
                {"kind": "legendre-density", "interval": [-1, 0], "node_count": 4},
                {"kind": "legendre-density", "interval": [1, 3], "node_count": 4},
            ],
            "sweep": [[1, 1]],
            "checks": [],
            "output_dir": str(tmp_path / "out"),
        }
    )
    result = cli.run_experiment(config)
    assert result.exit_code == 0
    assert result.cache_hits == 0
    assert [row.n.total for row in result.rows] == [2]
