"""The benchmark's tracer wraps package functions by (module, attribute) name.

benchmark/spans.py is read, never changed, here: a refactor that renames or
removes one of the names it patches would make `--trace 1` fail only when
the benchmark runs, so this checks every name resolves.  A refactor that
routes the calls around a name makes its per-layer metric read 0 without
any failure, so the names that no call reaches on the smoke config are
pinned too.
"""

import importlib
import importlib.util
from pathlib import Path

from nikishin_hp import cli

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
SPANS = BENCHMARK / "spans.py"

# the patched names that no call reaches: their modules import them only
# for the patch, or, for measures.inverse_measure, no caller looks it up
# in measures any more
NEVER_CALLED = {
    "analysis.cauchy_eval",
    "cli.moments",
    "hermite_pade.cauchy_eval",
    "hermite_pade.moments",
    "measures.inverse_measure",
    "nikishin.cauchy_eval",
}


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_patches():
    return load(SPANS, "benchmark_spans").PATCHES


def test_every_patched_name_resolves_to_a_callable():
    patches = load_patches()
    assert patches
    for mod_name, attr, _metric in patches:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_the_names_no_call_reaches_are_the_known_ones(tmp_path, monkeypatch):
    # the smoke workload runs every module and every check, once perturbed
    # and once not
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod_name, attr, _metric in load_patches():
        name = f"{mod_name.removeprefix('nikishin_hp.')}.{attr}"
        calls[name] = 0
        module = importlib.import_module(mod_name)
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    smoke = load(BENCHMARK / "workloads.py", "benchmark_workloads").make_config("smoke", 0)
    assert smoke["perturbations"]
    for i, cfg in enumerate((smoke, {k: v for k, v in smoke.items() if k != "perturbations"})):
        config = cli.parse_config(dict(cfg, output_dir=str(tmp_path / f"out{i}")))
        assert cli.run_experiment(config).exit_code == 0
    assert {name for name, count in calls.items() if count == 0} == NEVER_CALLED
