"""The benchmark's tracer wraps package functions by (module, attribute) name.

benchmark/spans.py is read, never changed, here: a refactor that renames or
removes one of the names it patches would make `--trace 1` fail only when
the benchmark runs, so this checks every name resolves.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_patched_name_resolves_to_a_callable():
    patches = load_patches()
    assert patches
    for mod_name, attr, _metric in patches:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
