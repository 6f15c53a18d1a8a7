"""Per-layer tracing from outside the package.

Tracer replaces, for the duration of a `with` block, the names each module
of nikishin_hp looks up at call time (its own globals and the names it
imported) with wrappers that record a span: metric name, start, end and the
index of the enclosing span.  Nothing in the package is edited; the
originals are put back on exit.  Spans stay in memory until `dump`.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans, so the self times of one experiment add up to the
wall time of its run_experiment span.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict

# (module, attribute, metric prefix).  Every module that calls a function
# through its own global name gets its own entry.
PATCHES = (
    ("nikishin_hp.cli", "build_system", "nikishin.build_system"),
    ("nikishin_hp.cli", "moments", "measures.moments"),
    ("nikishin_hp.cli", "solve_type1", "hermite_pade.solve_type1"),
    ("nikishin_hp.cli", "solve_type1_perturbed", "hermite_pade.solve_type1"),
    ("nikishin_hp.cli", "solve_type2", "hermite_pade.solve_type2"),
    ("nikishin_hp.cli", "perturbed_reduce", "hermite_pade.perturbed_reduce"),
    ("nikishin_hp.cli", "check_orthogonality", "hermite_pade.orthogonality"),
    ("nikishin_hp.cli", "convergence_row", "analysis.convergence_row"),
    ("nikishin_hp.cli", "first_level_remainder_values", "analysis.sign_changes"),
    ("nikishin_hp.cli", "sign_changes", "analysis.sign_changes"),
    ("nikishin_hp.cli", "pole_attraction", "analysis.pole_attraction"),
    ("nikishin_hp.cli", "check_chain_identity", "nikishin.chain_identity"),
    ("nikishin_hp.cli", "check_ratio_identity", "nikishin.ratio_identity"),
    ("nikishin_hp.nikishin", "realize", "measures.realize"),
    ("nikishin_hp.nikishin", "cauchy_eval", "measures.cauchy_eval"),
    ("nikishin_hp.nikishin", "product_measure", "nikishin.product_measure"),
    ("nikishin_hp.nikishin", "inverse_measure", "measures.inverse_measure"),
    # run_experiment imports inverse_measure from .measures when it runs
    ("nikishin_hp.measures", "inverse_measure", "measures.inverse_measure"),
    ("nikishin_hp.measures", "moments", "measures.moments"),
    ("nikishin_hp.hermite_pade", "cauchy_eval", "measures.cauchy_eval"),
    ("nikishin_hp.hermite_pade", "moments", "measures.moments"),
    ("nikishin_hp.hermite_pade", "poly_roots", "algebra.poly_roots"),
    ("nikishin_hp.analysis", "cauchy_eval", "measures.cauchy_eval"),
    # pole_attraction imports poly_roots from .algebra when it runs
    ("nikishin_hp.algebra", "poly_roots", "algebra.poly_roots"),
)
SVD = "hermite_pade.svd"  # mp.svd_r; the package calls it only from hermite_pade
RUN = "cli.run_experiment"

TIMED = (
    "measures.realize",
    "measures.cauchy_eval",
    "measures.moments",
    "measures.inverse_measure",
    "nikishin.build_system",
    "nikishin.product_measure",
    "nikishin.chain_identity",
    "nikishin.ratio_identity",
    "hermite_pade.solve_type1",
    "hermite_pade.svd",
    "hermite_pade.solve_type2",
    "hermite_pade.perturbed_reduce",
    "hermite_pade.orthogonality",
    "analysis.convergence_row",
    "analysis.sign_changes",
    "analysis.pole_attraction",
    "algebra.poly_roots",
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        # [name, start, end, parent index or -1, note]; the note is the atom
        # count of a cauchy_eval call and the precision of an SVD attempt
        self.spans = []
        self.stack = []
        self._saved = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            value = note(args) if note is not None else None
            spans.append([name, clock(), None, stack[-1] if stack else -1, value])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def __enter__(self):
        import importlib

        from mpmath import mp

        for mod_name, attr, name in PATCHES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            note = (lambda args: len(args[0].nodes)) if name == "measures.cauchy_eval" else None
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, note))
        # svd_r is a method of mpmath's context class; the instance attribute
        # set here shadows it until __exit__ deletes it again
        mp.svd_r = self.wrap(SVD, mp.svd_r, lambda args: mp.prec)
        self._saved.append((mp, "svd_r", None))
        return self

    def __exit__(self, *exc):
        for obj, attr, fn in reversed(self._saved):
            if fn is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, fn)
        self._saved.clear()
        return False

    def run(self, fn, *args, **kwargs):
        """Call fn inside a top-level `cli.run_experiment` span."""
        return self.wrap(RUN, fn)(*args, **kwargs)

    def metrics(self, scale: float, base_bits: int) -> dict:
        """Per-layer metrics; seconds are multiplied by `scale`."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1

        solves = calls["hermite_pade.solve_type1"]
        svd_bits = []
        svd_in_solves = 0
        terms = 0
        for name, _, _, parent, note in self.spans:
            if name == "measures.cauchy_eval":
                terms += note
            if name != SVD:
                continue
            svd_bits.append(note)
            p = parent
            while p >= 0 and self.spans[p][0] != "hermite_pade.solve_type1":
                p = self.spans[p][3]
            svd_in_solves += p >= 0

        out = {f"{n}_s": (self_s[n] * scale, "s") for n in TIMED}
        out["cli.self_s"] = (self_s[RUN] * scale, "s")
        out.update(
            {
                "measures.cauchy_eval_calls": (calls["measures.cauchy_eval"], "count"),
                "measures.cauchy_terms": (terms, "count"),
                "measures.moments_calls": (calls["measures.moments"], "count"),
                "nikishin.product_measure_calls": (calls["nikishin.product_measure"], "count"),
                "hermite_pade.solves": (solves, "count"),
                "hermite_pade.svd_calls": (calls[SVD], "count"),
                "hermite_pade.svd_per_solve": (svd_in_solves / solves if solves else 0.0, "ratio"),
                "hermite_pade.escalations": (sum(b > base_bits for b in svd_bits), "count"),
                "hermite_pade.max_precision_bits": (max(svd_bits, default=0), "bits"),
                "hermite_pade.perturbed_reduce_calls": (
                    calls["hermite_pade.perturbed_reduce"],
                    "count",
                ),
                "algebra.poly_roots_calls": (calls["algebra.poly_roots"], "count"),
            }
        )
        return out

    def dump(self, path):
        """Write the spans as JSON: [name, start, end, parent, note] each."""
        path.write_text(json.dumps({"spans": self.spans}))
