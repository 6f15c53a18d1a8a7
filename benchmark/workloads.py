"""Benchmark workloads: experiment configs made from a seed.

Seed 0 gives the configs exactly as written below.  Any other seed shifts
every interval endpoint by a multiple of ENDPOINT_STEP within
+-ENDPOINT_SHIFT and every perturbation pole by a multiple of POLE_STEP
within +-POLE_SHIFT, so a claim can be checked on inputs it was not tuned
on.  The ranges are narrow on purpose: the accuracy of the type I vectors
depends on the gap between the intervals (on readme-m2, shifts of 1/8
moved accuracy_digits between 11.8 and 18.8), and a benchmark metric must
not spread across seeds by more than its bound.  The shifts are exact
binary fractions, passed as decimal strings, so the configs mean the same
numbers at every working precision.  Sweeps, node counts, precisions and
checks never depend on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

ENDPOINT_STEP, ENDPOINT_SHIFT = Fraction(1, 64), Fraction(1, 32)
POLE_STEP, POLE_SHIFT = Fraction(1, 16), Fraction(1, 4)

ALL_CHECKS = ["chile", "ratio44", "orthogonality", "sign_changes", "pole_attraction", "type2"]


def _legendre(interval, n):
    return {"kind": "legendre-density", "interval": interval, "node_count": n}


def _jacobi(interval, n, alpha, beta):
    return {
        "kind": "jacobi-density",
        "interval": interval,
        "node_count": n,
        "alpha": alpha,
        "beta": beta,
    }


def _simple_pole(zeta):
    """1/(z - zeta) as ascending-degree coefficient lists."""
    return {"num_coeffs": [1], "den_coeffs": [-zeta, 1]}


def _base(name):
    """The seed-0 config of a workload, with Fractions where seeds move values."""
    F = Fraction
    if name == "readme-m2":
        return {
            "precision_bits": 256,
            "system": [_legendre([F(-1), F(0)], 32), _legendre([F(1), F(3)], 32)],
            "perturbations": [_simple_pole(F(5)), _simple_pole(F(-5))],
            "sweep": {"shape": "diagonal", "k_min": 4, "k_max": 12, "step": 2},
            "grid": {"radius_factor": 4, "circle_points": 64, "segment_points": 16},
            "checks": list(ALL_CHECKS),
            "pole_eps": 0.25,
        }
    if name == "deep-diag-m2":
        return {
            "precision_bits": 512,
            "system": [
                _jacobi([F(-1), F(0)], 64, -0.5, -0.5),
                _jacobi([F(1), F(3)], 64, -0.5, -0.5),
            ],
            "sweep": {"shape": "diagonal", "k_min": 16, "k_max": 24, "step": 4},
            "checks": ["orthogonality"],
        }
    if name == "identities-m4":
        return {
            "precision_bits": 256,
            "system": [
                _legendre([F(-1), F(0)], 32),
                _jacobi([F(1), F(3)], 32, 0.5, -0.5),
                _legendre([F(4), F(6)], 32),
                _jacobi([F(7), F(9)], 32, -0.5, 0.5),
            ],
            "sweep": [],
            "checks": ["chile", "ratio44"],
        }
    if name == "smoke":
        # Tiny, every module: the warm-up before timing and the smoke test.
        return {
            "precision_bits": 128,
            "system": [_legendre([F(-1), F(0)], 16), _legendre([F(1), F(3)], 16)],
            "perturbations": [_simple_pole(F(5)), _simple_pole(F(-5))],
            "sweep": {"shape": "diagonal", "k_min": 3, "k_max": 7, "step": 2},
            "grid": {"radius_factor": 4, "circle_points": 16, "segment_points": 4},
            "checks": list(ALL_CHECKS),
            "pole_eps": 0.25,
        }
    raise KeyError(name)


WORKLOADS = ("readme-m2", "deep-diag-m2", "identities-m4")


def _shift(rng, step, limit):
    k = int(limit / step)
    return step * rng.randint(-k, k)


def _as_json(x):
    """Fractions become exact decimal strings (their denominators are powers of 2)."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return repr(float(x))  # exact: the denominator is a small power of 2
    if isinstance(x, dict):
        return {k: _as_json(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_as_json(v) for v in x]
    return x


def make_config(name: str, seed: int) -> dict:
    """The raw config dict of workload `name` for `seed` (JSON-ready)."""
    cfg = _base(name)
    if seed != 0:
        rng = random.Random(f"{name}:{seed}")
        for g in cfg["system"]:
            g["interval"] = [e + _shift(rng, ENDPOINT_STEP, ENDPOINT_SHIFT) for e in g["interval"]]
        for p in cfg.get("perturbations", []):
            zeta = -p["den_coeffs"][0] + _shift(rng, POLE_STEP, POLE_SHIFT)
            p["den_coeffs"] = [-zeta, 1]
    return _as_json(cfg)
