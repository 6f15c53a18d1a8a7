"""Shared fixtures: the small hand-checkable system and the solver fixtures.

Session-scoped fixtures cache the expensive sweep solutions so the acceptance
criteria that share a sweep (orders, rates, pole attraction, reduction) solve
each multi-index once.
"""

import time

import pytest
from mpmath import mp

from nikishin_hp import (
    AtomicMeasure,
    Interval,
    MeasureSpec,
    MultiIndex,
    RationalFn,
    RationalPerturbation,
    SystemSpec,
    build_system,
    set_precision,
    solve_type1,
    solve_type1_perturbed,
    system_from_generators,
)

PREC = 256


@pytest.fixture(autouse=True)
def ambient_precision():
    old = mp.prec
    set_precision(PREC)
    yield
    mp.prec = old


def legendre_spec(a, b, n):
    return MeasureSpec(kind="legendre-density", interval=Interval(a, b), node_count=n)


@pytest.fixture(scope="session")
def f1_system():
    """m=1, atoms {(-1, 1/2), (1, 1/2)}."""
    set_precision(PREC)
    mu = AtomicMeasure([-1, 1], ["0.5", "0.5"], 1, Interval("-1.5", "1.5"))
    return system_from_generators([mu])


@pytest.fixture(scope="session")
def m2_16_system():
    """m=2 identity fixture: 16-node discretizations on [-1,0] and [1,3]."""
    set_precision(PREC)
    return build_system(SystemSpec([legendre_spec(-1, 0, 16), legendre_spec(1, 3, 16)], PREC))


@pytest.fixture(scope="session")
def m3_16_system():
    """m=3 identity fixture: 16-node discretizations on [-1,0], [1,3], [4,6]."""
    set_precision(PREC)
    return build_system(
        SystemSpec(
            [legendre_spec(-1, 0, 16), legendre_spec(1, 3, 16), legendre_spec(4, 6, 16)], PREC
        )
    )


@pytest.fixture(scope="session")
def m2_32_system():
    """The solver fixture: 32-node generators on [-1,0] and [1,3]."""
    set_precision(PREC)
    return build_system(SystemSpec([legendre_spec(-1, 0, 32), legendre_spec(1, 3, 32)], PREC))


@pytest.fixture(scope="session")
def pert_pm5():
    """r_1 = 1/(z-5), r_2 = 1/(z+5)."""
    set_precision(PREC)
    return RationalPerturbation([RationalFn([1], [-5, 1]), RationalFn([1], [5, 1])])


@pytest.fixture(scope="session")
def sweep_solutions(m2_32_system, pert_pm5):
    """Shared sweep solves on the 32-node fixture, k = 4..12 step 2.

    Keys: "plain", "perturbed", "incomplete_m3"; values are (elapsed_seconds,
    {k: TypeIVector}).
    """
    set_precision(PREC)
    out = {}
    t0 = time.monotonic()
    out["perturbed"] = {
        k: solve_type1_perturbed(m2_32_system, pert_pm5, MultiIndex((k, k)))
        for k in range(4, 13, 2)
    }
    out["perturbed_elapsed"] = time.monotonic() - t0
    t0 = time.monotonic()
    out["plain"] = {
        k: solve_type1(m2_32_system, MultiIndex((k, k))) for k in range(4, 13, 2)
    }
    out["plain_elapsed"] = time.monotonic() - t0
    t0 = time.monotonic()
    out["incomplete_m3"] = {
        k: solve_type1(m2_32_system, MultiIndex((k, k)), M=3) for k in range(6, 13, 2)
    }
    out["incomplete_elapsed"] = time.monotonic() - t0
    return out
