"""Acceptance criteria: one test per criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints its measured quantities.
"""

import csv
import random
import time

import pytest
from mpmath import mp, mpc, mpf

from nikishin_hp import (
    EvalGrid,
    Interval,
    MeasureSpec,
    MultiIndex,
    RationalFn,
    RationalPerturbation,
    SystemSpec,
    build_system,
    cauchy_eval,
    check_chain_identity,
    check_orthogonality,
    check_ratio_identity,
    convergence_row,
    estimate_rate,
    first_level_remainder_values,
    inverse_measure,
    perturbed_reduce,
    pole_attraction,
    set_precision,
    sign_changes,
    solve_type1,
    solve_type1_perturbed,
    solve_type2,
    system_from_generators,
    type2_residual_tail,
)
from nikishin_hp.cli import parse_config, run_experiment
from test_cli import golden_class_config

PREC = 256


def legendre_spec(a, b, n):
    return MeasureSpec(kind="legendre-density", interval=Interval(a, b), node_count=n)


@pytest.fixture(scope="session")
def solver_grid(m2_32_system, pert_pm5):
    set_precision(PREC)
    return EvalGrid.default(m2_32_system, pert_pm5)


@pytest.fixture(scope="session")
def perturbed_rows(m2_32_system, pert_pm5, sweep_solutions, solver_grid):
    set_precision(PREC)
    t0 = time.monotonic()
    rows = [
        convergence_row(m2_32_system, pert_pm5, sweep_solutions["perturbed"][k], solver_grid)
        for k in range(4, 13, 2)
    ]
    return time.monotonic() - t0, rows


@pytest.fixture(scope="session")
def plain_rows(m2_32_system, sweep_solutions, solver_grid):
    set_precision(PREC)
    rows = [
        convergence_row(m2_32_system, None, sweep_solutions["plain"][k], solver_grid)
        for k in range(4, 13, 2)
    ]
    return rows


def test_criterion_1_atomic_exactness():
    t0 = time.monotonic()
    sys = build_system(SystemSpec([legendre_spec(-1, 1, 8)]))
    v = solve_type2(sys, MultiIndex((8,)))
    tail = type2_residual_tail(sys, v, 1)
    worst = max(abs(c) for c in tail)
    elapsed = time.monotonic() - t0
    print(f"criterion 1: max |tail(Q s-hat - P)| = {mp.nstr(worst, 3)}, {elapsed:.2f}s")
    assert worst <= mpf(10) ** -60
    assert elapsed < 1.0


def test_criterion_2_identity_suite():
    t0 = time.monotonic()
    m2 = build_system(SystemSpec([legendre_spec(-1, 0, 16), legendre_spec(1, 3, 16)]))
    m3 = build_system(
        SystemSpec(
            [legendre_spec(-1, 0, 16), legendre_spec(1, 3, 16), legendre_spec(4, 6, 16)]
        )
    )
    rng = random.Random(2024)
    points = [mpc(rng.uniform(-8, 8), rng.uniform(0.3, 4)) for _ in range(20)]

    worst_chain = mpf(0)
    for sys in (m2, m3):
        for j in range(sys.m):
            for z in points:
                worst_chain = max(worst_chain, check_chain_identity(sys, j, z).residual)
    assert worst_chain <= mpf(10) ** -50

    worst_ratio = mpf(0)
    for sys in (m2, m3):
        inv = inverse_measure(sys.generators[0])
        for k in range(2, sys.m + 1):
            for r in check_ratio_identity(sys, k, points, inverse=inv):
                worst_ratio = max(worst_ratio, r.residual)
    assert worst_ratio <= mpf(10) ** -40

    worst_inverse = mpf(0)
    for sys in (m2, m3):
        ell, tau = inverse_measure(sys.generators[0])
        for z in points:
            resid = abs(
                1 / cauchy_eval(sys.generators[0], z)
                - ell(z)
                - (cauchy_eval(tau, z) if tau is not None else 0)
            )
            worst_inverse = max(worst_inverse, resid)
    assert worst_inverse <= mpf(10) ** -50

    elapsed = time.monotonic() - t0
    print(
        f"criterion 2: chain {mp.nstr(worst_chain, 3)}, ratio {mp.nstr(worst_ratio, 3)}, "
        f"inverse {mp.nstr(worst_inverse, 3)}, {elapsed:.2f}s"
    )
    assert elapsed < 10.0


def test_criterion_3_order_and_orthogonality(m2_32_system, sweep_solutions):
    worst_orth = mpf(0)
    for k in range(4, 13, 2):
        v = sweep_solutions["plain"][k]
        assert v.residual_order >= v.n.total, f"order shortfall at k={k}"
        orth = check_orthogonality(m2_32_system, v)
        worst_orth = max(worst_orth, orth.max_residual)
        count = sign_changes(first_level_remainder_values(m2_32_system, v))
        if count < v.n.total - 1:
            count = sign_changes(
                first_level_remainder_values(m2_32_system, v, refine=True)
            )
        assert count >= v.n.total - 1, f"sign changes {count} < {v.n.total - 1} at k={k}"
    print(f"criterion 3: worst orthogonality residual {mp.nstr(worst_orth, 3)}")
    assert worst_orth <= mpf(10) ** -40


def test_criterion_4_ratio_limit_errors(sweep_solutions, perturbed_rows):
    rows_elapsed, rows = perturbed_rows
    errs = [row.err[0] for row in rows]
    for a, b in zip(errs, errs[1:]):
        assert b < a, "err_1 must decrease strictly along the sweep"
    delta = estimate_rate(rows).deltas["err_1"]
    total = sweep_solutions["perturbed_elapsed"] + rows_elapsed
    print(f"criterion 4: err_1 {[mp.nstr(e, 3) for e in errs]}, delta {mp.nstr(delta, 4)}, {total:.1f}s")
    assert delta < mpf("0.9")
    assert total < 120.0


def test_criterion_5_constant_term_limit(perturbed_rows):
    _, rows = perturbed_rows
    errs = [row.err0 for row in rows]
    for a, b in zip(errs, errs[1:]):
        assert b < a, "err_0 must decrease strictly along the sweep"
    delta = estimate_rate(rows).deltas["err_0"]
    print(f"criterion 5: err_0 {[mp.nstr(e, 3) for e in errs]}, delta {mp.nstr(delta, 4)}")
    assert delta < mpf("0.9")


def test_criterion_6_pole_attraction(m2_32_system, pert_pm5, sweep_solutions):
    eps = mpf("0.25")
    v = sweep_solutions["perturbed"][12]
    last = m2_32_system.intervals[-1]
    for j in (1, 2):
        rep = pole_attraction(pert_pm5, v, j, eps, last)
        by_pole = {complex(z): c for z, _, c in rep.counts}
        assert by_pole[complex(5, 0)] == 1
        assert by_pole[complex(-5, 0)] == 1
        assert len(rep.strays) == 0

    double = RationalPerturbation([RationalFn([1], [25, -10, 1]), RationalFn.zero()])
    w = solve_type1_perturbed(m2_32_system, double, MultiIndex((12, 12)))
    for j in (1, 2):
        rep = pole_attraction(double, w, j, eps, last)
        assert rep.counts[0][1] == 2  # multiplicity
        assert rep.counts[0][2] == 2  # two captured zeros
    print("criterion 6: single poles capture 1 zero each, double pole captures 2; census empty")


def test_criterion_7_reduction_consistency(m2_32_system, pert_pm5, sweep_solutions):
    worst = mpf(0)
    for k in range(4, 13, 2):
        rep = perturbed_reduce(pert_pm5, sweep_solutions["perturbed"][k], m2_32_system)
        assert rep.reduced.order_target == 2 * k - 2
        worst = max(worst, rep.max_residual)
    print(f"criterion 7: worst reduction residual {mp.nstr(worst, 3)}")
    assert worst <= mpf(10) ** -40


def test_criterion_8_incomplete_solver(m2_32_system, sweep_solutions, solver_grid):
    rows = [
        convergence_row(m2_32_system, None, sweep_solutions["incomplete_m3"][k], solver_grid)
        for k in range(6, 13, 2)
    ]
    errs = [row.err[0] for row in rows]
    for a, b in zip(errs, errs[1:]):
        assert b < a, "incomplete-solver ratio errors must still decrease"
    delta = estimate_rate(rows).deltas["err_1"]
    print(f"criterion 8: err_1 {[mp.nstr(e, 3) for e in errs]}, delta {mp.nstr(delta, 4)}")
    assert delta < mpf("0.95")


def test_criterion_9_scaling_invariance():
    # Generator rescaling scales the k-fold products blockwise; the normalized
    # ratio entries are exactly covariant, but extracting them through the
    # ill-conditioned moment systems amplifies build- and solve-time roundoff.
    # The criterion pins no precision, so both runs are rebuilt end to end at
    # 512 bits, exactly as two batch runs at that precision would be.
    set_precision(512)
    base = build_system(SystemSpec([legendre_spec(-1, 0, 32), legendre_spec(1, 3, 32)]))
    scaled = system_from_generators([g.scaled(7) for g in base.generators])
    grid = EvalGrid.default(base, None)
    worst = mpf(0)
    for k in range(4, 13, 2):
        n = MultiIndex((k, k))
        row = convergence_row(base, None, solve_type1(base, n), grid)
        scaled_row = convergence_row(scaled, None, solve_type1(scaled, n), grid)
        worst = max(worst, abs(scaled_row.err[0] - row.err[0]), abs(scaled_row.err0 - row.err0))
        assert scaled_row.nullity_flag == row.nullity_flag
        assert scaled_row.precision_bits == row.precision_bits
    print(f"criterion 9: worst row drift under 7x generator rescaling {mp.nstr(worst, 3)}")
    assert worst <= mpf(10) ** -50


def test_criterion_10_class_config(tmp_path):
    # the rest of the paper's class through run_experiment: r_1 = 1/(z^2 + 4)
    # has the conjugate poles +-2i and r_2 = 1/(z - 0.5) a pole in the gap
    # between the supports
    result = run_experiment(parse_config(golden_class_config(tmp_path / "out")))
    assert result.passes and all(result.passes.values()), result.passes
    deltas = estimate_rate(result.rows).deltas
    assert deltas["err_1"] < 1 and deltas["err_0"] < 1, deltas
    with open(result.output_dir / "zeros.csv", newline="") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    largest = max(int(r["abs_n"]) for r in rows)
    last = [r for r in rows if int(r["abs_n"]) == largest]
    for j in ("1", "2"):
        captured = {
            complex(float(r["zeta_re"]), float(r["zeta_im"])): int(r["count"])
            for r in last
            if r["component"] == j and r["kind"] == "pole"
        }
        assert captured == {-2j: 1, 2j: 1, 0.5: 1}, (j, captured)
        (census,) = [r for r in last if r["component"] == j and r["kind"] == "census"]
        assert census["count"] == "0", (j, census)
    print(
        f"criterion 10: at |n| = {largest} each of +-2i and 0.5 captures one zero of a_1 "
        f"and of a_2, no strays; delta {mp.nstr(deltas['err_1'], 3)}, {mp.nstr(deltas['err_0'], 3)}"
    )
