"""Ratio-limit errors, rate estimation, sign counting, pole attraction."""

import pytest
from mpmath import mp, mpc, mpf

from nikishin_hp import (
    ConvergenceRow,
    EvalGrid,
    Interval,
    MultiIndex,
    NikishinSystem,
    Polynomial,
    RationalFn,
    RationalPerturbation,
    TypeIVector,
    cauchy_eval,
    convergence_row,
    estimate_rate,
    first_level_remainder_values,
    first_level_sign_grid,
    noise_floor,
    pole_attraction,
    ratio_targets,
    sign_changes,
    solve_type1,
    solve_type1_perturbed,
)


def fake_rows(errs, err0s):
    rows = []
    for k, (e, e0) in enumerate(zip(errs, err0s), start=1):
        rows.append(
            ConvergenceRow(MultiIndex((2 * k, 2 * k)), (mpf(e),), mpf(e0), False, 256)
        )
    return rows


class TestEvalGrid:
    def test_default_shape_and_clearance(self, m2_16_system, pert_pm5):
        grid = EvalGrid.default(m2_16_system, pert_pm5)
        # outer radius: poles at +-5 dominate the supports
        radius = 4 * mpf(5)
        on_circle = [z for z in grid.points if abs(abs(z) - radius) < mpf("1e-30")]
        assert len(on_circle) == 64
        segment = [z for z in grid.points if abs(z) < radius / 2]
        assert len(segment) == 16
        for z in grid.points:
            for zeta, _ in pert_pm5.poles:
                assert abs(z - zeta) >= mpf("0.25")
            assert m2_16_system.intervals[-1].distance_to(z) > mpf("0.05")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            EvalGrid([])


def normalized_sup(v, grid, numerator, target, skip_below):
    """Oracle: sup |a_num/a_m - target| over the points with |a_m| >= skip_below,
    divided by the target's sup over the same points.  The polynomials are
    evaluated by Horner at the ambient precision."""
    m = v.m
    err, scale = mpf(0), mpf(0)
    for z in grid.points:
        den = v.a[m](z)
        if abs(den) < skip_below:
            continue
        t = target(z)
        scale = max(scale, abs(t))
        err = max(err, abs(v.a[numerator](z) / den - t))
    return err / max(scale, mpf(2) ** (-mp.prec))


def at_p(target):
    """target with its values taken at the ambient precision whatever the
    precision it is later called at, so that an oracle run at 3P differs
    from a row at P only in how it evaluates the polynomials."""
    values = {}

    def cached(z):
        key = mpc(z)._mpc_
        if key not in values:
            values[key] = target(z)
        return values[key]

    return cached


def assert_no_farther_than_horner(value, oracle):
    """A row's error, from power rows, lies no farther from `oracle` run at 3P
    than `oracle` run at P (Horner) does, plus one ulp at P.

    The error is |a_j/a_m - t| over the target scale, so a P-bit rounding of
    a_j/a_m or t moves it by 2^-P in those units however small it is: the
    ulp is that of max(1, error), 2^(1-P) for an error below 1.  `oracle`
    is called without arguments; it must take its targets and its skip
    threshold at P (see at_p)."""
    P = mp.prec
    horner = oracle()
    with mp.workprec(3 * P):
        exact = oracle()
        ulp = max(1, abs(exact)) * mpf(2) ** (1 - P)
        assert abs(value - exact) <= abs(horner - exact) + ulp


class TestRatioError:
    def test_m1_has_no_ratio_components(self, f1_system):
        v = solve_type1(f1_system, MultiIndex((2,)))
        grid = EvalGrid([mpc(0, 2)])
        assert convergence_row(f1_system, None, v, grid).err == ()

    def test_matches_inline_oracle(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((6, 6)))
        grid = EvalGrid.default(m2_16_system, None, circle_points=16, segment_points=4)
        row = convergence_row(m2_16_system, None, v, grid)
        # a_1/a_2 tends to -sigma_2-hat (m=2, j=1 target sign is -1)
        sigma2 = m2_16_system.generators[1]
        target, skip = at_p(lambda z: -cauchy_eval(sigma2, z)), noise_floor(0.5)
        assert_no_farther_than_horner(
            row.err[0], lambda: normalized_sup(v, grid, 1, target, skip)
        )
        assert all(abs(v.a[2](z)) >= noise_floor(0.5) for z in grid.points)

    def test_error_shrinks_with_order(self, m2_16_system):
        grid = EvalGrid.default(m2_16_system, None, circle_points=16, segment_points=4)
        e4, e8 = (
            convergence_row(m2_16_system, None, solve_type1(m2_16_system, MultiIndex((k, k))), grid)
            for k in (4, 8)
        )
        assert e8.err[0] < e4.err[0]

    def test_normalization_independence(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((4, 4)))
        scaled = TypeIVector(
            tuple(p * mpf(3) for p in v.a),
            v.n,
            v.order_target,
            v.residual_order,
            v.nullity_flag,
            v.precision_bits,
        )
        grid = EvalGrid.default(m2_16_system, None, circle_points=8, segment_points=2)
        a = convergence_row(m2_16_system, None, v, grid)
        b = convergence_row(m2_16_system, None, scaled, grid)
        assert abs(a.err[0] - b.err[0]) <= noise_floor(0.5) * (1 + a.err[0])

    def test_degenerate_last_component(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((4, 4)))
        broken = TypeIVector(
            (v.a[0], v.a[1], Polynomial.zero()),
            v.n,
            v.order_target,
            v.residual_order,
            v.nullity_flag,
            v.precision_bits,
        )
        grid = EvalGrid([mpc(0, 2)])
        with pytest.raises(ValueError):
            convergence_row(m2_16_system, None, broken, grid)


class TestRatioErrorA0:
    def test_m1_unperturbed_target(self, f1_system):
        # m=1: a_0/a_1 tends to -s-hat_{1,1}
        v = solve_type1(f1_system, MultiIndex((2,)))
        grid = EvalGrid([mpc(0, 3), mpc(4, 1)])
        row = convergence_row(f1_system, None, v, grid)
        sigma = f1_system.generators[0]
        # its two points round alike in Horner and in the power rows
        assert row.err0 == normalized_sup(
            v, grid, 0, lambda z: -cauchy_eval(sigma, z), noise_floor(0.5)
        )

    def test_m2_unperturbed_target_is_reversed_chain(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((4, 4)))
        z = mpc(0, 6)
        grid = EvalGrid([z])
        row = convergence_row(m2_16_system, None, v, grid)
        target = cauchy_eval(m2_16_system.chain(2, 1), z)
        assert_no_farther_than_horner(
            row.err0, lambda: abs(v.a[0](z) / v.a[2](z) - target) / abs(target)
        )

    def test_perturbed_error_decreases(self, m2_16_system, pert_pm5):
        grid = EvalGrid.default(m2_16_system, pert_pm5, circle_points=16, segment_points=4)
        errs = []
        for k in (3, 5, 7):
            v = solve_type1_perturbed(m2_16_system, pert_pm5, MultiIndex((k, k)))
            errs.append(convergence_row(m2_16_system, pert_pm5, v, grid).err0)
        assert errs[2] < errs[1] < errs[0]


class TestConvergenceRow:
    def test_entries_are_target_normalized(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((4, 4)))
        grid = EvalGrid.default(m2_16_system, None, circle_points=8, segment_points=2)
        row = convergence_row(m2_16_system, None, v, grid)
        sigma2 = m2_16_system.generators[1]
        chain21 = m2_16_system.chain(2, 1)
        skip = noise_floor(0.5)
        t1 = at_p(lambda z: -cauchy_eval(sigma2, z))
        t0 = at_p(lambda z: cauchy_eval(chain21, z))
        assert_no_farther_than_horner(row.err[0], lambda: normalized_sup(v, grid, 1, t1, skip))
        assert_no_farther_than_horner(row.err0, lambda: normalized_sup(v, grid, 0, t0, skip))

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_shared_targets_match_the_per_row_formula(self, m2_16_system, pert_pm5, perturbed):
        # a sweep's rows share the target transforms through the system's
        # table; a row from a cold table must equal one from a warm table bit
        # for bit, and both must match the formula that evaluated the
        # targets inside every ratio error, as close to it at 3P as Horner
        # at P is.  a_2 is made to vanish at z0, just off the last interval,
        # where the targets peak: a skipped point must not count toward the
        # target scale
        sys, pert = m2_16_system, (pert_pm5 if perturbed else None)
        z0 = mpf("3.001")
        base = EvalGrid.default(sys, pert, circle_points=8, segment_points=2)
        grid = EvalGrid(list(base.points) + [z0])
        vs = []
        for k in (3, 5):
            n = MultiIndex((k, k))
            v = solve_type1_perturbed(sys, pert, n) if perturbed else solve_type1(sys, n)
            a = v.a[:-1] + (v.a[-1] * Polynomial([-z0, 1]),)
            vs.append(TypeIVector(a, v.n, v.order_target, v.residual_order, False, 256))

        m = sys.m
        skip_below = noise_floor(0.5)

        def t0(z):
            acc = (-1) ** m * cauchy_eval(sys.chain(m, 1), z)
            if pert is not None:
                for j in range(1, m):
                    f = pert.fractions[j - 1]
                    if not f.is_zero:
                        acc -= (-1) ** (m - j) * f(z) * cauchy_eval(sys.chain(m, j + 1), z)
                if not pert.fractions[m - 1].is_zero:
                    acc -= pert.fractions[m - 1](z)
            return acc

        targets = [at_p(t0)] + [
            at_p(lambda z, j=j: (-1) ** (m - j) * cauchy_eval(sys.chain(m, j + 1), z))
            for j in range(1, m)
        ]

        def per_row(v, j):
            """The per-row formula for a_j/a_m at the ambient precision."""
            err, scale, skipped = mpf(0), mpf(0), 0
            for z in grid.points:
                den = v.a[m](z)
                if abs(den) < skip_below:
                    skipped += 1
                    continue
                t = targets[j](z)
                scale = max(scale, abs(t))
                err = max(err, abs(v.a[j](z) / den - t))
            assert skipped == 1
            return err / max(scale, mpf(2) ** (-mp.prec))

        assert len(ratio_targets(sys, pert, grid)) == len(grid.points)
        for v in vs:
            cold = NikishinSystem(sys.generators, sys.chains)
            row = convergence_row(cold, pert, v, grid)
            warm = convergence_row(sys, pert, v, grid)
            assert (warm.err, warm.err0) == (row.err, row.err0)
            assert_no_farther_than_horner(row.err0, lambda: per_row(v, 0))
            for j in range(1, m):
                assert_no_farther_than_horner(row.err[j - 1], lambda: per_row(v, j))


class TestEstimateRate:
    def test_exact_geometric_sequence(self):
        rows = fake_rows(["1e-2", "1e-4", "1e-6"], ["1e-2", "1e-4", "1e-6"])
        est = estimate_rate(rows)
        expected = mpf(10) ** mpf("-0.5")
        assert abs(est.deltas["err_1"] - expected) < mpf("1e-30")
        assert abs(est.deltas["err_0"] - expected) < mpf("1e-30")

    def test_constant_errors_give_one(self):
        est = estimate_rate(fake_rows([1, 1, 1], [1, 1, 1]))
        assert abs(est.deltas["err_1"] - 1) < mpf("1e-30")

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            estimate_rate(fake_rows(["1e-2"], ["1e-2"]))

    def test_zero_rows_excluded_with_note(self):
        rows = fake_rows(["1e-2", 0, "1e-6"], ["1e-2", "1e-4", "1e-6"])
        est = estimate_rate(rows)
        assert any("excluded" in note for note in est.notes)
        assert est.deltas["err_1"] is not None

    def test_duplicate_totals_rejected(self):
        rows = fake_rows(["1e-2", "1e-4", "1e-6"], ["1e-2", "1e-4", "1e-6"])
        rows[1] = ConvergenceRow(rows[0].n, rows[1].err, rows[1].err0, False, 256)
        with pytest.raises(ValueError):
            estimate_rate(rows)


class TestSignChanges:
    def test_simple_alternation(self):
        assert sign_changes([1, -1, 1]) == 2

    def test_near_zero_ignored(self):
        assert sign_changes([1, mpf(2) ** -200, 1]) == 0

    def test_all_zero_rejected(self):
        # the ignore rule is relative to the list max, so only an exactly
        # vanishing value list counts as "vanishes on grid"
        with pytest.raises(ValueError):
            sign_changes([0, 0])

    def test_f1_linear_remainder(self):
        # A_1 = z sampled at (-1.5, 0, 1.5): the middle value is numerically zero
        assert sign_changes([mpf("-1.5"), mpf(0), mpf("1.5")]) == 1

    def test_solver_grid_meets_lower_bound(self, m2_16_system):
        for k in (3, 5):
            v = solve_type1(m2_16_system, MultiIndex((k, k)))
            count = sign_changes(first_level_remainder_values(m2_16_system, v))
            assert count >= 2 * k - 1

    def test_refined_grid_is_denser(self, m2_16_system):
        base = first_level_sign_grid(m2_16_system)
        fine = first_level_sign_grid(m2_16_system, refine=True)
        assert len(fine) > len(base)
        assert base == sorted(base) and fine == sorted(fine)


class TestPoleAttraction:
    def synthetic_vector(self, a1_roots, a2_roots):
        a1 = Polynomial.from_roots(a1_roots)
        a2 = Polynomial.from_roots(a2_roots)
        n = MultiIndex((len(a1_roots) + 1, len(a2_roots) + 1))
        return TypeIVector((Polynomial.zero(), a1, a2), n, n.total, n.total, False, 256)

    def test_no_perturbation_empty_counts(self):
        v = self.synthetic_vector([2], [2.5])
        rep = pole_attraction(None, v, 2, mpf("0.25"), Interval(1, 3))
        assert rep.counts == ()
        assert rep.total_roots == 1

    def test_counts_and_strays(self):
        pert = RationalPerturbation([RationalFn([1], [-5, 1]), RationalFn.zero()])
        v = self.synthetic_vector([5.1, 0.1], [5.05, 2])
        rep1 = pole_attraction(pert, v, 1, mpf("0.25"), Interval(1, 3))
        assert rep1.counts[0][1] == 1  # kappa
        assert rep1.counts[0][2] == 1  # one root within eps of 5
        assert len(rep1.strays) == 1  # the root at 0.1
        rep2 = pole_attraction(pert, v, 2, mpf("0.25"), Interval(1, 3))
        assert rep2.counts[0][2] == 1
        assert len(rep2.strays) == 0  # root at 2 sits on the last interval

    def test_eps_validation(self):
        pert = RationalPerturbation(
            [RationalFn([1], [-5, 1]), RationalFn([1], ["-5.6", 1])]
        )
        v = self.synthetic_vector([5.1], [2])
        with pytest.raises(ValueError):
            pole_attraction(pert, v, 1, mpf("0.4"), Interval(1, 3))  # poles 0.6 apart
        pert2 = RationalPerturbation([RationalFn([1], [-5, 1]), RationalFn.zero()])
        with pytest.raises(ValueError):
            pole_attraction(pert2, v, 1, mpf("1.5"), Interval(1, 3))  # too close to support

    def test_nan_eps_rejected(self):
        # every comparison with NaN is false, so no zero would ever count as captured
        pert = RationalPerturbation([RationalFn([1], [-5, 1]), RationalFn.zero()])
        v = self.synthetic_vector([5.1], [2])
        with pytest.raises(ValueError, match="eps must be positive"):
            pole_attraction(pert, v, 1, mp.nan, Interval(1, 3))

    def test_zero_component_rejected(self):
        pert = RationalPerturbation([RationalFn([1], [-5, 1]), RationalFn.zero()])
        v = TypeIVector(
            (Polynomial.zero(), Polynomial.one(), Polynomial.zero()),
            MultiIndex((1, 1)),
            2,
            2,
            False,
            256,
        )
        with pytest.raises(ValueError):
            pole_attraction(pert, v, 2, mpf("0.25"), Interval(1, 3))
