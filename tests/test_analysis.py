"""Ratio-limit errors, rate estimation, sign counting, pole attraction."""

import math
import random

import pytest
from mpf_reference import _values_at
from mpmath import mp, mpc, mpf
from mpmath.libmp import mpf_neg

from nikishin_hp import analysis
from nikishin_hp.analysis import _one_per_conjugate_pair, _PowerRow
from nikishin_hp.measures import _integer_row
from nikishin_hp.nikishin import s_hat_evals
from nikishin_hp import (
    AtomicMeasure,
    ConvergenceRow,
    EvalGrid,
    Interval,
    MeasureSpec,
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
    noise_floor,
    pole_attraction,
    ratio_targets,
    realize,
    sign_changes,
    solve_type1,
    solve_type1_perturbed,
    system_from_generators,
)


def fake_rows(errs, err0s, flags=None, digits=None):
    rows = []
    flags = flags or [False] * len(errs)
    digits = digits or [30.0] * len(errs)
    for k, (e, e0, flag, d) in enumerate(zip(errs, err0s, flags, digits), start=1):
        rows.append(ConvergenceRow(MultiIndex((2 * k, 2 * k)), (mpf(e),), mpf(e0), flag, 256, d))
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

    @pytest.mark.parametrize("key", ["circle_points", "segment_points"])
    @pytest.mark.parametrize("count", [8.5, True, "8", None])
    def test_non_integer_point_count_rejected(self, m2_16_system, key, count):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
            EvalGrid.default(m2_16_system, None, **{key: count})

    def test_integral_float_point_counts_give_the_integer_grid(self, m2_16_system):
        got = EvalGrid.default(m2_16_system, None, circle_points=8.0, segment_points=3.0)
        want = EvalGrid.default(m2_16_system, None, circle_points=8, segment_points=3)
        assert got == want and len(got.points) == 11

    @pytest.mark.parametrize(
        "intervals, segment",
        [
            ([(-1, 0)], False),  # m = 1: the first interval is the last
            ([(-1, 0), (1, 3)], True),
            ([(1, 3), (-1, 0)], True),
            ([(-1, 0), (0, 2)], False),  # touching: no gap to sample
            ([(-1, 0), (1, 3), (-3, -2)], True),  # first and last apart
            ([(-1, 0), (1, 3), (-0.5, 0.5)], False),  # first and last overlap
        ],
    )
    def test_segment_only_in_a_gap(self, intervals, segment):
        # atoms away from a shared endpoint; only the supports decide
        gens = [
            AtomicMeasure([a + (b - a) / 4, b - (b - a) / 4], [1, 1], 1, Interval(a, b))
            for a, b in intervals
        ]
        sys = NikishinSystem(tuple(gens), {})
        grid = EvalGrid.default(sys, None, circle_points=4, segment_points=3)
        assert len(grid.points) == 4 + (3 if segment else 0)


def explicit_rule_before(sys, pert, points, pole_eps):
    """The reference: the rule cli applied to explicit grid points before
    EvalGrid.admissible, copied as it was.  A point is kept off the last
    interval, farther than 2^-P/2 from every atom and pole, and at least
    pole_eps from every pole."""
    last = sys.intervals[-1]
    poles = [zeta for zeta, _ in pert.poles] if pert is not None else []
    singular = [x for mu in sys.generators for x in mu.nodes] + poles
    tol = noise_floor(0.5)
    return [
        z
        for z in points
        if last.distance_to(z) > 0
        and all(abs(z - x) > tol for x in singular)
        and all(abs(z - zeta) >= pole_eps for zeta in poles)
    ]


def adversarial_points(sys, pert, pole_eps):
    """Points on and just beside every rule's boundary: each atom and pole
    moved by +-tol/2 and +-3 tol/2 along both axes (tol = 2^-P/2), points
    at distance pole_eps from a pole and just inside it, and real points on
    the last interval, at its ends and just beside it."""
    tol = noise_floor(0.5)
    shifts = [s * tol for s in (mpf(1) / 2, -mpf(1) / 2, mpf(3) / 2, -mpf(3) / 2)]
    pts = []
    for mu in sys.generators:
        for x in (mu.nodes[0], mu.nodes[len(mu.nodes) // 2], mu.nodes[-1]):
            pts += [mpc(x + d) for d in shifts] + [mpc(x, d) for d in shifts]
    for zeta, _ in pert.poles:
        pts += [zeta + d for d in shifts] + [zeta + mpc(0, d) for d in shifts]
        for eps in (mpf(pole_eps), mpf(pole_eps) - tol):
            pts += [zeta + eps, zeta - eps, zeta + mpc(0, eps)]
    last = sys.intervals[-1]
    for x in (last.a, (last.a + last.b) / 2, last.b):
        pts += [mpc(x), mpc(x - tol), mpc(x + tol), mpc(x, tol)]
    pts += [mpc(last.a - 1), mpc(last.b + 1), mpc(0, 2)]
    return pts


class TestAdmissible:
    """EvalGrid.admissible, the one point filter of the default and the
    explicit grids."""

    @pytest.fixture(scope="class")
    def systems(self, m2_16_system):
        # a system with atoms at both ends of its first interval, where the
        # on-support test's box pre-test is tightest
        ends = AtomicMeasure([-1, "-0.25", 0], [1, 2, 1], 1, Interval(-1, 0))
        last = AtomicMeasure(["1.5", 2, "2.5"], [1, 1, 1], 1, Interval(1, 3))
        return [m2_16_system, NikishinSystem((ends, last), {})]

    @pytest.mark.parametrize("pole_eps", [0, mpf("0.25")])
    @pytest.mark.parametrize("which", [0, 1])
    def test_keeps_exactly_the_explicit_rule_points_in_order(self, systems, which, pole_eps):
        sys = systems[which]
        # a pole at 5 and one in the gap between the supports
        pert = RationalPerturbation([RationalFn([1], [-5, 1]), RationalFn([1], ["-0.5", 1])])
        pts = adversarial_points(sys, pert, pole_eps)
        want = explicit_rule_before(sys, pert, pts, pole_eps)
        got = EvalGrid.admissible(sys, pert, pts, pole_eps).points
        assert [z._mpc_ for z in got] == [z._mpc_ for z in want]
        # the shifts reach both sides of every rule
        assert 0 < len(want) < len(pts)

    def test_no_point_left_names_every_rule(self, m2_16_system, pert_pm5):
        tol = noise_floor(0.5)
        atom = m2_16_system.generators[0].nodes[3]
        pts = [mpc(2), mpc(atom + tol / 2), mpc(5 + tol / 4)]
        with pytest.raises(ValueError, match="last interval") as info:
            EvalGrid.admissible(m2_16_system, pert_pm5, pts, 0)
        assert "atom" in str(info.value) and "pole" in str(info.value)

    def test_default_grid_keeps_no_point_on_the_last_interval(self):
        # with radius_factor 1.001 the circle's radius, 1.001 times the
        # largest atom 2.98940, put the point 2.99239 on [1, 3]; the
        # default grid dropped nothing but points near a pole
        with mp.workprec(128):
            sys = system_from_generators(
                realize(MeasureSpec("legendre-density", Interval(a, b), 16))
                for a, b in ((-1, 0), (1, 3))
            )
            grid = EvalGrid.default(sys, None, mpf("1.001"), 16, 4)
            last = sys.intervals[-1]
            assert all(last.distance_to(z) > 0 for z in grid.points)
            assert len(grid.points) == 16 + 4 - 1

    def test_default_grid_drops_circle_points_on_an_atom(self):
        # radius 1 + 10^-71 puts the circle points +-(1 + 10^-71), off the
        # interval [-1, 1], within 2^-P/2 of the atoms +-1
        mu = AtomicMeasure([-1, 1], ["0.5", "0.5"], 1, Interval(-1, 1))
        sys = system_from_generators([mu])
        grid = EvalGrid.default(sys, None, mpf(1) + mpf(10) ** -71, 8, 0)
        assert [z.imag != 0 for z in grid.points] == [True] * 6


def terms_size(p, z):
    """sum_k |c_k z^k| for the coefficients c_k of p."""
    return mp.fsum(abs(c * z**k) for k, c in enumerate(p.coeffs))


def normalized_sup(v, grid, numerator, target, skip_below):
    """Oracle: sup |a_num/a_m - target| over the points with |a_m| >=
    skip_below sum_k |c_k z^k| (the c_k those of a_m), divided by the
    target's sup over the same points.  The polynomials are evaluated by
    Horner at the ambient precision."""
    m = v.m
    err, scale = mpf(0), mpf(0)
    for z in grid.points:
        den = v.a[m](z)
        if abs(den) < skip_below * terms_size(v.a[m], z):
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
            v.nullity_flag,
            v.precision_bits,
            v.digits,
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
            v.nullity_flag,
            v.precision_bits,
            v.digits,
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
            vs.append(TypeIVector(a, v.n, v.order_target, False, 256, v.digits))

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
                if abs(den) < skip_below * terms_size(v.a[m], z):
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

    def test_flagged_rows_excluded_with_note(self):
        # the flagged middle row would bend the line; the rate is the outer
        # rows' 10^-1 per unit |n|, fitted at their least digits
        rows = fake_rows(["1e-2", "1e-9", "1e-10"], ["1e-2", "1", "1e-10"], [False, True, False], [40.0, 19.3, 12.5])
        est = estimate_rate(rows)
        assert "err_1: row |n|=8 excluded (flagged)" in est.notes
        assert "err_0: row |n|=8 excluded (flagged)" in est.notes
        for name in ("err_1", "err_0"):
            assert abs(est.deltas[name] - mpf("0.1")) < mpf("1e-30")
            assert est.digits[name] == 12.5

    def test_a_column_left_with_one_row_has_no_rate(self):
        rows = fake_rows(["1e-2", "1e-4", "1e-6"], ["1e-2", "1e-4", "1e-6"], [True, True, False])
        est = estimate_rate(rows)
        assert est.deltas == {"err_1": None, "err_0": None}
        assert est.digits == {"err_1": None, "err_0": None}

    def test_duplicate_totals_rejected(self):
        rows = fake_rows(["1e-2", "1e-4", "1e-6"], ["1e-2", "1e-4", "1e-6"])
        rows[1] = ConvergenceRow(rows[0].n, rows[1].err, rows[1].err0, False, 256, 30.0)
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


class TestPoleAttraction:
    def synthetic_vector(self, a1_roots, a2_roots):
        a1 = Polynomial.from_roots(a1_roots)
        a2 = Polynomial.from_roots(a2_roots)
        n = MultiIndex((len(a1_roots) + 1, len(a2_roots) + 1))
        return TypeIVector((Polynomial.zero(), a1, a2), n, n.total, False, 256, math.inf)

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
            False,
            256,
            math.inf,
        )
        with pytest.raises(ValueError):
            pole_attraction(pert, v, 2, mpf("0.25"), Interval(1, 3))


def conjugate_bits(w):
    re, im = mpc(w)._mpc_
    return re, mpf_neg(im)


def integer_values(coeffs, z):
    """_PowerRow(z).values(coeffs) on a fresh row just long enough for the longest polynomial."""
    row = _PowerRow(z)
    row.extend(max(len(ints) for ints, _ in coeffs))
    return row.values(coeffs)


class TestPowerRows:
    """The integer evaluation of the convergence rows against the former mpf one.

    mpf_reference._values_at multiplies each c_k by z^k exactly (mpf_mul)
    and sums the products exactly (mpf_sum at precision 0) before rounding
    once to P; _PowerRow.values forms the same exact sums as integer dot
    products and rounds them once, so every value has the same bits.  The
    size differs in one respect: mpf_sum(..., prec, absolute=True), which
    formed the former size, drops terms more than 2P bits below its
    accumulator, so the size, the exact sum rounded once, can differ from
    it by one ulp only there, and the size feeds only the skip gate.  On
    the cases here the sizes agree too.
    """

    POINTS = [
        mpc(3, 0),  # real, |z| > 1
        mpc("0.3", 0),  # real, |z| < 1
        mpc(-2, 0),
        mpc("-0.71", 0),
        mpc("0.25", "-0.6"),
        mpc(7, 2),
        mpc(0, "1.5"),
    ]

    @staticmethod
    def vector(rng):
        """Coefficient lists of lengths 0, 9, 1, 6 and 13, with exact zeros inside, some 2^+-40 apart."""
        lists = []
        for length in (0, 9, 1, 6, 13):
            cs = [mpf(rng.uniform(-1, 1)) * mpf(2) ** rng.randint(-40, 40) for _ in range(length)]
            for k in range(1, length - 1, 3):
                cs[k] = mpf(0)
            lists.append(cs)
        return lists

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_values_and_size_are_the_former_bits(self, bits):
        rng = random.Random(bits)
        with mp.workprec(bits):
            for z in self.POINTS:
                for _ in range(3):
                    lists = self.vector(rng)
                    coeffs = [_integer_row(cs) for cs in lists]
                    values, size = integer_values(coeffs, z)
                    want, want_size = _values_at([[c._mpf_ for c in cs] for cs in lists], z)
                    assert [u._mpc_ for u in values] == [u._mpc_ for u in want]
                    assert size._mpf_ == want_size._mpf_

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_a_row_grown_in_steps_is_the_row_formed_at_once(self, bits):
        # extension continues from the last power, so the integers, their
        # exponent and the values do not depend on how the row grew
        rng = random.Random(bits + 1)
        with mp.workprec(bits):
            for z in self.POINTS:
                at_once, in_steps = _PowerRow(z), _PowerRow(z)
                at_once.extend(25)
                for count in (1, 3, 2, 11, 25, 7):
                    in_steps.extend(count)
                assert (in_steps.exp, in_steps.re, in_steps.im) == (at_once.exp, at_once.re, at_once.im)
                coeffs = [_integer_row(cs) for cs in self.vector(rng)]
                assert in_steps.values(coeffs) == at_once.values(coeffs)

    def test_a_non_finite_point_or_coefficient_raises(self, m2_16_system):
        with pytest.raises(ValueError, match="not finite"):
            _PowerRow(mpc("inf", 1))
        v = solve_type1(m2_16_system, MultiIndex((2, 2)))
        broken = TypeIVector(
            (Polynomial([mpf("nan")]),) + v.a[1:],
            v.n,
            v.order_target,
            v.nullity_flag,
            v.precision_bits,
            v.digits,
        )
        with pytest.raises(ValueError, match="not finite"):
            convergence_row(m2_16_system, None, broken, EvalGrid([mpc(0, 2)]))


def row_bits(row):
    return [e._mpf_ for e in row.err], row.err0._mpf_


def fresh_row(sys, pert, v, grid):
    """convergence_row on a copy of sys and of grid whose tables are empty."""
    return convergence_row(NikishinSystem(sys.generators, sys.chains), pert, v, EvalGrid(grid.points))


class TestSharedTables:
    """A row on a grid and a system that earlier rows filled is the row on empty tables, bit for bit.

    The grid keeps, per precision, its points and their power rows; the
    system keeps, per perturbation and precision, the targets of each
    point.  Each sequence below would read a wrongly keyed entry.
    """

    @staticmethod
    def grid(sys, pert=None):
        return EvalGrid.default(sys, pert, circle_points=16, segment_points=4)

    def test_a_descending_then_ascending_sweep(self, m2_32_system, sweep_solutions):
        # the descending rows form the powers for k = 8 at once, the
        # ascending ones read them and then extend them to k = 12
        grid = self.grid(m2_32_system)
        plain = sweep_solutions["plain"]
        for k in (8, 6, 4, 6, 10, 12):
            row = convergence_row(m2_32_system, None, plain[k], grid)
            assert row_bits(row) == row_bits(fresh_row(m2_32_system, None, plain[k], grid))
        _, powers = grid.powers[mp.prec]
        for row in powers:
            fresh = _PowerRow(mp.make_mpc(row.z))
            fresh.extend(len(row.re))
            assert (fresh.exp, fresh.re, fresh.im) == (row.exp, row.re, row.im)

    def test_plain_then_perturbed_then_plain(self, m2_32_system, pert_pm5, sweep_solutions):
        sys = NikishinSystem(m2_32_system.generators, m2_32_system.chains)
        grid = self.grid(sys, pert_pm5)
        v, vp = sweep_solutions["plain"][6], sweep_solutions["perturbed"][6]
        for pert, vector in ((None, v), (pert_pm5, vp), (None, v), (pert_pm5, v)):
            row = convergence_row(sys, pert, vector, grid)
            assert row_bits(row) == row_bits(fresh_row(sys, pert, vector, grid))
        assert set(sys.targets) == {(None, mp.prec), (pert_pm5, mp.prec)}

    def test_two_systems_on_one_grid(self, m2_16_system, m2_32_system, sweep_solutions):
        grid = EvalGrid([mpc(0, 3), mpc(5, 1), mpc(5, -1), mpc(-4, 2), mpc(2, "0.5")])
        small = solve_type1(m2_16_system, MultiIndex((4, 4)))
        big = sweep_solutions["plain"][4]
        for sys, v in ((m2_16_system, small), (m2_32_system, big), (m2_16_system, big), (m2_32_system, small)):
            row = convergence_row(sys, None, v, grid)
            assert row_bits(row) == row_bits(fresh_row(sys, None, v, grid))

    def test_two_precisions(self, m2_32_system, pert_pm5, sweep_solutions):
        sys = NikishinSystem(m2_32_system.generators, m2_32_system.chains)
        grid = self.grid(sys, pert_pm5)
        v = sweep_solutions["perturbed"][8]
        bits = mp.prec
        for prec in (bits, bits + 64, bits, 2 * bits):
            with mp.workprec(prec):
                row = convergence_row(sys, pert_pm5, v, grid)
                assert row_bits(row) == row_bits(fresh_row(sys, pert_pm5, v, grid))
        assert sorted(grid.powers) == [bits, bits + 64, 2 * bits]


class TestConjugatePoints:
    """Real measures and real coefficients, with mpmath's symmetric rounding:
    every value a row reads at z-bar is the exact conjugate of its value at z,
    so a row evaluates one point of each exact conjugate pair."""

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_values_at_the_conjugate_are_exact_conjugates(
        self, m2_32_system, pert_pm5, sweep_solutions, perturbed
    ):
        # the README fixture at k = 8, on its default grid; the perturbed
        # targets evaluate r_1, r_2 at complex points
        pert = pert_pm5 if perturbed else None
        v = sweep_solutions["perturbed" if perturbed else "plain"][8]
        coeffs = [_integer_row(p.coeffs) for p in v.a]
        sys = NikishinSystem(m2_32_system.generators, m2_32_system.chains)
        grid = EvalGrid.default(sys, pert)
        lower = EvalGrid([mpc(z.real, -z.imag) for z in grid.points])
        targets = ratio_targets(sys, pert, grid)
        lower_targets = ratio_targets(sys, pert, lower)
        for z, w, row, lower_row in zip(grid.points, lower.points, targets, lower_targets):
            (values, size), (bar_values, bar_size) = (integer_values(coeffs, p) for p in (z, w))
            assert [u._mpc_ for u in bar_values] == [conjugate_bits(u) for u in values]
            assert bar_size == size
            s, s_bar = (s_hat_evals(sys, 2, (1, 2), p) for p in (z, w))
            assert [u._mpc_ for u in s_bar] == [conjugate_bits(u) for u in s]
            assert [u._mpc_ for u in lower_row] == [conjugate_bits(u) for u in row]

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_row_is_that_of_the_upper_half_or_its_mirror(
        self, m2_32_system, pert_pm5, sweep_solutions, perturbed
    ):
        pert = pert_pm5 if perturbed else None
        grid = EvalGrid.default(m2_32_system, pert)
        # the circle's upper half with its two real points, and the gap
        # segment, which lies above the axis
        upper = EvalGrid([z for z in grid.points if z.imag >= 0])
        mirrored = EvalGrid([mpc(z.real, -z.imag) for z in upper.points])
        assert len(grid.points) == 80 and len(upper.points) == 49
        for v in sweep_solutions["perturbed" if perturbed else "plain"].values():
            rows = [convergence_row(m2_32_system, pert, v, g) for g in (grid, upper, mirrored)]
            bits = [([e._mpf_ for e in r.err], r.err0._mpf_) for r in rows]
            assert bits[0] == bits[1] == bits[2]

    def test_only_exact_conjugates_are_dropped(self):
        a, b = mpf("0.3"), mpf("1.7")
        points = [
            mpc(a, -b),
            mpc(5, 0),
            mpc(a, b),  # conjugate of the first
            mpc(a, b),  # a repeat, not a conjugate, of a kept point
            mpc(a + mpf(2) ** -200, -b),
            mpc(5, 0),
            mpc(-1, 2),
        ]
        kept = _one_per_conjugate_pair(EvalGrid(points)).points
        assert kept == (points[0], points[1], points[4], points[5], points[6])

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_grid_without_pairs_gives_the_full_row(
        self, m2_16_system, pert_pm5, monkeypatch, perturbed
    ):
        # near-conjugates are kept, and the row is the one evaluated over
        # every point
        pert = pert_pm5 if perturbed else None
        eps = mpf(2) ** -100
        grid = EvalGrid([mpc(2, 3), mpc(2, -3 - eps), mpc(6, 1), mpc(-4, -1), mpc(9, 0)])
        assert _one_per_conjugate_pair(grid).points == grid.points
        sys, n = m2_16_system, MultiIndex((5, 5))
        v = solve_type1_perturbed(sys, pert, n) if perturbed else solve_type1(sys, n)
        row = convergence_row(sys, pert, v, grid)
        monkeypatch.setattr(analysis, "_one_per_conjugate_pair", lambda g: g)
        # a fresh grid: the first one keeps the points it evaluated
        full = fresh_row(sys, pert, v, grid)
        assert ([e._mpf_ for e in row.err], row.err0._mpf_) == (
            [e._mpf_ for e in full.err],
            full.err0._mpf_,
        )
