"""Order-condition assembly, type I/II solves, reduction, remainders, orthogonality."""

import dataclasses

import pytest
from mpmath import mp, mpc, mpf

from nikishin_hp import hermite_pade
from nikishin_hp import (
    MAX_PRECISION_BITS,
    AtomicMeasure,
    Interval,
    LaurentTail,
    MeasureSpec,
    MultiIndex,
    Polynomial,
    RationalFn,
    RationalPerturbation,
    SystemSpec,
    TypeIVector,
    assemble_type1_system,
    build_system,
    check_orthogonality,
    moments,
    noise_floor,
    perturbed_reduce,
    remainder_eval,
    solve_type1,
    solve_type1_perturbed,
    solve_type2,
    system_from_generators,
    type2_residual_tail,
    working_precision,
)
from nikishin_hp.hermite_pade import (
    _achieved_order,
    _escalate,
    _nullspace_min_direction,
    _tail_sum,
    _type1_tails,
)
from nikishin_hp.linalg import svd_sv

TIGHT = mpf(10) ** -70


def unit_at(x, lo, hi):
    return AtomicMeasure([x], [1], 1, Interval(lo, hi))


class TestMultiIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex(())
        with pytest.raises(ValueError):
            MultiIndex((0, 0))
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    def test_accessors(self):
        n = MultiIndex((2, 5))
        assert n.total == 7 and n.max_part == 5 and n.spread == 3
        assert list(n) == [2, 5]
        assert MultiIndex.diagonal(3, 4).parts == (4, 4, 4)


class TestAssembly:
    def test_hand_assembled_row(self):
        tails = [LaurentTail([1, 0, 1, 0, 1])]
        A = assemble_type1_system(tails, MultiIndex((2,)), 0)
        assert (A.rows, A.cols) == (1, 2)
        assert A[0, 0] == 1 and A[0, 1] == 0

    def test_no_conditions_for_total_one(self):
        A = assemble_type1_system([LaurentTail([1])], MultiIndex((1,)), 0)
        assert (A.rows, A.cols) == (0, 1)

    def test_full_deficit_empty_matrix(self):
        tails = [LaurentTail([1, 2, 3]), LaurentTail([1, 2, 3])]
        A = assemble_type1_system(tails, MultiIndex((2, 1)), 2)
        assert (A.rows, A.cols) == (0, 3)

    def test_one_more_column_than_rows_when_complete(self):
        tails = [LaurentTail(range(1, 12)), LaurentTail(range(2, 13))]
        n = MultiIndex((3, 2))
        A = assemble_type1_system(tails, n, 0)
        assert A.cols == A.rows + 1 == n.total

    def test_short_tails_rejected(self):
        with pytest.raises(ValueError):
            assemble_type1_system([LaurentTail([1, 2])], MultiIndex((3,)), 0)


def padded_svd_r(A):
    """Oracle: mp.svd_r on A padded with zero rows to a square."""
    rows, cols = A.rows, A.cols
    S = mp.matrix(cols, cols)
    for i in range(rows):
        for j in range(cols):
            S[i, j] = A[i, j]
    _, svals, V = mp.svd_r(S)
    return [svals[i] for i in range(cols)], [V[cols - 1, j] for j in range(cols)]


def bits(values):
    return [x._mpf_ for x in values]


def assert_matches_oracle(A, expected_rank):
    vec, flag, svals = _nullspace_min_direction(A, expected_rank)
    oracle_svals, oracle_vec = padded_svd_r(A)
    assert bits(svals) == bits(oracle_svals)
    assert bits(vec) == bits(oracle_vec)
    if expected_rank > 0:
        gap = oracle_svals[expected_rank - 1] <= 2**10 * oracle_svals[expected_rank]
        assert flag == gap
    return flag


def type1_matrix(sys, pert, n):
    return assemble_type1_system(_type1_tails(sys, pert, n, n.total + n.max_part + 4), n, 0)


class TestNullspaceKernel:
    """The V-only SVD reproduces padded mp.svd_r bit for bit."""

    def test_readme_type1_matrix(self, m2_32_system, pert_pm5):
        n = MultiIndex((8, 8))
        A = type1_matrix(m2_32_system, pert_pm5, n)
        assert (A.rows, A.cols) == (15, 16)
        assert not assert_matches_oracle(A, n.total - 1)

    def test_square_type2_matrix(self, m2_16_system):
        n = MultiIndex((3, 3))
        total = n.total
        tails = [moments(m2_16_system.chain(1, j), total + n.max_part + 4) for j in (1, 2)]
        rows = [[tails[j][nu + mu] for mu in range(total + 1)] for j in range(2) for nu in range(n[j])]
        square = mp.matrix(rows + [[0] * (total + 1)])
        assert_matches_oracle(square, total)
        # the solver drops the zero row: same bits
        vec, _, svals = _nullspace_min_direction(mp.matrix(rows), total)
        oracle_svals, oracle_vec = padded_svd_r(square)
        assert bits(svals) == bits(oracle_svals) and bits(vec) == bits(oracle_vec)

    def test_rank_deficient_12_atom_matrix(self):
        # |n| = 28 conditions on 12 atoms per generator: numerical rank <= 24
        sys = build_system(
            SystemSpec(
                [
                    MeasureSpec(kind="legendre-density", interval=Interval(a, b), node_count=12)
                    for a, b in ((-1, 0), (1, 3))
                ]
            )
        )
        n = MultiIndex((14, 14))
        A = type1_matrix(sys, None, n)
        assert (A.rows, A.cols) == (27, 28)
        assert_matches_oracle(A, n.total - 1)

    def test_no_rows_flags_nullity(self):
        A = assemble_type1_system([LaurentTail([1, 2, 3])], MultiIndex((1,)), 0)
        assert (A.rows, A.cols) == (0, 1)
        vec, flag, svals = _nullspace_min_direction(A, 0)
        assert flag is True
        assert vec == [1] and svals == [0]
        assert_matches_oracle(A, 0)

    def test_tall_matrix_all_of_v(self):
        rows = [[mpf((3 * i + 5 * j * j) % 11 - 5) / (i + 1) for j in range(4)] for i in range(7)]
        S, V = svd_sv(rows, 4)
        _, oracle_S, oracle_V = mp.svd_r(mp.matrix(rows))
        assert bits(S) == bits(oracle_S)
        assert [bits(row) for row in V] == [bits(oracle_V[i, :]) for i in range(4)]

    def test_input_rows_untouched(self):
        rows = [[mpf(1), mpf(2)], [mpf(3), mpf(4)]]
        svd_sv(rows, 2)
        assert rows == [[1, 2], [3, 4]]

    def test_iteration_budget_exhausted_raises(self):
        # at 8 bits mp.dps is 1, so each singular value gets 3 QR sweeps
        rows = [[mpf((3 * i + 5 * j * j) % 11 - 5) for j in range(6)] for i in range(6)]
        with mp.workprec(8):
            with pytest.raises(RuntimeError, match="no convergence"):
                mp.svd_r(mp.matrix(rows))
            with pytest.raises(RuntimeError, match="no convergence"):
                svd_sv(rows, 6)


def recording_solve(calls):
    """A stand-in solve_once: records (bits, mp.prec) and returns bits."""

    def solve_once(bits):
        calls.append((bits, mp.prec))
        if len(calls) > 10:
            raise AssertionError("the precision never stopped rising")
        return bits

    return solve_once


class TestEscalate:
    def test_bits_double_until_reached(self):
        calls = []
        with working_precision(64):
            assert _escalate(recording_solve(calls), lambda bits: bits >= 256) == 256
            assert mp.prec == 64
        assert calls == [(64, 64), (128, 128), (256, 256)]

    def test_bits_cap_at_the_maximum(self):
        calls = []
        with working_precision(96):
            assert _escalate(recording_solve(calls), lambda bits: False) == MAX_PRECISION_BITS
            assert mp.prec == 96
        assert calls == [(b, b) for b in (96, 192, 384, 768, 1536, 3072, 4096)]


def short_below_2p(once, short, attempts):
    """Wrap a once-solver so that its attempts below twice the start fall short."""
    P = mp.prec

    def solve_once(*args):
        bits = args[-1]
        attempts.append(bits)
        if len(attempts) > 2:
            raise AssertionError("escalated past 2P")
        v = once(*args)
        return v if bits >= 2 * P else dataclasses.replace(v, **short)

    return solve_once


class TestSolverEscalation:
    """Each solver climbs through _escalate: an order shortfall below 2P doubles P."""

    def test_type1(self, m2_16_system, monkeypatch):
        P, attempts = mp.prec, []
        once = short_below_2p(hermite_pade._solve_type1_once, {"residual_order": 0}, attempts)
        monkeypatch.setattr(hermite_pade, "_solve_type1_once", once)
        v = solve_type1(m2_16_system, MultiIndex((3, 3)))
        assert attempts == [P, 2 * P]
        assert v.precision_bits == 2 * P
        assert v.residual_order >= v.order_target
        assert mp.prec == P

    def test_type2(self, m2_16_system, monkeypatch):
        P, attempts = mp.prec, []
        once = short_below_2p(hermite_pade._solve_type2_once, {"residual_orders": (0, 0)}, attempts)
        monkeypatch.setattr(hermite_pade, "_solve_type2_once", once)
        v = solve_type2(m2_16_system, MultiIndex((2, 3)))
        assert attempts == [P, 2 * P]
        assert v.precision_bits == 2 * P
        assert all(o >= k + 1 for o, k in zip(v.residual_orders, v.n))
        assert mp.prec == P


class TestTypeIPlain:
    def test_f1_hand_solution(self, f1_system):
        v = solve_type1(f1_system, MultiIndex((2,)))
        assert abs(v.a[1][1] - 1) < noise_floor(0.5)  # a_1 = z
        assert abs(v.a[1][0]) < noise_floor(0.5)
        assert abs(v.a[0][0] + 1) < noise_floor(0.5)  # a_0 = -1
        assert v.residual_order >= 2
        assert not v.nullity_flag
        # remainder z s-hat - 1 = 1/(z^2-1)
        assert abs(remainder_eval(f1_system, None, v, 0, 2) - mpf(1) / 3) < TIGHT

    def test_no_conditions_means_constant(self, f1_system):
        v = solve_type1(f1_system, MultiIndex((1,)))
        assert v.a[1].degree == 0
        assert abs(v.a[1][0] - 1) < TIGHT
        assert v.a[0].is_zero
        assert v.nullity_flag  # zero constraints: every vector admissible

    def test_m2_orthogonality_residuals_vanish(self, m2_16_system):
        for k in (2, 3):
            v = solve_type1(m2_16_system, MultiIndex((k, k)))
            rep = check_orthogonality(m2_16_system, v)
            assert rep.conditions == 2 * k - 1
            assert rep.max_residual <= noise_floor(0.5) * max(rep.scale, mpf(1))

    def test_achieved_order_meets_target(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((4, 4)))
        assert v.residual_order >= 8

    def test_degenerate_component_stays_zero(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((2, 0)))
        assert v.a[2].is_zero

    def test_scaling_first_generator_leaves_nullspace_vector(self, m2_16_system):
        # scaling sigma_1 scales every s_{1,j} uniformly: same normalized blocks,
        # the recovered a_0 scales along
        lam = mpf(7)
        scaled = system_from_generators(
            [m2_16_system.generators[0].scaled(lam), m2_16_system.generators[1]]
        )
        n = MultiIndex((3, 3))
        v = solve_type1(m2_16_system, n)
        w = solve_type1(scaled, n)
        tol = noise_floor(0.45)
        for j in (1, 2):
            for k in range(n[j - 1]):
                assert abs(v.a[j][k] - w.a[j][k]) < tol
        for k in range(v.a[0].degree + 1):
            assert abs(lam * v.a[0][k] - w.a[0][k]) < tol * lam

    def test_atomic_exactness_remainder_shape(self, f1_system):
        # N=2 atoms: at n=(N) the remainder is const / prod(z - x_i);
        # at n=(N+1) the kill is exact and the constant collapses to zero
        nodes_poly = Polynomial.from_roots(f1_system.generators[0].nodes)
        for parts, expect_zero in (((2,), False), ((3,), True)):
            v = solve_type1(f1_system, MultiIndex(parts))
            consts = [
                remainder_eval(f1_system, None, v, 0, z) * nodes_poly(z)
                for z in (mpf(2), mpf(-3), mpc(1, 2))
            ]
            spread = max(abs(a - b) for a in consts for b in consts)
            assert spread < noise_floor(0.5) * max(1, abs(consts[0]))
            if expect_zero:
                assert all(abs(c) < noise_floor(0.5) for c in consts)
                assert v.residual_order == v.n.total + 4  # never left zero


class TestTypeIPerturbed:
    def test_zero_perturbation_reduces_to_plain(self, m2_16_system):
        n = MultiIndex((3, 3))
        plain = solve_type1(m2_16_system, n)
        pert = RationalPerturbation.zero(2)
        mixed = solve_type1_perturbed(m2_16_system, pert, n)
        for j in range(3):
            for k in range(max(plain.a[j].degree, mixed.a[j].degree) + 1):
                assert abs(plain.a[j][k] - mixed.a[j][k]) < noise_floor(0.5)

    def test_hand_solve_single_pole(self):
        # sigma = unit mass at 0, r = 1/(z-3): summed tail (2, 3, ...)
        sys = system_from_generators([unit_at(0, -1, 1)])
        pert = RationalPerturbation([RationalFn([1], [-3, 1])])
        v = solve_type1_perturbed(sys, pert, MultiIndex((2,)))
        # nullspace of [2 3]: a_1 proportional to z - 3/2
        assert abs(v.a[1][0] / v.a[1][1] + mpf(3) / 2) < noise_floor(0.5)
        assert v.residual_order >= 2

    def test_fixture_order_achieved(self, m2_16_system, pert_pm5):
        v = solve_type1_perturbed(m2_16_system, pert_pm5, MultiIndex((4, 4)))
        assert v.residual_order >= 8

    def test_pole_inside_support_rejected(self, m2_16_system):
        bad = RationalPerturbation([RationalFn([1], [-2, 1]), RationalFn.zero()])
        with pytest.raises(ValueError):
            solve_type1_perturbed(m2_16_system, bad, MultiIndex((2, 2)))

    def test_pole_in_middle_interval_allowed(self, m3_16_system):
        # poles must avoid the first and last intervals only
        pert = RationalPerturbation(
            [RationalFn([1], [-2, 1]), RationalFn.zero(), RationalFn.zero()]
        )
        pert.validate_against(m3_16_system)  # no error


class TestPerturbation:
    def test_double_pole_multiplicity(self):
        pert = RationalPerturbation(
            [RationalFn([1], [25, -10, 1]), RationalFn.zero()]
        )
        assert pert.degree == 2
        assert len(pert.poles) == 1
        zeta, kappa = pert.poles[0]
        assert kappa == 2 and abs(zeta - 5) < mpf(10) ** -20

    def test_shared_pole_across_components_rejected(self):
        with pytest.raises(ValueError):
            RationalPerturbation([RationalFn([1], [-5, 1]), RationalFn([2], [-5, 1])])

    def test_complex_coefficients_rejected(self):
        with pytest.raises(ValueError):
            RationalPerturbation([RationalFn([mpc(0, 1)], [-5, 1])])

    def test_t_is_product_of_denominators(self, pert_pm5):
        # (z-5)(z+5) = z^2 - 25
        assert pert_pm5.T.degree == 2
        assert abs(pert_pm5.T[0] + 25) < TIGHT
        assert abs(pert_pm5.T[1]) < TIGHT


class TestTailSum:
    def test_sum_and_scale_over_pairs(self):
        a = LaurentTail([mpf(1), mpf(-2), mpf(4)])
        b = LaurentTail([mpf(3), mpf(5)])
        assert _tail_sum([([mpf(2), mpf(-1)], a), ([mpf(7)], b)], 1) == (-4 - 4 + 35, 4 + 4 + 35)

    def test_known_prefix_gives_the_same_order(self):
        # the first non-vanishing coefficient sits at index 2
        pairs = [([mpf(1)], LaurentTail([mpf(0), mpf(0), mpf(1), mpf(0), mpf(0)]))]
        for j in range(5):
            known = [_tail_sum(pairs, k) for k in range(j)]
            assert _achieved_order(pairs, 4, known) == 3


class TestReduce:
    def test_zero_perturbation_identity(self, m2_16_system):
        pert = RationalPerturbation.zero(2)
        v = solve_type1(m2_16_system, MultiIndex((3, 3)))
        rep = perturbed_reduce(pert, v, m2_16_system)
        assert rep.p0 == v.a[0]
        assert rep.max_residual <= noise_floor(0.5) * max(rep.scale, mpf(1))

    def test_single_pole_polynomial_identity(self):
        sys = system_from_generators([unit_at(0, -1, 1)])
        pert = RationalPerturbation([RationalFn([1], [-3, 1])])
        v = solve_type1_perturbed(sys, pert, MultiIndex((2,)))
        rep = perturbed_reduce(pert, v, sys)
        expected = Polynomial([-3, 1]) * v.a[0] + v.a[1]
        for k in range(max(rep.p0.degree, expected.degree) + 1):
            assert abs(rep.p0[k] - expected[k]) < noise_floor(0.5)

    def test_fixture_residual_through_reduced_order(self, m2_16_system, pert_pm5):
        v = solve_type1_perturbed(m2_16_system, pert_pm5, MultiIndex((4, 4)))
        rep = perturbed_reduce(pert_pm5, v, m2_16_system)
        assert rep.order_checked == 8 - 2
        assert rep.max_residual <= noise_floor(0.5) * max(rep.scale, mpf(1))
        assert rep.reduced.residual_order >= rep.order_checked
        # the reduced remainder is T * A_1: its orthogonality runs to |n|-D-2
        orth = check_orthogonality(m2_16_system, rep.reduced)
        assert orth.conditions == 8 - 2 - 1
        assert orth.max_residual <= noise_floor(0.5) * max(orth.scale, mpf(1))

    def test_shared_tail_sums_match_a_fresh_computation(self, m2_16_system, pert_pm5):
        # the residual and the reduced vector's achieved order share the tail
        # sums below order_checked - 1; both must equal sums formed afresh
        v = solve_type1_perturbed(m2_16_system, pert_pm5, MultiIndex((4, 4)))
        rep = perturbed_reduce(pert_pm5, v, m2_16_system)
        n = rep.reduced.n
        blocks = [list(a.coeffs) for a in rep.reduced.a[1:]]
        blocks = [b + [mpf(0)] * (n[j] - len(b)) for j, b in enumerate(blocks)]
        tails = _type1_tails(m2_16_system, None, n, n.total + n.max_part + 4)

        def tail_sum(k):
            acc = scale = mpf(0)
            for block, tail in zip(blocks, tails):
                for l, c in enumerate(block):
                    acc += c * tail[l + k]
                    scale += abs(c * tail[l + k])
            return acc, scale

        sums = [tail_sum(k) for k in range(v.n.total + 4)]
        checked = sums[: rep.order_checked - 1]
        assert rep.max_residual == max(abs(acc) for acc, _ in checked)
        assert rep.scale == max(scale for _, scale in checked)
        tol = noise_floor(0.5)
        fails = [k + 1 for k, (acc, scale) in enumerate(sums) if abs(acc) > tol * scale]
        order = fails[0] if fails else len(sums)
        assert rep.reduced.residual_order == order
        assert order > rep.order_checked - 1  # the order read sums past the shared ones

    def test_residual_and_scale_reach_the_last_checked_index(self):
        # hand-built vector on one atom at 2: coefficient k of (T a_1) s-hat
        # is 2^k (T a_1)(2), so the last checked index carries the largest
        # residual and the largest scale
        sys = system_from_generators([unit_at(2, 1, 3)])
        pert = RationalPerturbation([RationalFn([1], [-5, 1])])
        a = (Polynomial.zero(), Polynomial.one())
        v = TypeIVector(a, MultiIndex((5,)), 5, 0, False, mp.prec)
        rep = perturbed_reduce(pert, v, sys)
        assert rep.order_checked == 4  # indices 0..2
        assert rep.max_residual == 3 * 2**2  # |T(2)| 2^k
        assert rep.scale == 7 * 2**2  # (|-5| + |1| 2) 2^k


class TestTypeII:
    def test_f1_exact_recovery(self, f1_system):
        v = solve_type2(f1_system, MultiIndex((2,)))
        assert v.q.degree == 2
        assert abs(v.q[0] + 1) < TIGHT and abs(v.q[1]) < TIGHT and v.q[2] == 1
        assert v.p[0].degree == 1 and abs(v.p[0][1] - 1) < TIGHT
        tail = type2_residual_tail(f1_system, v, 1)
        assert max(abs(c) for c in tail) < mpf(10) ** -60

    def test_unit_mass_monomials(self):
        sys = system_from_generators([unit_at(0, -1, 1)])
        v = solve_type2(sys, MultiIndex((1,)))
        assert v.q.coeffs == (mpf(0), mpf(1))  # Q = z
        assert abs(v.p[0][0] - 1) < TIGHT  # P = 1

    def test_m2_orthogonal_to_constants(self, m2_16_system):
        v = solve_type2(m2_16_system, MultiIndex((1, 1)))
        assert v.q.degree == 2
        assert v.q[2] == 1  # monic
        for j in (1, 2):
            mu = m2_16_system.chain(1, j)
            s = mp.fsum(
                v.q(x) * w * mu.sign for x, w in zip(mu.nodes, mu.weights)
            )
            assert abs(s) <= noise_floor(0.5) * max(1, v.q.max_coeff())
        assert all(o >= k + 1 for o, k in zip(v.residual_orders, v.n))


class TestRemainder:
    def test_boundary_is_polynomial_value(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((3, 3)))
        z = mpc(2, 1)
        assert remainder_eval(m2_16_system, None, v, 2, z) == v.a[2](z)

    def test_integral_representation_spot_check(self, m2_16_system):
        # A_0(z) = sum_i A_1(x_i) w_i sign / (z - x_i) over sigma_1's atoms
        v = solve_type1(m2_16_system, MultiIndex((3, 3)))
        sigma1 = m2_16_system.generators[0]
        for z in (mpc(4, 2), mpc(-2, 1)):
            lhs = remainder_eval(m2_16_system, None, v, 0, z)
            rhs = mp.fsum(
                remainder_eval(m2_16_system, None, v, 1, x) * w * sigma1.sign / (z - x)
                for x, w in zip(sigma1.nodes, sigma1.weights)
            )
            assert abs(lhs - rhs) <= noise_floor(0.5) * max(abs(lhs), abs(rhs), mpf(1))

    def test_out_of_range_level(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((2, 2)))
        with pytest.raises(IndexError):
            remainder_eval(m2_16_system, None, v, 3, mpc(0, 1))


class TestOrthogonality:
    def test_f1_two_term_cancellation(self, f1_system):
        v = solve_type1(f1_system, MultiIndex((2,)))
        rep = check_orthogonality(f1_system, v)
        # A_1 = a_1 = z: sum = 0.5*(-1) + 0.5*(1) = 0
        assert rep.conditions == 1
        assert rep.max_residual < TIGHT

    def test_no_conditions_convention(self, f1_system):
        v = solve_type1(f1_system, MultiIndex((1,)))
        rep = check_orthogonality(f1_system, v)
        assert rep.conditions == 0 and rep.max_residual == 0

    def test_deficit_shrinks_condition_count(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((3, 3)), M=2)
        rep = check_orthogonality(m2_16_system, v)
        assert rep.conditions == 6 - 2 - 1
        assert rep.max_residual <= noise_floor(0.5) * max(rep.scale, mpf(1))
