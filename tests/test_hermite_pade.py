"""Order-condition assembly, type I/II solves, reduction, remainders, orthogonality."""

import dataclasses
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from nikishin_hp import hermite_pade, linalg
from nikishin_hp import (
    MAX_PRECISION_BITS,
    AtomicMeasure,
    Interval,
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
    laurent_expand_rational,
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

import exact_oracle

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

    @pytest.mark.parametrize("part", [2.5, True, "2", None])
    def test_non_integer_part_rejected(self, part):
        # no silent truncation: int(2.5) and int(True) are 2 and 1
        with pytest.raises(ValueError, match="must be integers"):
            MultiIndex((part, 2))

    def test_integral_float_part_accepted(self):
        n = MultiIndex((2.0, 2))
        assert n.parts == (2, 2)
        assert all(type(p) is int for p in n.parts)

    def test_solve_with_fractional_part_rejected(self, m2_16_system):
        with pytest.raises(ValueError, match="must be integers"):
            solve_type1(m2_16_system, MultiIndex((2.5, 2)))

    def test_accessors(self):
        n = MultiIndex((2, 5))
        assert n.total == 7 and n.max_part == 5 and n.spread == 3
        assert list(n) == [2, 5]
        assert MultiIndex.diagonal(3, 4).parts == (4, 4, 4)


def tail(*coeffs):
    return tuple(mpf(c) for c in coeffs)


class TestAssembly:
    def test_hand_assembled_row(self):
        rows = assemble_type1_system([tail(1, 0, 1, 0, 1)], MultiIndex((2,)), 0)
        assert rows == [[1, 0]]

    def test_no_conditions_for_total_one(self):
        assert assemble_type1_system([tail(1)], MultiIndex((1,)), 0) == []

    def test_full_deficit_empty_matrix(self):
        tails = [tail(1, 2, 3), tail(1, 2, 3)]
        assert assemble_type1_system(tails, MultiIndex((2, 1)), 2) == []

    def test_one_more_column_than_rows_when_complete(self):
        tails = [tail(*range(1, 12)), tail(*range(2, 13))]
        n = MultiIndex((3, 2))
        rows = assemble_type1_system(tails, n, 0)
        assert len(rows) + 1 == n.total
        assert all(len(row) == n.total for row in rows)
        # row t holds tails[j][l + t] in block j, position l
        assert rows[1] == [2, 3, 4, 3, 4]

    def test_short_tails_rejected(self):
        with pytest.raises(ValueError):
            assemble_type1_system([tail(1, 2)], MultiIndex((3,)), 0)


class TestType1Tails:
    @pytest.mark.parametrize("parts", [(4, 4), (3, 5)])
    def test_moments_plus_rational_expansion(self, m2_16_system, pert_pm5, parts):
        # each tail is a tuple of K + 1 entries, K = |n| + max n_j + 4, and
        # entry k is the sum of the moment and the expansion coefficient
        n = MultiIndex(parts)
        K = n.total + n.max_part + 4
        tails = _type1_tails(m2_16_system, pert_pm5, n)
        assert len(tails) == 2
        for j, got in enumerate(tails, start=1):
            assert type(got) is tuple and len(got) == n.total + n.max_part + 5
            c = moments(m2_16_system.chain(1, j), K)
            h = laurent_expand_rational(pert_pm5.fractions[j - 1], K + 1)
            assert bits(got) == bits([c[k] + h[k] for k in range(K + 1)])

    def test_short_rational_expansion_rejected(self, m2_16_system, pert_pm5, monkeypatch):
        expand = hermite_pade.laurent_expand_rational
        monkeypatch.setattr(
            hermite_pade, "laurent_expand_rational", lambda r, K: expand(r, K)[:-1]
        )
        with pytest.raises(ValueError):
            _type1_tails(m2_16_system, pert_pm5, MultiIndex((4, 4)))


def padded_svd_r(rows, cols):
    """Oracle: mp.svd_r on the rows padded with zero rows to a square."""
    S = mp.matrix(cols, cols)
    for i, row in enumerate(rows):
        for j in range(cols):
            S[i, j] = row[j]
    _, svals, V = mp.svd_r(S)
    return [svals[i] for i in range(cols)], [V[cols - 1, j] for j in range(cols)]


def bits(values):
    return [x._mpf_ for x in values]


def assert_matches_oracle(rows, cols):
    vec, flag, svals = _nullspace_min_direction(rows, cols)
    oracle_svals, oracle_vec = padded_svd_r(rows, cols)
    assert bits(svals) == bits(oracle_svals)
    assert bits(vec) == bits(oracle_vec)
    rank = len(rows)
    if rank > 0:
        gap = oracle_svals[rank - 1] <= 2**10 * oracle_svals[rank]
        assert flag == gap
    return flag


def tall_rows():
    return [[mpf((3 * i + 5 * j * j) % 11 - 5) / (i + 1) for j in range(4)] for i in range(7)]


def assert_kernel_matches_svd_r(rows, cols):
    """svd_sv's S and v equal mp.svd_r's S and last row of V bit for bit."""
    rows = [[mpf(x) for x in row] for row in rows]
    S, v = svd_sv(rows, cols)
    _, oracle_S, oracle_V = mp.svd_r(mp.matrix(rows))
    assert bits(S) == bits(oracle_S)
    assert bits(v) == bits(oracle_V[cols - 1, :])


def type1_rows(sys, pert, n):
    return assemble_type1_system(_type1_tails(sys, pert, n), n, 0)


class TestNullspaceKernel:
    """The one-row SVD reproduces padded mp.svd_r's S and last row of V bit for bit."""

    def test_readme_type1_matrix(self, m2_32_system, pert_pm5):
        n = MultiIndex((8, 8))
        rows = type1_rows(m2_32_system, pert_pm5, n)
        assert len(rows) == 15
        assert not assert_matches_oracle(rows, 16)

    def test_square_type2_matrix(self, m2_16_system):
        n = MultiIndex((3, 3))
        total = n.total
        tails = [moments(m2_16_system.chain(1, j), total + n.max_part + 4) for j in (1, 2)]
        rows = [[tails[j][nu + mu] for mu in range(total + 1)] for j in range(2) for nu in range(n[j])]
        square = rows + [[mpf(0)] * (total + 1)]
        assert_kernel_matches_svd_r(square, total + 1)
        # the solver drops the zero row: same bits
        vec, _, svals = _nullspace_min_direction(rows, total + 1)
        oracle_svals, oracle_vec = padded_svd_r(square, total + 1)
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
        rows = type1_rows(sys, None, n)
        assert len(rows) == 27
        assert_matches_oracle(rows, 28)

    def test_no_rows_flags_nullity(self):
        rows = assemble_type1_system([tail(1, 2, 3)], MultiIndex((1,)), 0)
        assert rows == []
        vec, flag, svals = _nullspace_min_direction(rows, 1)
        assert flag is True
        assert vec == [1] and svals == [0]
        assert_matches_oracle(rows, 1)

    def test_tall_matrix_s_and_last_row(self):
        # V's row 2 is returned, and phase 3, replayed before it, ends in
        # a sign flip
        assert_kernel_matches_svd_r(tall_rows(), 4)

    def test_v_rotated_only_through_the_returned_rows_phase(self, monkeypatch):
        calls = []
        diagonalize = linalg._diagonalize

        def recording(S, work, anorm, maxits, V, last):
            calls.append((V is not None, last))
            return diagonalize(S, work, anorm, maxits, V, last)

        monkeypatch.setattr(linalg, "_diagonalize", recording)
        svd_sv(tall_rows(), 4)
        assert calls == [(False, 0), (True, 2)]

    def test_returned_row_converges_after_the_first(self, m2_32_system, pert_pm5):
        # the README type I matrix at k=4 returns V's row 6 of 8, so V
        # takes the rotations of two QR phases
        n = MultiIndex((4, 4))
        rows = type1_rows(m2_32_system, pert_pm5, n)
        assert len(rows) == 7
        assert not assert_matches_oracle(rows, 8)
        # the should-be-zero singular value is at rounding level, not 0,
        # so the nullity comparison is live at small k
        _, _, svals = _nullspace_min_direction(rows, 8)
        assert svals[7] > 0

    def test_returned_row_converges_last_after_a_sign_flip(self):
        # V's row 0 is returned, so every QR phase is replayed, and the
        # first, phase 3, ends in a sign flip
        rows = [[-8, -7, -7, 2], [-4, 0, -1, -3], [-8, 9, -4, 4], [3, 7, 2, 8], [5, 7, -1, -8]]
        assert_kernel_matches_svd_r(rows, 4)

    def test_sign_flip_on_the_returned_row(self):
        # V's row 3 is returned and its own phase ends in a sign flip
        rows = [[-5, -1, -6, 1], [9, -4, -9, 4], [4, -7, -6, -5], [1, 6, 9, 5]]
        assert_kernel_matches_svd_r(rows, 4)

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
        assert abs(remainder_eval(f1_system, v, 0, 2) - mpf(1) / 3) < TIGHT

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
                remainder_eval(f1_system, v, 0, z) * nodes_poly(z)
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
        a = tail(1, -2, 4)
        b = tail(3, 5)
        assert _tail_sum([([mpf(2), mpf(-1)], a), ([mpf(7)], b)], 1) == (-4 - 4 + 35, 4 + 4 + 35)

    def test_known_prefix_gives_the_same_order(self):
        # the first non-vanishing coefficient sits at index 2
        pairs = [([mpf(1)], tail(0, 0, 1, 0, 0))]
        for j in range(5):
            known = [_tail_sum(pairs, k) for k in range(j)]
            assert _achieved_order(pairs, 4, known) == 3


class TestReduce:
    def test_zero_perturbation_identity(self, m2_16_system):
        pert = RationalPerturbation.zero(2)
        v = solve_type1(m2_16_system, MultiIndex((3, 3)))
        rep = perturbed_reduce(pert, v, m2_16_system)
        assert rep.reduced.a[0] == v.a[0]
        assert rep.max_residual <= noise_floor(0.5) * max(rep.scale, mpf(1))

    def test_single_pole_polynomial_identity(self):
        sys = system_from_generators([unit_at(0, -1, 1)])
        pert = RationalPerturbation([RationalFn([1], [-3, 1])])
        v = solve_type1_perturbed(sys, pert, MultiIndex((2,)))
        rep = perturbed_reduce(pert, v, sys)
        expected = Polynomial([-3, 1]) * v.a[0] + v.a[1]
        p0 = rep.reduced.a[0]
        for k in range(max(p0.degree, expected.degree) + 1):
            assert abs(p0[k] - expected[k]) < noise_floor(0.5)

    def test_fixture_residual_through_reduced_order(self, m2_16_system, pert_pm5):
        v = solve_type1_perturbed(m2_16_system, pert_pm5, MultiIndex((4, 4)))
        rep = perturbed_reduce(pert_pm5, v, m2_16_system)
        assert rep.reduced.order_target == 8 - 2
        assert rep.max_residual <= noise_floor(0.5) * max(rep.scale, mpf(1))
        assert rep.reduced.residual_order >= rep.reduced.order_target
        # the reduced remainder is T * A_1: its orthogonality runs to |n|-D-2
        orth = check_orthogonality(m2_16_system, rep.reduced)
        assert orth.conditions == 8 - 2 - 1
        assert orth.max_residual <= noise_floor(0.5) * max(orth.scale, mpf(1))

    def test_shared_tail_sums_match_a_fresh_computation(self, m2_16_system, pert_pm5):
        # the residual and the reduced vector's achieved order share the tail
        # sums below order_target - 1; both must equal sums formed afresh
        v = solve_type1_perturbed(m2_16_system, pert_pm5, MultiIndex((4, 4)))
        rep = perturbed_reduce(pert_pm5, v, m2_16_system)
        n = rep.reduced.n
        blocks = [list(a.coeffs) for a in rep.reduced.a[1:]]
        blocks = [b + [mpf(0)] * (n[j] - len(b)) for j, b in enumerate(blocks)]
        tails = _type1_tails(m2_16_system, None, n)

        def tail_sum(k):
            acc = scale = mpf(0)
            for block, tail in zip(blocks, tails):
                for l, c in enumerate(block):
                    acc += c * tail[l + k]
                    scale += abs(c * tail[l + k])
            return acc, scale

        sums = [tail_sum(k) for k in range(v.n.total + 4)]
        checked = sums[: rep.reduced.order_target - 1]
        assert rep.max_residual == max(abs(acc) for acc, _ in checked)
        assert rep.scale == max(scale for _, scale in checked)
        tol = noise_floor(0.5)
        fails = [k + 1 for k, (acc, scale) in enumerate(sums) if abs(acc) > tol * scale]
        order = fails[0] if fails else len(sums)
        assert rep.reduced.residual_order == order
        assert order > rep.reduced.order_target - 1  # the order read sums past the shared ones

    def test_residual_and_scale_reach_the_last_checked_index(self):
        # hand-built vector on one atom at 2: coefficient k of (T a_1) s-hat
        # is 2^k (T a_1)(2), so the last checked index carries the largest
        # residual and the largest scale
        sys = system_from_generators([unit_at(2, 1, 3)])
        pert = RationalPerturbation([RationalFn([1], [-5, 1])])
        a = (Polynomial.zero(), Polynomial.one())
        v = TypeIVector(a, MultiIndex((5,)), 5, 0, False, mp.prec)
        rep = perturbed_reduce(pert, v, sys)
        assert rep.reduced.order_target == 4  # indices 0..2
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
        assert remainder_eval(m2_16_system, v, 2, z) == v.a[2](z)

    def test_integral_representation_spot_check(self, m2_16_system):
        # A_0(z) = sum_i A_1(x_i) w_i sign / (z - x_i) over sigma_1's atoms
        v = solve_type1(m2_16_system, MultiIndex((3, 3)))
        sigma1 = m2_16_system.generators[0]
        for z in (mpc(4, 2), mpc(-2, 1)):
            lhs = remainder_eval(m2_16_system, v, 0, z)
            rhs = mp.fsum(
                remainder_eval(m2_16_system, v, 1, x) * w * sigma1.sign / (z - x)
                for x, w in zip(sigma1.nodes, sigma1.weights)
            )
            assert abs(lhs - rhs) <= noise_floor(0.5) * max(abs(lhs), abs(rhs), mpf(1))

    def test_out_of_range_level(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((2, 2)))
        with pytest.raises(IndexError):
            remainder_eval(m2_16_system, v, 3, mpc(0, 1))


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


class TestExactOracle:
    @staticmethod
    def dyadic_system():
        def floats(values):
            return [mpf(q.numerator) / q.denominator for q in values]  # exact: dyadic

        weights = floats([exact_oracle.WEIGHT] * exact_oracle.ATOMS)
        return system_from_generators(
            [
                AtomicMeasure(floats(exact_oracle.X), weights, 1, Interval(-1, 0)),
                AtomicMeasure(floats(exact_oracle.Y), weights, 1, Interval(1, 3)),
            ]
        )

    @pytest.mark.parametrize("k, digits", [(3, 65), (5, 55), (7, 45)])
    def test_type1_vector_matches_the_exact_kernel(self, k, digits):
        # the dyadic atoms are exact in binary, so every digit lost is the
        # solver's: at 256 bits 70.4, 61.0 and 50.8 digits were measured,
        # the monomial moments costing about 5 digits per unit of k
        v = solve_type1(self.dyadic_system(), MultiIndex.diagonal(2, k))
        assert v.precision_bits == 256

        def as_fraction(x):
            sign, man, exp, _ = mpf(x)._mpf_
            return (-1) ** sign * man * Fraction(2) ** exp

        exact = exact_oracle.type1_blocks((k, k))
        err = max(
            abs(as_fraction(c) - e)
            for j in (1, 2)
            for c, e in zip(v.a[j].coeffs, exact[j - 1], strict=True)
        )
        assert err < Fraction(1, 10**digits)
