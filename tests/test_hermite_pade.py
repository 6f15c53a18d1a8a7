"""Order-condition assembly, type I/II solves, reduction, remainders, orthogonality."""

import dataclasses
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from nikishin_hp import hermite_pade
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
    _chain_tail,
    _escalate,
    _laurent_coeff,
    _order_basis,
    _type1_tails,
)

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


def moment_matrix(tails, n, M=0):
    """The type I order conditions as row lists: row t (t = 0..|n|-2-M) is the
    coefficient of z^-(t+1) in sum_j a_j f_j, with tails[j][l + t] in block
    j, column l."""
    rows = max(0, n.total - 1 - M)
    return [[tail[l + t] for tail, nj in zip(tails, n) for l in range(nj)] for t in range(rows)]


def svd_null_space(rows, cols, dim):
    """Oracle: the last dim rows of mp.svd_r's right factor of the rows padded
    with zero rows to a square, an orthonormal basis of their null space."""
    S = mp.matrix(cols, cols)
    for i, row in enumerate(rows):
        for j in range(cols):
            S[i, j] = row[j]
    _, _, V = mp.svd_r(S)
    return [[V[i, j] for j in range(cols)] for i in range(cols - dim, cols)]


def concatenated(v):
    """(a_1, ..., a_m) of a type I vector, each padded to n_j coefficients."""
    return [
        c
        for a, nj in zip(v.a[1:], v.n)
        for c in list(a.coeffs) + [mpf(0)] * (nj - len(a.coeffs))
    ]


def legendre_system(bits, count, intervals=((-1, 0), (1, 3))):
    specs = [
        MeasureSpec(kind="legendre-density", interval=Interval(a, b), node_count=count)
        for a, b in intervals
    ]
    with working_precision(bits):
        return build_system(SystemSpec(specs, bits))


class TestType1Kernel:
    """The order basis against mp.svd_r, at atomic degree and in its guard bits."""

    @pytest.mark.parametrize(
        "system, parts, M, perturbed",
        [
            ("m2_16_system", (3, 3), 0, False),
            ("m2_16_system", (4, 3), 0, False),
            ("m2_16_system", (3, 4), 0, False),
            ("m2_16_system", (2, 5), 0, False),
            ("m2_16_system", (4, 4), 2, False),
            ("m2_16_system", (5, 4), 1, False),
            ("m2_16_system", (3, 4), 0, True),
            ("m3_16_system", (2, 2, 2), 0, False),
            ("m3_16_system", (3, 3, 2), 1, False),
        ],
    )
    def test_vector_lies_in_the_svd_null_space(self, request, pert_pm5, system, parts, M, perturbed):
        # the null space has dimension M + 1; the unit-max vector is within
        # 10^-66 to 10^-72 of it at 256 bits
        sys = request.getfixturevalue(system)
        n = MultiIndex(parts)
        pert = pert_pm5 if perturbed else None
        v = solve_type1_perturbed(sys, pert, n) if perturbed else solve_type1(sys, n, M)
        assert v.precision_bits == 256 and not v.nullity_flag
        null = svd_null_space(moment_matrix(_type1_tails(sys, pert, n), n, M), n.total, M + 1)
        x = concatenated(v)
        proj = [mp.fsum(a * b for a, b in zip(row, x)) for row in null]
        off = [xi - mp.fsum(c * row[i] for c, row in zip(proj, null)) for i, xi in enumerate(x)]
        assert max(abs(c) for c in off) < mpf(10) ** -60

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_atomic_degree_sets_the_nullity_flag(self, k):
        # 4 atoms per generator: from |n| = 6 on, the order conditions
        # outnumber what the atoms can tell apart, and the residuals that
        # vanish in exact arithmetic read at most 2^3.2 2^-P of their terms
        sys = legendre_system(128, 4)
        with working_precision(128):
            assert not solve_type1(sys, MultiIndex((2, 2))).nullity_flag
            v = solve_type1(sys, MultiIndex((k, k)))
        assert v.nullity_flag and v.precision_bits == 128

    def test_n_28_on_12_atoms_sets_the_nullity_flag(self):
        # 27 conditions on 12 atoms per generator
        sys = legendre_system(256, 12)
        v = solve_type1(sys, MultiIndex((14, 14)))
        assert v.nullity_flag and v.precision_bits == 256

    def test_guard_bits_keep_the_digits(self):
        # the m=3 fixture at 128 bits, k=3: against a 384-bit solve the
        # vector has 22.4 digits when the basis eliminates at P + 64 bits
        # and 18.5 when it eliminates at P (the SVD had 21.4)
        intervals = ((-1, 0), (1, 3), (4, 6))
        n = MultiIndex((3, 3, 3))
        with working_precision(128):
            v = solve_type1(legendre_system(128, 16, intervals), n)
        with working_precision(384):
            w = solve_type1(legendre_system(384, 16, intervals), n)
        assert v.precision_bits == 128 and not v.nullity_flag
        err = max(abs(a - b) for a, b in zip(concatenated(v), concatenated(w), strict=True))
        assert err < mpf(10) ** -21

    def test_basis_is_rounded_to_the_callers_precision(self, m2_16_system):
        n = MultiIndex((3, 2))
        tails = _type1_tails(m2_16_system, None, n)
        series = [tails, [(mpf(-1),), ()], [(), (mpf(-1),)]]
        basis, _ = _order_basis(series, (0, 1, 1), [n.total + nj for nj in n])
        assert mp.prec == 256
        assert max(c._mpf_[3] for row in basis for comp in row for c in comp) <= 256


def bits(values):
    return [x._mpf_ for x in values]


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


class TestLaurentCoeff:
    def test_sum_and_scale_over_pairs(self):
        # (2 - z)(1/z - 2/z^2 + 4/z^3) + 7 (3/z + 5/z^2)
        pairs = [([mpf(2), mpf(-1)], tail(1, -2, 4)), ([mpf(7)], tail(3, 5))]
        assert _laurent_coeff(pairs, -2) == (-4 - 4 + 35, 4 + 4 + 35)
        assert _laurent_coeff(pairs, 0) == (-1, 1)
        assert _laurent_coeff(pairs, 1) == (0, 0)

    def test_known_prefix_gives_the_same_order(self):
        # the first non-vanishing coefficient sits at index 2
        pairs = [([mpf(1)], tail(0, 0, 1, 0, 0))]
        for j in range(5):
            known = [_laurent_coeff(pairs, -(k + 1)) for k in range(j)]
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

    def test_readme_fixture_orders_match_the_svd(self, m2_32_system):
        # the orders the SVD kernel reached on the 32+32 fixture at 256
        # bits; a pivot gate as high as 2^-P/2 drops genuine conditions at
        # k = 10 and 12, whose pivots fall to 2^-134 and 2^-163 of their scale
        expected = {4: (5, 5), 6: (7, 7), 8: (9, 9), 10: (11, 12), 12: (13, 14)}
        for k, orders in expected.items():
            v = solve_type2(m2_32_system, MultiIndex((k, k)))
            assert (v.residual_orders, v.precision_bits) == (orders, 256), k
            assert v.q.degree == 2 * k and not v.nullity_flag

    @pytest.mark.parametrize("nodes", [None, 2])
    def test_atomic_degree_sets_the_nullity_flag(self, f1_system, nodes):
        # two atoms and |n| = 3: every Q = (z^2 - 1)(a z + b) solves, so the
        # order basis has one row of degree 2 < |n|; the residuals that
        # vanish are exactly 0 on the dyadic atoms +-1 and rounding-level on
        # a 2-node Legendre rule, and neither is divided by
        if nodes is None:
            sys = f1_system
        else:
            spec = MeasureSpec(kind="legendre-density", interval=Interval(-1, 0), node_count=2)
            sys = build_system(SystemSpec([spec], 256))
        v = solve_type2(sys, MultiIndex((3,)))
        assert v.nullity_flag
        assert v.q.degree == 3 and v.precision_bits == 256
        assert v.residual_orders[0] >= 4
        tail = type2_residual_tail(sys, v, 1)
        assert max(abs(c) for c in tail[:4]) < mpf(10) ** -60

    def test_order_basis_rows_meet_every_condition(self, m2_16_system):
        n = MultiIndex((3, 2))
        tails = _type1_tails(m2_16_system, None, n)
        series = [tails, [(mpf(-1),), ()], [(), (mpf(-1),)]]
        orders = [n.total + nj for nj in n]
        basis, degrees = _order_basis(series, (0, 1, 1), orders)
        # one degree step per condition, the solution row alone at degree |n|
        assert sum(degrees) == 2 + sum(orders)
        assert sorted(degrees) == [5, 6, 6]
        for row, d in zip(basis, degrees):
            q, *ps = row
            assert len(q) <= d + 1 and all(len(p) <= d for p in ps)
            for j, order in enumerate(orders):
                for k in range(order):
                    terms = [c * tails[j][k - l] for l, c in enumerate(q[: k + 1])]
                    terms.append(-ps[j][k] if k < len(ps[j]) else mpf(0))
                    assert abs(mp.fsum(terms)) <= noise_floor(0.9) * mp.fsum(terms, absolute=True)

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
        assert rep.max_residual < TIGHT

    def test_no_conditions_convention(self, f1_system):
        v = solve_type1(f1_system, MultiIndex((1,)))
        rep = check_orthogonality(f1_system, v)
        assert rep == (0, 0)

    def test_deficit_shrinks_condition_count(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((3, 3)), M=2)
        assert v.order_target == 6 - 2
        rep = check_orthogonality(m2_16_system, v)
        assert rep.max_residual <= noise_floor(0.5) * max(rep.scale, mpf(1))

    def test_checks_the_moments_below_order_target_minus_one(self):
        # on an 8-node Gauss-Legendre rule of [-1, 1] the moments of the
        # Legendre polynomial P_d vanish below nu = d, and the nu = d moment
        # is 2^(d+1) d!^2 / (2d+1)!.  With N = 5 the check must see P_3's
        # moment at nu = N - 2 = 3 and must not see P_4's at nu = N - 1 = 4
        spec = MeasureSpec(kind="legendre-density", interval=Interval(-1, 1), node_count=8)
        sys = build_system(SystemSpec([spec], 256))
        p3 = Polynomial([0, mpf(-3) / 2, 0, mpf(5) / 2])
        p4 = Polynomial([mpf(3) / 8, 0, mpf(-30) / 8, 0, mpf(35) / 8])

        def check(p):
            v = TypeIVector((Polynomial.zero(), p), MultiIndex((5,)), 5, 5, False, mp.prec)
            return check_orthogonality(sys, v)

        seen = check(p3)
        assert abs(seen.max_residual - mpf(4) / 35) < TIGHT
        unseen = check(p4)
        assert unseen.max_residual <= noise_floor(0.5) * unseen.scale


def as_fraction(x):
    sign, man, exp, _ = mpf(x)._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


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

    def assert_type1_matches_the_exact_kernel(self, n, digits):
        v = solve_type1(self.dyadic_system(), MultiIndex(n))
        assert v.precision_bits == 256 and not v.nullity_flag
        exact = exact_oracle.type1_blocks(n)
        err = max(
            abs(as_fraction(c) - e)
            for j in (1, 2)
            for c, e in zip(v.a[j].coeffs, exact[j - 1], strict=True)
        )
        assert err < Fraction(1, 10**digits)

    @pytest.mark.parametrize("k, digits", [(3, 65), (5, 55), (7, 45)])
    def test_type1_vector_matches_the_exact_kernel(self, k, digits):
        # the dyadic atoms are exact in binary, so every digit lost is the
        # solver's: at 256 bits the order basis has 71.5, 63.1 and 53.3
        # digits (the SVD had 70.4, 61.0 and 50.8), the monomial moments
        # costing about 5 digits per unit of k
        self.assert_type1_matches_the_exact_kernel((k, k), digits)

    @pytest.mark.parametrize(
        "n, digits",
        [((4, 3), 64), ((3, 4), 63), ((6, 5), 55), ((5, 6), 54), ((8, 7), 44), ((7, 8), 43)],
    )
    def test_offdiagonal_type1_vector_matches_the_exact_kernel(self, n, digits):
        # off the diagonal the two components have different shifts; at 256
        # bits these have 70.5, 69.2, 61.2, 60.4, 50.3 and 49.2 digits
        self.assert_type1_matches_the_exact_kernel(n, digits)

    @pytest.mark.parametrize("n, M", [((4, 4), 1), ((5, 5), 2), ((4, 3), 1), ((3, 4), 2), ((6, 6), 3)])
    def test_incomplete_type1_vector_lies_in_the_exact_kernel(self, n, M):
        # the kernel has dimension M + 1 and any member solves; the solver's
        # unit-max vector lies within 10^-69 to 10^-75 of it at 256 bits
        v = solve_type1(self.dyadic_system(), MultiIndex(n), M)
        assert v.precision_bits == 256 and not v.nullity_flag
        vec = [as_fraction(c) for c in concatenated(v)]
        assert max(abs(c) for c in vec) == 1
        assert exact_oracle.type1_kernel_distance(vec, n, M) < Fraction(1, 10**65)

    @pytest.mark.parametrize("k, digits", [(3, 66), (5, 56), (7, 45)])
    def test_type2_q_matches_the_exact_kernel(self, k, digits):
        # digits relative to Q's largest coefficient: at 256 bits the SVD
        # kernel had 67.7, 57.7 and 46.6; the order basis has 68.6, 59.3 and
        # 48.1, and had 67.8, 58.4 and 46.9 when it eliminated at P bits
        v = solve_type2(self.dyadic_system(), MultiIndex.diagonal(2, k))
        assert v.precision_bits == 256
        exact = exact_oracle.type2_q((k, k))
        err = max(abs(as_fraction(c) - e) for c, e in zip(v.q.coeffs, exact, strict=True))
        assert err < max(abs(e) for e in exact) / 10**digits


class TestTailTable:
    KS = (8, 21, 36)

    @pytest.mark.parametrize("order", [KS, KS[::-1]])
    def test_tails_are_the_moments_in_either_order(self, order):
        sys = TestExactOracle.dyadic_system()
        P = mp.prec
        for K in order:
            for j in (1, 2):
                assert bits(_chain_tail(sys, j, K)) == bits(moments(sys.chain(1, j), K))
        # per chain, the moments up to the largest K asked for, and the power
        # row w_i x_i^37 that continues them, rounded as moments rounds it
        assert {key: len(t) for key, (t, _) in sys.tails.items()} == {(1, P): 37, (2, P): 37}
        for j in (1, 2):
            chain = sys.chain(1, j)
            row = list(chain.weights)
            for _ in range(37):
                row = [w * x for w, x in zip(row, chain.nodes)]
            assert sys.tails[(j, P)][1] == bits(row)

    def test_an_ascending_sweep_computes_each_moment_row_once(self, monkeypatch):
        # per chain and precision the rows computed add up to the largest K
        # plus one, and each K's tail keeps the bits of a direct moments call
        rows = []
        real = hermite_pade._moment_rows

        def counting(mu, row, count):
            rows.append((mu.weights, mp.prec, count))
            return real(mu, row, count)

        monkeypatch.setattr(hermite_pade, "_moment_rows", counting)
        sys = TestExactOracle.dyadic_system()
        P = mp.prec
        for bits_ in (P, 2 * P):
            with mp.workprec(bits_):
                for K in self.KS:
                    for j in (1, 2):
                        tail = _chain_tail(sys, j, K)
                        assert bits(tail) == bits(moments(sys.chain(1, j), K))
        for j in (1, 2):
            for bits_ in (P, 2 * P):
                counts = [
                    count
                    for weights, prec, count in rows
                    if weights == sys.chain(1, j).weights and prec == bits_
                ]
                assert counts == [self.KS[0] + 1, self.KS[1] - self.KS[0], self.KS[2] - self.KS[1]]

    def test_each_precision_gets_its_own_tail(self):
        sys = TestExactOracle.dyadic_system()
        P = mp.prec
        at_p = _chain_tail(sys, 2, 21)
        with mp.workprec(2 * P):
            for K in self.KS:
                assert bits(_chain_tail(sys, 2, K)) == bits(moments(sys.chain(1, 2), K))
        assert sorted(sys.tails) == [(2, P), (2, 2 * P)]
        assert bits(sys.tails[(2, P)][0]) == bits(at_p)

    def test_table_is_left_out_of_equality_and_repr(self):
        sys = TestExactOracle.dyadic_system()
        _chain_tail(sys, 1, 8)
        assert sys == TestExactOracle.dyadic_system()
        assert "tails" not in repr(sys)

    def test_tails_match_the_exact_moments(self):
        # P-bit powers and the rounded weights of s_{1,2} cost a few ulps
        sys = TestExactOracle.dyadic_system()
        K = max(self.KS)
        for j, (sign, weights) in enumerate(exact_oracle.chains(), start=1):
            exact = exact_oracle.moments(sign, weights, K + 1)
            for c, e in zip(_chain_tail(sys, j, K), exact, strict=True):
                assert abs(as_fraction(c) - e) <= abs(e) / 2 ** (mp.prec - 8)

    def test_solves_share_the_tails_of_their_system(self, monkeypatch):
        # type I and type II at one index, then type I at a smaller one:
        # the moment loop runs once per chain
        calls = []
        real = hermite_pade._moment_rows

        def counting(mu, row, count):
            calls.append(count)
            return real(mu, row, count)

        monkeypatch.setattr(hermite_pade, "_moment_rows", counting)
        sys = TestExactOracle.dyadic_system()
        n = MultiIndex.diagonal(2, 5)
        solve_type1(sys, n)
        solve_type2(sys, n)
        solve_type1(sys, MultiIndex.diagonal(2, 3))
        assert calls == [n.total + n.max_part + 5] * 2
