"""Polynomial/rational arithmetic, Laurent expansion, and root finding."""

import random

import pytest
from mpmath import mp, mpc, mpf

from nikishin_hp import (
    algebra,
    Polynomial,
    RationalFn,
    RationalPerturbation,
    laurent_expand_rational,
    noise_floor,
    poly_roots,
)
from nikishin_hp.algebra import _horner


def long_division(num: Polynomial, den: Polynomial):
    """Quotient and remainder of num by a nonzero den, by schoolbook long division."""
    if num.degree < den.degree:
        return Polynomial.zero(), num
    rem = list(num.coeffs)
    lead = den.leading()
    dq = num.degree - den.degree
    quo = [mpf(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        q = rem[den.degree + k] / lead
        quo[k] = q
        for i, c in enumerate(den.coeffs):
            rem[i + k] -= q * c
    return Polynomial(quo), Polynomial(rem[: den.degree])


def long_division_tail(num: Polynomial, den: Polynomial, K: int):
    """Independent oracle: quotient of num * z^K by den gives the tail."""
    shifted = num * Polynomial([0] * K + [1])
    quo, _ = long_division(shifted, den)
    return [quo[K - 1 - k] for k in range(K)]


class TestPolynomial:
    def test_zero_representation(self):
        assert Polynomial([0, 0, 0]).degree == -1
        assert Polynomial([]).is_zero
        assert (Polynomial([1, 2]) - Polynomial([1, 2])).degree == -1

    def test_trailing_zeros_trimmed_by_arithmetic(self):
        # (1+z)(1-z) + (z^2-1) cancels exactly to zero
        p = Polynomial([1, 1]) * Polynomial([1, -1]) + Polynomial([-1, 0, 1])
        assert p.is_zero
        q = Polynomial([0, 0, 2]) - Polynomial([0, 0, 2])
        assert q.is_zero

    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(20):
            a = Polynomial([rng.uniform(-2, 2) for _ in range(rng.randint(1, 7))])
            b = Polynomial([rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            q, r = long_division(a, b)
            diff = a - (q * b + r)
            assert diff.max_coeff() <= noise_floor(0.5) * max(a.max_coeff(), 1)
            assert r.degree < b.degree

    def test_eval_matches_expansion(self):
        p = Polynomial([1, -3, 0, 2])
        z = mpf("1.25")
        assert abs(p(z) - (1 - 3 * z + 2 * z**3)) < noise_floor(0.9)


class TestLaurentExpansion:
    def test_single_pole_geometric(self):
        r = RationalFn([1], [-3, 1])
        tail = laurent_expand_rational(r, 4)
        assert [c for c in tail] == [1, 3, 9, 27]

    def test_zero_numerator(self):
        r = RationalFn([0], [-3, 1])
        tail = laurent_expand_rational(r, 3)
        assert list(tail) == [0, 0, 0]

    def test_two_poles_against_division_oracle(self):
        # z/(z^2-1); oracle computed by polynomial long division
        num, den = Polynomial([0, 1]), Polynomial([-1, 0, 1])
        oracle = long_division_tail(num, den, 5)
        assert oracle == [1, 0, 1, 0, 1]
        tail = laurent_expand_rational(RationalFn(num, den), 5)
        assert all(abs(a - b) < noise_floor(0.9) for a, b in zip(tail, oracle))

    def test_order_zero_is_empty(self):
        assert len(laurent_expand_rational(RationalFn([1], [0, 1]), 0)) == 0

    def test_improper_fraction_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RationalFn([1, 2, 3], [0, 1])

    def test_reducible_fraction_rejected(self):
        # (z-1)/(z^2-1)^2: the numerator vanishes at the pole 1; RationalFn
        # keeps it, and the perturbation, which finds the poles, rejects it
        r = RationalFn([-1, 1], [1, 0, -2, 0, 1])
        with pytest.raises(ValueError, match="irreducible"):
            RationalPerturbation([r])

    def test_identity_num_equals_den_times_tail(self):
        # coefficientwise: num * z^K - den * tail-as-polynomial has degree < deg den
        rng = random.Random(11)
        for _ in range(10):
            d = rng.randint(1, 5)
            den = Polynomial([rng.uniform(-2, 2) for _ in range(d)] + [1])
            num = Polynomial([rng.uniform(-2, 2) for _ in range(d)])
            if num.is_zero:
                continue
            r = RationalFn(num, den)
            K = 8
            tail = laurent_expand_rational(r, K)
            tail_poly = Polynomial([tail[K - 1 - k] for k in range(K)])
            shifted = r.num * Polynomial([0] * K + [1])
            diff = shifted - r.den * tail_poly
            scale = max(r.num.max_coeff(), r.den.max_coeff(), mpf(1))
            assert all(
                abs(diff[k]) <= noise_floor(0.5) * scale
                for k in range(r.den.degree, diff.degree + 1)
            )

    def test_tail_sum_matches_function_far_out(self):
        # poles at -6 and 1; truncation error ~ (6/500)^30 < 1e-57
        r = RationalFn([2, 1], [-6, 5, 1])
        tail = laurent_expand_rational(r, 30)
        z = mpf(500)
        partial_sum = sum(c * z ** -(k + 1) for k, c in enumerate(tail))
        assert abs(partial_sum - r(z)) < mpf(10) ** -55


class TestRoots:
    def test_quadratic(self):
        roots = poly_roots(Polynomial([-1, 0, 1]))
        assert len(roots) == 2
        assert abs(roots[0] + 1) < noise_floor(0.5)
        assert abs(roots[1] - 1) < noise_floor(0.5)

    def test_double_root(self):
        roots = poly_roots(Polynomial([25, -10, 1]))
        assert len(roots) == 2
        assert all(abs(r - 5) < mpf(10) ** -20 for r in roots)

    def test_cubic_with_zero_root(self):
        roots = poly_roots(Polynomial([0, -1, 0, 1]))  # z^3 - z
        expected = [-1, 0, 1]
        assert len(roots) == 3
        for r, e in zip(roots, expected):
            assert abs(r - e) < noise_floor(0.5)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Polynomial([3]))
        with pytest.raises(ValueError):
            poly_roots(Polynomial.zero())

    def test_conjugate_pairs_exact(self):
        roots = poly_roots(Polynomial([1, 0, 1]))  # z^2 + 1
        assert roots[0] == mp.conj(roots[1])

    def test_residual_bound_contract(self):
        rng = random.Random(3)
        for _ in range(8):
            deg = rng.randint(2, 9)
            p = Polynomial([rng.uniform(-3, 3) for _ in range(deg)] + [1])
            roots = poly_roots(p)
            bound = noise_floor(0.5) * p.max_coeff()
            for r in roots:
                assert abs(p(r)) <= bound * max(mpf(1), abs(r)) ** p.degree

    def test_roundtrip_through_expansion(self):
        # roots -> from_roots reproduces coefficients to 2^-P/4 relative
        rng = random.Random(5)
        for _ in range(6):
            true_roots = sorted(rng.uniform(-2, 2) for _ in range(rng.randint(2, 8)))
            p = Polynomial.from_roots(true_roots)
            rebuilt = Polynomial.from_roots(poly_roots(p))
            scale = p.max_coeff()
            assert all(
                abs(rebuilt[k] - p[k]) <= noise_floor(0.25) * scale
                for k in range(p.degree + 1)
            )

    def test_agrees_with_library_oracle(self):
        # independent solver route: mpmath's own root finder
        rng = random.Random(13)
        for _ in range(4):
            deg = rng.randint(3, 7)
            p = Polynomial([rng.uniform(-3, 3) for _ in range(deg)] + [1])
            mine = poly_roots(p)
            theirs = mp.polyroots(
                [complex(c) for c in reversed(p.coeffs)], maxsteps=120, extraprec=120
            )
            theirs = sorted((mp.mpc(t) for t in theirs), key=lambda z: (z.real, z.imag))
            for a, b in zip(mine, theirs):
                assert abs(a - b) < mpf(10) ** -25


class TestRootStart:
    @pytest.mark.parametrize("j", [1, 2])
    def test_float_start_matches_circle_start(self, sweep_solutions, monkeypatch, j):
        # a_j of the README fixture at k=12: the float64 start is taken and
        # gives the roots the circle start gives, bit for bit
        p = sweep_solutions["perturbed"][12].a[j].trimmed()
        assert p.degree == 11
        assert algebra._float_start([mpc(c) for c in p.coeffs]) is not None
        from_float = poly_roots(p)
        monkeypatch.setattr(algebra, "_float_start", lambda c: None)
        from_circle = poly_roots(p)
        assert [(z.real._mpf_, z.imag._mpf_) for z in from_float] == [
            (z.real._mpf_, z.imag._mpf_) for z in from_circle
        ]

    def test_double_root_falls_back_to_the_circle(self):
        # float64 Aberth leaves the two approximations of 1 under 1e-6 apart,
        # too close to count as distinct
        p = Polynomial.from_roots([1, 1, 3])
        assert algebra._float_start([mpc(c) for c in p.coeffs]) is None
        roots = poly_roots(p)  # raises if a root misses the residual bound
        assert len(roots) == 3
        for r, e in zip(roots, [1, 1, 3]):
            assert abs(r - e) < mpf(10) ** -30

    @pytest.mark.parametrize("exponent", [400, -400])
    def test_coefficients_beyond_float64_fall_back_to_the_circle(self, exponent):
        # 10^400 overflows a float and 10^-400 underflows to 0.0
        p = Polynomial([mpf(10) ** exponent * c for c in (2, -3, 1)])  # (x-1)(x-2)
        assert algebra._float_start([mpc(c) for c in p.coeffs]) is None
        roots = poly_roots(p)
        assert len(roots) == 2
        for r, e in zip(roots, [1, 2]):
            assert abs(r - e) <= mpf(2) ** (8 - mp.prec) * e


class TestRootDisks:
    def test_zeros_at_the_origin_are_split_off(self):
        # z^2 (z - 1)(z - 2): two exact disks of radius 0 at 0, then one
        # disk about each of 1 and 2
        p = Polynomial.from_roots([0, 0, 1, 2])
        disks = algebra.root_disks(p)
        assert disks[:2] == [(mpc(0), mpf(0))] * 2
        for (c, rho), e in zip(sorted(disks[2:], key=lambda d: d[0].real), [1, 2]):
            assert abs(c - e) <= rho < mpf(2) ** -40

    def test_no_float64_start_gives_no_disks(self):
        # the double root of test_double_root_falls_back_to_the_circle
        assert algebra.root_disks(Polynomial.from_roots([1, 1, 3])) is None

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            algebra.root_disks(Polynomial([3]))


def distinct_real_polynomial(degree: int):
    """A real polynomial with distinct roots, some in conjugate pairs, from a seeded draw, and its roots.

    Real roots and the real and imaginary parts of the pairs are distinct
    multiples of 1/4 in [-3, 3], so each factor z - x or z^2 - 2a z + a^2 + b^2
    has exact coefficients, and the roots lie at least 1/4 apart.
    """
    rng = random.Random(100 + degree)
    pairs = rng.randint(0, degree // 2)
    grid = [mpf(k) / 64 for k in range(-192, 193, 16)]
    p = Polynomial.one()
    roots = []
    for x in rng.sample(grid, degree - 2 * pairs):
        p = p * Polynomial([-x, 1])
        roots.append(mpc(x))
    for a, b in zip(rng.sample(grid, pairs), rng.sample([g for g in grid if g > 0], pairs)):
        p = p * Polynomial([a * a + b * b, -2 * a, 1])
        roots += [mpc(a, b), mpc(a, -b)]
    return p, roots


def assert_roots_meet_the_contract(p, roots):
    """deg p roots within the residual bound, and the conjugate of each non-real root among them."""
    assert len(roots) == p.degree
    bound = noise_floor(0.5) * p.max_coeff()
    for r in roots:
        assert abs(p(r)) <= bound * max(mpf(1), abs(r)) ** p.degree
    keys = [z._mpc_ for z in roots]
    assert sorted(keys) == sorted(mp.conj(z)._mpc_ for z in roots)


class TestSweepFixtureRoots:
    """The roots of the sweep fixture and of seeded polynomials with known roots."""

    @pytest.mark.parametrize("kind", ["plain", "perturbed"])
    def test_every_component_of_the_sweep_fixture(self, sweep_solutions, kind):
        # each root meets the contract and lies in an inclusion disk, and
        # each disk disjoint from the others holds exactly one root
        checked = 0
        for v in sweep_solutions[kind].values():
            for a in v.a:
                p = a.trimmed()
                if p.degree < 1:
                    continue
                roots = poly_roots(p)
                assert_roots_meet_the_contract(p, roots)
                disks = algebra.root_disks(p)
                assert disks is not None and len(disks) == p.degree
                for r in roots:
                    assert any(abs(r - c) <= rho for c, rho in disks)
                for i, (c, rho) in enumerate(disks):
                    if all(abs(c - w) > rho + s for k, (w, s) in enumerate(disks) if k != i):
                        assert sum(1 for r in roots if abs(r - c) <= rho) == 1
                checked += 1
        assert checked == 15

    @pytest.mark.parametrize("degree", range(2, 15))
    def test_distinct_real_roots_and_conjugate_pairs(self, degree):
        p, exact = distinct_real_polynomial(degree)
        assert p.degree == degree
        roots = poly_roots(p)
        assert_roots_meet_the_contract(p, roots)
        # the exact roots lie 1/4 or more apart, so this matches them one to one
        for e in exact:
            assert min(abs(r - e) for r in roots) < noise_floor(0.5)

    def test_the_last_sweep_only_evaluates_p(self, sweep_solutions, monkeypatch):
        # README fixture, k = 12, a_1: the evaluations of p and of p' are
        # counted per multiprecision sweep; the sweep whose residuals reach
        # the floor takes no p', so it does not step
        p = sweep_solutions["perturbed"][12].a[1].trimmed()
        n = p.degree
        assert n == 11
        sweeps = []
        active = [False]
        sweep, horner = algebra._sweep, algebra._horner

        def counting_sweep(c, dc, z, norm, floor, one, bits):
            active[0] = isinstance(one, mpf)  # the float64 start's sweeps are not counted
            if active[0]:
                assert bits == mp.prec
                sweeps.append({"p": 0, "dp": 0})
            try:
                return sweep(c, dc, z, norm, floor, one, bits)
            finally:
                active[0] = False

        def counting_horner(cs, x):
            if active[0]:
                sweeps[-1]["p" if len(cs) == n + 1 else "dp"] += 1
            return horner(cs, x)

        monkeypatch.setattr(algebra, "_sweep", counting_sweep)
        monkeypatch.setattr(algebra, "_horner", counting_horner)
        poly_roots(p)
        full = {"p": n, "dp": n}
        assert sweeps == [full, full, {"p": n, "dp": 0}]


def with_start(monkeypatch, start):
    """poly_roots takes start as its float64 start."""
    monkeypatch.setattr(algebra, "_float_start", lambda c: [mpc(w) for w in start])


class TestGuards:
    """Each guard of the multiprecision iteration, reached from a chosen start.

    TestSweepGuards checks each guard's arithmetic on the first sweep from
    these starts; here the roots that follow meet the contract.
    """

    def test_two_equal_approximations(self, monkeypatch):
        # z_0 - z_1 is exactly 0 at the first step
        p = Polynomial.from_roots([1, 2, 3])
        with_start(monkeypatch, [1.5 + 0.5j, 1.5 + 0.5j, 4 + 0.1j])
        roots = poly_roots(p)
        assert_roots_meet_the_contract(p, roots)
        for r, e in zip(roots, [1, 2, 3]):
            assert abs(r - e) < noise_floor(0.5)

    def test_an_approximation_at_a_critical_point(self, monkeypatch):
        # p = (z - 1)(z - 3) has p'(2) = 0 exactly
        p = Polynomial([3, -4, 1])
        with_start(monkeypatch, [2, 5 + 1j])
        roots = poly_roots(p)
        assert_roots_meet_the_contract(p, roots)
        for r, e in zip(roots, [1, 3]):
            assert abs(r - e) < noise_floor(0.5)

    def test_stagnation_restarts_from_a_jitter(self, monkeypatch):
        # from a real start the iterates of z^2 + 1 stay real and never
        # near +-i; after 21 sweeps without gain a seeded jitter moves them
        # off the axis
        p = Polynomial([1, 0, 1])
        with_start(monkeypatch, [2, -3])
        jitters = [0]
        uniform = random.Random.uniform

        def counting_uniform(self, a, b):
            jitters[0] += 1
            return uniform(self, a, b)

        monkeypatch.setattr(random.Random, "uniform", counting_uniform)
        roots = poly_roots(p)
        assert jitters[0] > 0 and jitters[0] % (2 * p.degree) == 0
        assert_roots_meet_the_contract(p, roots)
        assert roots[0] == mp.conj(roots[1])
        assert abs(roots[1] - mpc(0, 1)) < noise_floor(0.5)

    def test_an_approximation_at_zero_where_the_derivative_vanishes(self, monkeypatch):
        # p = z^2 - 1 has p'(0) = 0 exactly, and no factor moves 0
        p = Polynomial([-1, 0, 1])
        with_start(monkeypatch, [0, 2 + 1j])
        roots = poly_roots(p)
        assert_roots_meet_the_contract(p, roots)
        for r, e in zip(roots, [-1, 1]):
            assert abs(r - e) < noise_floor(0.5)

    def test_restart_jitter_moves_an_approximation_at_zero(self, monkeypatch):
        # sweeps that never move leave z_0 = 0 at every restart; the jitter
        # gives it the offset 2^(-P/4) u, and the far one its factor
        monkeypatch.setattr(algebra, "_sweep", lambda c, dc, z, norm, floor, one, bits: (mpf(1), mpf(1)))
        c = [mpc(-1), mpc(0), mpc(1)]
        z = algebra._aberth(c, [mpc(0), mpc(2, 1)])
        assert z[0] != 0 and abs(z[0]) < mpf(2) ** (-mp.prec // 4 + 2)
        assert z[1] != mpc(2, 1) and abs(z[1] - mpc(2, 1)) < mpf(2) ** (-mp.prec // 4 + 4)


@pytest.mark.parametrize("kind", ["float", "mpc"])
class TestSweepGuards:
    """The sweep's guards, on Python complex (bits = 53) and on mpc (bits = P) operands.

    Each test forms the first step of z_0 by hand, from the same operations
    in the same order, and the sweep must give that step exactly.
    """

    @staticmethod
    def unit(kind):
        """(one, bits) of the operands."""
        return (1.0, 53) if kind == "float" else (mpf(1), mp.prec)

    def operands(self, kind, values):
        one, _ = self.unit(kind)
        return [one * complex(x) for x in values]

    def first_step(self, kind, coeffs, z, w, s):
        """Sweep over z; return the step of z_0 from w, with s the sum of its reciprocals.

        p is read before z_0 is nudged, p' after it.  A floor of -1 lets
        the sweep step whatever its residuals.
        """
        one, bits = self.unit(kind)
        c = self.operands(kind, coeffs)
        dc = [k * c[k] for k in range(1, len(c))]
        newton = _horner(c, z[0]) / _horner(dc, w)
        algebra._sweep(c, dc, z, max(abs(x) for x in c), -1, one, bits)
        return newton / (1 - newton * s)

    def test_a_critical_point_is_nudged_by_a_factor(self, kind):
        # p = (z - 1)(z - 3) has p'(2) = 0: z_0 moves to 2 (1 + 2^(-bits/3))
        # first, and steps from there
        one, bits = self.unit(kind)
        z = self.operands(kind, [2, 5 + 1j])
        nudged = z[0] * (1 + (2 * one) ** (-bits // 3))
        assert nudged != z[0]
        step = self.first_step(kind, [3, -4, 1], z, nudged, 1 / (nudged - z[1]))
        assert z[0] == nudged - step

    def test_zero_is_shifted_where_the_derivative_vanishes(self, kind):
        # p = z^2 - 1: no factor moves z_0 = 0, so it goes to 2^(-bits/3) first
        one, bits = self.unit(kind)
        z = self.operands(kind, [0, 2 + 1j])
        shifted = z[0] + (2 * one) ** (-bits // 3)
        step = self.first_step(kind, [-1, 0, 1], z, shifted, 1 / (shifted - z[1]))
        assert z[0] == shifted - step

    def test_two_equal_approximations(self, kind):
        # z_0 - z_1 is exactly 0: 1/(2^(-bits/2) (1 + |z_0|)) stands in for
        # its reciprocal, and z_0 moves off z_1
        one, bits = self.unit(kind)
        z = self.operands(kind, [1.5 + 0.5j, 1.5 + 0.5j, 4 + 0.1j])
        w = z[0]
        s = 0
        s += 1 / ((2 * one) ** (-bits // 2) * (1 + abs(w)))
        s += 1 / (w - z[2])
        step = self.first_step(kind, Polynomial.from_roots([1, 2, 3]).coeffs, z, w, s)
        assert z[0] == w - step != z[1]
