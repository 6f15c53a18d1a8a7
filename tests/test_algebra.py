"""Polynomial/rational arithmetic, Laurent expansion, gcd, and root finding."""

import random

import pytest
from mpmath import mp, mpf

from nikishin_hp import (
    LaurentTail,
    Polynomial,
    RationalFn,
    laurent_expand_rational,
    noise_floor,
    poly_gcd,
    poly_roots,
)


def long_division_tail(num: Polynomial, den: Polynomial, K: int):
    """Independent oracle: quotient of num * z^K by den gives the tail."""
    shifted = num * Polynomial([0] * K + [1])
    quo, _ = divmod(shifted, den)
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
            q, r = divmod(a, b)
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
        with pytest.raises(ValueError):
            RationalFn([-1, 1], [1, 0, -2, 0, 1])  # (z-1) | (z^2-1)^2... shares a root

    def test_identity_num_equals_den_times_tail(self):
        # coefficientwise: num * z^K - den * tail-as-polynomial has degree < deg den
        rng = random.Random(11)
        for _ in range(10):
            d = rng.randint(1, 5)
            den = Polynomial([rng.uniform(-2, 2) for _ in range(d)] + [1])
            num = Polynomial([rng.uniform(-2, 2) for _ in range(d)])
            if num.is_zero:
                continue
            try:
                r = RationalFn(num, den)
            except ValueError:
                continue  # randomly reducible
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
        assert abs(tail.partial_sum(z) - r(z)) < mpf(10) ** -55


class TestGcd:
    def test_simple_factor(self):
        g = poly_gcd(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))
        assert g.degree == 1
        assert abs(g[0] + 1) < noise_floor(0.5) and abs(g[1] - 1) < noise_floor(0.5)

    def test_coprime(self):
        g = poly_gcd(Polynomial([-3, 1]), Polynomial([-4, 1]))
        assert g.degree == 0

    def test_double_root_pair(self):
        # gcd(z^2-2z+1, z^2-1) = z-1 by Euclid
        g = poly_gcd(Polynomial([1, -2, 1]), Polynomial([-1, 0, 1]))
        assert g.degree == 1
        assert abs(g[0] + 1) < noise_floor(0.4)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Polynomial.zero(), Polynomial.zero())


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


class TestLaurentTail:
    def test_addition_requires_equal_length(self):
        with pytest.raises(ValueError):
            LaurentTail([1, 2]) + LaurentTail([1])

    def test_entries_accessible(self):
        t = LaurentTail([1, 2, 3])
        assert len(t) == 3 and t[2] == 3
