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


# The mpc iteration that steps after reading each residual: the former
# algebra._sweep and algebra._aberth, verbatim.  It evaluates p, p' and every
# 1/(z_i - z_j) in the sweep after the one whose residuals reach the floor,
# and is the oracle for the roots of the present iteration.


def _sweep(c, dc, z, norm, one, bits):
    """One Aberth-Ehrlich sweep over the approximations z, updated in place.

    Works on Python complex (one = 1.0, bits = 53) and on mpc (one = mpf(1),
    bits = mp.prec) alike.  Returns (metric, moved): the largest scaled
    residual |p(z_i)| / (||p|| max(1, |z_i|)^n), each taken just before z_i
    steps, and the largest relative step.
    """
    n = len(c) - 1
    metric = moved = 0 * one
    for i in range(n):
        pv = _horner(c, z[i])
        metric = max(metric, abs(pv) / (norm * max(one, abs(z[i])) ** n))
        if pv == 0:
            continue
        dv = _horner(dc, z[i])
        if dv == 0:
            z[i] *= 1 + (2 * one) ** (-bits // 3)
            dv = _horner(dc, z[i])
            if dv == 0:
                continue
        newton = pv / dv
        s = 0
        for j in range(n):
            if j == i:
                continue
            diff = z[i] - z[j]
            if diff == 0:
                diff = (2 * one) ** (-bits // 2) * (1 + abs(z[i]))
            s += 1 / diff
        denom = 1 - newton * s
        step = newton if denom == 0 else newton / denom
        z[i] = z[i] - step
        moved = max(moved, abs(step) / (1 + abs(z[i])))
    return metric, moved


def _aberth(c, z) -> list:
    """Simultaneous Aberth-Ehrlich iteration from the start z; c ascending mpc, c0 != 0."""
    n = len(c) - 1
    dc = [k * c[k] for k in range(1, n + 1)]
    norm = max(abs(x) for x in c)
    rng = random.Random(0xA8E27 ^ n)

    floor_metric = mpf(2) ** (-mp.prec + 12 + n.bit_length())
    accept_metric = mpf(2) ** (-mp.prec // 2 - 8)
    best = mp.inf
    stall = 0
    restarts = 0
    max_iter = 600
    for _ in range(max_iter):
        metric, moved = _sweep(c, dc, z, norm, mpf(1), mp.prec)
        if metric <= floor_metric:
            break
        if moved <= mpf(2) ** (-mp.prec + 16) and metric <= accept_metric:
            break
        if metric < best * mpf("0.99"):
            best = metric
            stall = 0
        else:
            stall += 1
        # stagnation: random perturbation restart
        if stall > 20:
            if metric <= accept_metric:
                break
            restarts += 1
            if restarts > 4:
                break
            jitter = mpf(2) ** (-mp.prec // 4)
            z = [
                w * (1 + jitter * mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for w in z
            ]
            best = mp.inf
            stall = 0
    return z


def roots_of(p, aberth=algebra._aberth):
    """poly_roots(p) as _mpc_ tuples, with aberth in place of algebra._aberth."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_aberth", aberth)
        return [z._mpc_ for z in poly_roots(p)]


def distinct_real_polynomial(degree: int) -> Polynomial:
    """A real polynomial with distinct roots, some in conjugate pairs, from a seeded draw.

    Real roots and the real and imaginary parts of the pairs are distinct
    multiples of 1/4 in [-3, 3], so each factor z - x or z^2 - 2a z + a^2 + b^2
    has exact coefficients.
    """
    rng = random.Random(100 + degree)
    pairs = rng.randint(0, degree // 2)
    grid = [mpf(k) / 64 for k in range(-192, 193, 16)]
    p = Polynomial.one()
    for x in rng.sample(grid, degree - 2 * pairs):
        p = p * Polynomial([-x, 1])
    for a, b in zip(rng.sample(grid, pairs), rng.sample([g for g in grid if g > 0], pairs)):
        p = p * Polynomial([a * a + b * b, -2 * a, 1])
    return p


class TestSameRootsAsSteppingEverySweep:
    """The sweep whose residuals reach the floor does not step, and the roots keep the bits
    that stepping it gives."""

    @pytest.mark.parametrize("kind", ["plain", "perturbed"])
    def test_every_component_of_the_sweep_fixture(self, sweep_solutions, kind):
        checked = 0
        for v in sweep_solutions[kind].values():
            for a in v.a:
                p = a.trimmed()
                if p.degree < 1:
                    continue
                assert roots_of(p) == roots_of(p, _aberth)
                checked += 1
        assert checked == 15

    @pytest.mark.parametrize("degree", range(2, 15))
    def test_distinct_real_roots_and_conjugate_pairs(self, degree):
        p = distinct_real_polynomial(degree)
        assert p.degree == degree
        assert roots_of(p) == roots_of(p, _aberth)

    def test_the_last_sweep_only_evaluates_p(self, sweep_solutions, monkeypatch):
        # README fixture, k = 12, a_1: p' and the reciprocals 1/(z_i - z_j),
        # each with its |z_i - z_j|^2 from _norm, are counted per sweep
        p = sweep_solutions["perturbed"][12].a[1].trimmed()
        n = p.degree
        assert n == 11
        sweeps = []
        residuals, horner, norm = algebra._residuals, algebra._mpc_horner, algebra._norm

        def counting_residuals(cs, zs, norm):
            sweeps.append({"p": 0, "dp": 0, "reciprocals": 0})
            return residuals(cs, zs, norm)

        def counting_horner(cs, z):
            sweeps[-1]["p" if len(cs) == n + 1 else "dp"] += 1
            return horner(cs, z)

        def counting_norm(a, sq, wide):
            assert wide == mp.prec + 10
            sweeps[-1]["reciprocals"] += 1
            return norm(a, sq, wide)

        monkeypatch.setattr(algebra, "_residuals", counting_residuals)
        monkeypatch.setattr(algebra, "_mpc_horner", counting_horner)
        monkeypatch.setattr(algebra, "_norm", counting_norm)
        poly_roots(p)
        full = {"p": n, "dp": n, "reciprocals": n * (n - 1)}
        assert sweeps == [full, full, {"p": n, "dp": 0, "reciprocals": 0}]


def with_start(monkeypatch, start):
    """poly_roots takes start as its float64 start."""
    monkeypatch.setattr(algebra, "_float_start", lambda c: [mpc(w) for w in start])


def counting(monkeypatch, owner, name):
    """Wrap owner.name to count its calls; returns the one-entry count list."""
    calls = [0]
    f = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def assert_roots_meet_the_contract(p, roots):
    """deg p roots within the residual bound, the bits that stepping every sweep gives."""
    assert len(roots) == p.degree
    bound = noise_floor(0.5) * p.max_coeff()
    for r in roots:
        assert abs(p(r)) <= bound * max(mpf(1), abs(r)) ** p.degree
    assert [z._mpc_ for z in roots] == roots_of(p, _aberth)


class TestGuards:
    """Each guard of the multiprecision steps, reached from a chosen start."""

    def test_two_equal_approximations(self, monkeypatch):
        # z_0 - z_1 is exactly 0 at the first step: 1/(2^-P/2 (1 + |z_0|))
        # stands in for its reciprocal, formed by mpf_rdiv_int
        p = Polynomial.from_roots([1, 2, 3])
        with_start(monkeypatch, [1.5 + 0.5j, 1.5 + 0.5j, 4 + 0.1j])
        stand_ins = counting(monkeypatch, algebra, "mpf_rdiv_int")
        roots = poly_roots(p)
        assert stand_ins[0] == 1
        assert_roots_meet_the_contract(p, roots)
        for r, e in zip(roots, [1, 2, 3]):
            assert abs(r - e) < noise_floor(0.5)

    def test_an_approximation_at_a_critical_point(self, monkeypatch):
        # p = (z - 1)(z - 3) has p'(2) = 0 exactly: z_0 = 2 is nudged by
        # the factor 1 + 2^(-P/3) before it steps
        p = Polynomial([3, -4, 1])
        with_start(monkeypatch, [2, 5 + 1j])
        nudges = counting(monkeypatch, algebra, "mpc_mul_mpf")
        roots = poly_roots(p)
        assert nudges[0] == 1
        assert_roots_meet_the_contract(p, roots)
        for r, e in zip(roots, [1, 3]):
            assert abs(r - e) < noise_floor(0.5)

    def test_stagnation_restarts_from_a_jitter(self, monkeypatch):
        # from a real start the iterates of z^2 + 1 stay real and never
        # near +-i; after 21 sweeps without gain a seeded jitter moves them
        # off the axis
        p = Polynomial([1, 0, 1])
        with_start(monkeypatch, [2, -3])
        jitters = counting(monkeypatch, random.Random, "uniform")
        roots = poly_roots(p)
        assert jitters[0] > 0 and jitters[0] % (2 * p.degree) == 0
        assert_roots_meet_the_contract(p, roots)
        assert roots[0] == mp.conj(roots[1])
        assert abs(roots[1] - mpc(0, 1)) < noise_floor(0.5)

    def test_an_approximation_at_zero_where_the_derivative_vanishes(self, monkeypatch):
        # p = z^2 - 1 has p'(0) = 0 exactly, and no factor moves 0: z_0 is
        # shifted to 2^(-P/3) instead, and the roots are found
        p = Polynomial([-1, 0, 1])
        with_start(monkeypatch, [0, 2 + 1j])
        roots = poly_roots(p)
        assert len(roots) == 2
        for r, e in zip(roots, [-1, 1]):
            assert abs(r - e) < noise_floor(0.5)

    def test_restart_jitter_moves_an_approximation_at_zero(self, monkeypatch):
        # steps that never move leave z_0 = 0 at every restart; the jitter
        # gives it the offset 2^(-P/4) u, and the far one its factor
        monkeypatch.setattr(algebra, "_steps", lambda dcs, zs, values: mpf(1)._mpf_)
        c = [mpc(-1), mpc(0), mpc(1)]
        z = algebra._aberth(c, [mpc(0), mpc(2, 1)])
        assert z[0] != 0 and abs(z[0]) < mpf(2) ** (-mp.prec // 4 + 2)
        assert z[1] != mpc(2, 1) and abs(z[1] - mpc(2, 1)) < mpf(2) ** (-mp.prec // 4 + 4)


class TestFloatSweepGuards:
    """The float64 sweep's own guards, which no circle start reaches."""

    @staticmethod
    def first_step(coeffs, z, w, s):
        """Sweep over z; return the step of z_0 from w, with s the sum of its reciprocals.

        p is read before z_0 is nudged, p' after it.
        """
        c = [complex(x) for x in coeffs]
        dc = [k * c[k] for k in range(1, len(c))]
        newton = _horner(c, z[0]) / _horner(dc, w)
        algebra._float_sweep(c, dc, z, max(abs(x) for x in c))
        return newton / (1 - newton * s)

    def test_a_critical_point_is_nudged_by_a_factor(self):
        # p = (z - 1)(z - 3) has p'(2) = 0: z_0 moves to 2 (1 + 2^-18) first,
        # and steps from there
        z = [2 + 0j, 5 + 1j]
        nudged = (2 + 0j) * (1 + 2.0**-18)
        step = self.first_step([3, -4, 1], z, nudged, 1 / (nudged - z[1]))
        assert z[0] == nudged - step

    def test_zero_is_shifted_where_the_derivative_vanishes(self):
        # p = z^2 - 1: no factor moves z_0 = 0, so it goes to 2^-18 first
        z = [0j, 2 + 1j]
        shifted = 2.0**-18
        step = self.first_step([-1, 0, 1], z, shifted, 1 / (shifted - z[1]))
        assert z[0] == shifted - step

    def test_two_equal_approximations(self):
        # z_0 - z_1 is exactly 0: 1/(2^-27 (1 + |z_0|)) stands in for its
        # reciprocal, and z_0 moves off z_1
        w = 1.5 + 0.5j
        z = [w, w, 4 + 0.1j]
        s = 1 / (2.0**-27 * (1 + abs(w))) + 1 / (w - z[2])
        step = self.first_step(Polynomial.from_roots([1, 2, 3]).coeffs, z, w, s)
        assert z[0] == w - step != z[1]
