"""Measure realization, moments, Cauchy transforms, inverse measures."""

import importlib.util
import math
import random
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.matrices.eigen_symmetric import tridiag_eigen

import mpf_reference
from nikishin_hp import cli, measures
from nikishin_hp.measures import cauchy_evals
from nikishin_hp import (
    AtomicMeasure,
    Interval,
    MeasureSpec,
    SystemSpec,
    build_system,
    cauchy_eval,
    gauss_jacobi_rule,
    inverse_measure,
    moments,
    noise_floor,
    realize,
)

TIGHT = mpf(10) ** -70
WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


def two_atom():
    return AtomicMeasure([-1, 1], ["0.5", "0.5"], 1, Interval("-1.5", "1.5"))


def unit_at(x, lo, hi):
    return AtomicMeasure([x], [1], 1, Interval(lo, hi))


class TestInterval:
    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            Interval(1, 1)
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, mp.inf)

    def test_distance(self):
        iv = Interval(1, 3)
        assert iv.distance_to(mpc(5, 0)) == 2
        assert abs(iv.distance_to(mpc(2, 1)) - 1) < TIGHT


class TestGap:
    # gap is the one way the package orders two intervals
    @pytest.mark.parametrize(
        "a, b, lo, hi",
        [
            ((-1, 0), (1, 3), 0, 1),  # apart
            ((1, 3), (-1, 0), 0, 1),  # apart, right one first
            ((-1, 0), (0, 2), 0, 0),  # one shared point
            ((0, 2), (-1, 0), 0, 0),
            ((-1, 1), (0, 2), 1, 0),  # overlap
            ((-3, 3), (-1, 1), 3, -1),  # nested
            ((-1, 1), (-3, 3), 3, -1),
            ((0, 1), (0, 2), 1, 0),  # one left endpoint: self is the left one
            ((0, 2), (0, 1), 2, 0),
            ((-1, 0), (-1, 0), 0, -1),  # an interval overlaps itself
        ],
    )
    def test_verdicts(self, a, b, lo, hi):
        assert Interval(*a).gap(Interval(*b)) == (lo, hi)

    @pytest.mark.parametrize(
        "a, b", [((-1, 0), (1, 3)), ((-1, 0), (0, 2)), ((-1, 1), (0, 2)), ((-3, 3), (-1, 1))]
    )
    def test_verdict_does_not_depend_on_the_order(self, a, b):
        # the sign of hi - lo, and lo == hi, are the same either way round
        lo, hi = Interval(*a).gap(Interval(*b))
        lo2, hi2 = Interval(*b).gap(Interval(*a))
        assert (lo < hi, lo == hi) == (lo2 < hi2, lo2 == hi2)


def legendre_spec(count):
    return MeasureSpec(kind="legendre-density", interval=Interval(-1, 0), node_count=count)


class TestNodeCount:
    """A density kind's node_count follows the package's one integer rule."""

    def test_integral_float_builds_the_integer_rule(self):
        spec = legendre_spec(4.0)
        assert spec.node_count == 4 and type(spec.node_count) is int
        got, want = realize(spec), realize(legendre_spec(4))
        assert got.nodes == want.nodes and got.weights == want.weights

    @pytest.mark.parametrize("count", [4.5, True, "4", None])
    def test_non_integer_rejected(self, count):
        with pytest.raises(ValueError, match=r"^node_count must be an integer, got "):
            legendre_spec(count)

    def test_below_one_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"^node_count must be >= 1$"):
            legendre_spec(0.0)


class TestRealize:
    def test_atoms_verbatim(self):
        spec = MeasureSpec(
            kind="atoms",
            interval=Interval(-1.5, 1.5),
            nodes=(-1, 1),
            weights=("0.5", "0.5"),
            sign=1,
        )
        mu = realize(spec)
        assert mu.nodes == (mpf(-1), mpf(1))
        assert mu.weights == (mpf("0.5"), mpf("0.5"))
        assert mu.sign == 1

    def test_one_point_legendre(self):
        # 1-point Gauss rule: exact for degree <= 1, so node 0, weight 2
        spec = MeasureSpec(kind="legendre-density", interval=Interval(-1, 1), node_count=1)
        mu = realize(spec)
        assert abs(mu.nodes[0]) < TIGHT
        assert abs(mu.weights[0] - 2) < TIGHT

    def test_two_point_chebyshev_against_closed_form(self):
        # Chebyshev-Gauss oracle: nodes cos((2i-1)pi/2n), weights pi/n
        spec = MeasureSpec(
            kind="jacobi-density",
            interval=Interval(-1, 1),
            node_count=2,
            alpha=mpf("-0.5"),
            beta=mpf("-0.5"),
        )
        mu = realize(spec)
        oracle_nodes = sorted([mp.cos(3 * mp.pi / 4), mp.cos(mp.pi / 4)])
        for x, e in zip(mu.nodes, oracle_nodes):
            assert abs(x - e) < TIGHT
        assert abs(mu.weights[0] - mu.weights[1]) < TIGHT
        assert abs(sum(mu.weights) - mp.pi) < TIGHT

    @pytest.mark.parametrize(
        "half, n, bits",
        [
            # deep-diag-m2's rule: Chebyshev first kind, nodes cos((2i-1)pi/2n), weights pi/n
            (mpf("-0.5"), 64, 512),
            # Chebyshev second kind: nodes cos(i pi/(n+1)), weights pi/(n+1) sin^2(i pi/(n+1))
            (mpf("0.5"), 32, 256),
        ],
    )
    def test_chebyshev_rules_against_closed_form(self, half, n, bits):
        with mp.workprec(bits):
            xs, ws = gauss_jacobi_rule(n, half, half)
            if half < 0:
                angles = [(2 * i - 1) * mp.pi / (2 * n) for i in range(n, 0, -1)]
                oracle_ws = [mp.pi / n] * n
            else:
                angles = [i * mp.pi / (n + 1) for i in range(n, 0, -1)]
                oracle_ws = [mp.pi / (n + 1) * mp.sin(t) ** 2 for t in angles]
            tol = mpf(2) ** (8 - bits)
            assert len(xs) == n
            for x, t in zip(xs, angles):
                assert abs(x - mp.cos(t)) <= tol
            for w, e in zip(ws, oracle_ws):
                assert abs(w - e) <= tol * e

    def test_one_node_jacobi_rule(self):
        # node (beta-alpha)/(alpha+beta+2), weight the total mass 2^(a+b+1) B(a+1, b+1)
        alpha, beta = mpf("1.5"), mpf("-0.25")
        (x,), (w,) = gauss_jacobi_rule(1, alpha, beta)
        tol = mpf(2) ** (8 - mp.prec)
        assert abs(x - (beta - alpha) / (alpha + beta + 2)) <= tol
        mass = 2 ** (alpha + beta + 1) * mp.beta(alpha + 1, beta + 1)
        assert abs(w - mass) <= tol * mass

    def test_quadrature_exactness_against_integral_oracle(self):
        # n-point rule integrates x^k exactly through degree 2n-1
        for n in (3, 8):
            xs, ws = gauss_jacobi_rule(n, 0, 0)
            for k in range(2 * n):
                exact = mpf(2) / (k + 1) if k % 2 == 0 else mpf(0)
                got = mp.fsum(w * x**k for x, w in zip(xs, ws))
                assert abs(got - exact) < TIGHT

    @pytest.mark.parametrize("n, alpha, beta", [(7, "1.5", "-0.25"), (9, "0.5", "0.5")])
    def test_jacobi_exactness_against_beta_moments(self, n, alpha, beta):
        # int x^k (1-x)^a (1+x)^b dx over [-1, 1], with x = 2t - 1:
        # 2^(a+b+1) sum_j C(k, j) 2^j (-1)^(k-j) B(j+b+1, a+1)
        alpha, beta = mpf(alpha), mpf(beta)
        xs, ws = gauss_jacobi_rule(n, alpha, beta)
        for k in range(2 * n):
            exact = 2 ** (alpha + beta + 1) * mp.fsum(
                math.comb(k, j) * 2**j * (-1) ** (k - j) * mp.beta(j + beta + 1, alpha + 1)
                for j in range(k + 1)
            )
            got = mp.fsum(w * x**k for x, w in zip(xs, ws))
            assert abs(got - exact) < TIGHT

    def test_negative_density_scale_flips_sign(self):
        spec = MeasureSpec(
            kind="legendre-density",
            interval=Interval(-1, 1),
            node_count=2,
            density_scale=mpf(-3),
        )
        mu = realize(spec)
        assert mu.sign == -1
        assert abs(mu.total_mass + 6) < TIGHT  # -3 * 2

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            AtomicMeasure([0, 2], [1, 1], 1, Interval(-1, 1))  # node outside
        with pytest.raises(ValueError):
            AtomicMeasure([1, 0], [1, 1], 1, Interval(-1, 2))  # not increasing
        with pytest.raises(ValueError):
            AtomicMeasure([0], [0], 1, Interval(-1, 1))  # zero weight
        with pytest.raises(ValueError):
            MeasureSpec(kind="legendre-density", interval=Interval(0, 1), node_count=0)
        with pytest.raises(ValueError):
            MeasureSpec(
                kind="jacobi-density",
                interval=Interval(0, 1),
                node_count=2,
                alpha=mpf(-1),
                beta=mpf(0),
            )


def reference_rule(n, alpha, beta):
    """The Gauss-Jacobi rule as computed before mirroring and the quadratic stop.

    Every float64 seed is Newton-polished at P+64 bits until a step is at most
    2^(8-prec)(1+|x|), one step past quadratic convergence, and every weight
    comes from the Christoffel loop; nodes and weights are then rounded to P.
    """
    alpha, beta = mpf(alpha), mpf(beta)
    diag, offsq, mu0 = measures._jacobi_recurrence(n, alpha, beta)
    seeds = [float(a) for a in diag]
    tridiag_eigen(measures._FLOAT_QL, seeds, [math.sqrt(b) for b in offsq[1:n]] + [0.0])
    with mp.workprec(mp.prec + 64):
        nodes = []
        tol = mpf(2) ** (-mp.prec + 8)
        for x0 in seeds:
            x = mpf(x0)
            for _ in range(80):
                p_prev, p, dp_prev, dp = mpf(0), mpf(1), mpf(0), mpf(0)
                for k in range(n):
                    p_prev, p, dp_prev, dp = (
                        p,
                        (x - diag[k]) * p - offsq[k] * p_prev,
                        dp,
                        p + (x - diag[k]) * dp - offsq[k] * dp_prev,
                    )
                step = p / dp
                x -= step
                if abs(step) <= tol * (1 + abs(x)):
                    break
            nodes.append(x)
        weights = []
        for x in nodes:
            total, prev, cur, norm = 1 / mu0, mpf(0), mpf(1), mu0
            for k in range(1, n):
                prev, cur = cur, (x - diag[k - 1]) * cur - offsq[k - 1] * prev
                norm *= offsq[k]
                total += cur * cur / norm
            weights.append(1 / total)
    return [mpf(x) for x in nodes], [mpf(w) for w in weights]


# (alpha, beta) of the Legendre, Chebyshev and Jacobi(+-1/2, -+1/2) rules the
# benchmark workloads and the golden report sets realize
RULE_FAMILIES = {
    "legendre": (0, 0),
    "chebyshev": ("-0.5", "-0.5"),
    "jacobi+-": ("0.5", "-0.5"),
    "jacobi-+": ("-0.5", "0.5"),
}


def mpf_bits(xs):
    return [x._mpf_ for x in xs]


class TestGaussRuleOracle:
    @pytest.mark.parametrize("bits", [128, 256, 512])
    @pytest.mark.parametrize("n", [7, 16, 32, 33, 64])
    @pytest.mark.parametrize("family", sorted(RULE_FAMILIES))
    def test_rule_bits_match_the_reference(self, family, n, bits):
        alpha, beta = RULE_FAMILIES[family]
        with mp.workprec(bits):
            xs, ws = gauss_jacobi_rule(n, mpf(alpha), mpf(beta))
            ref_xs, ref_ws = reference_rule(n, alpha, beta)
        if n % 2 and alpha == beta:
            # the middle node is exactly 0, where the reference may leave a
            # residue below 2^-P
            mid = n // 2
            assert xs[mid] == 0 and abs(ref_xs[mid]) < mpf(2) ** -bits
            xs, ref_xs = xs[:mid] + xs[mid + 1 :], ref_xs[:mid] + ref_xs[mid + 1 :]
        assert mpf_bits(xs) == mpf_bits(ref_xs)
        assert mpf_bits(ws) == mpf_bits(ref_ws)

    def test_symmetric_rule_is_mirrored(self):
        xs, ws = gauss_jacobi_rule(9, 0, 0)
        assert xs[4] == 0
        assert [-x for x in xs[::-1]] == xs and ws[::-1] == ws

    def test_a_node_that_does_not_converge_raises(self, monkeypatch):
        # _newton_in_bracket gives None when 80 steps do not settle
        steps = []

        def unsettled(f_and_slope, a, b, x, tol, limit):
            steps.append(limit)

        monkeypatch.setattr(measures, "_newton_in_bracket", unsettled)
        with mp.workprec(128):
            diag, offsq, _ = measures._jacobi_recurrence(16, mpf(0), mpf(0))
            with pytest.raises(RuntimeError, match="quadrature node failed to converge"):
                measures._newton_nodes(16, diag, offsq, 8)
        assert steps == [80]


def newton_polish(x0, n, diag, offsq):
    """The Gauss node Newton before it took _newton_in_bracket, verbatim."""
    x = mpf(x0)
    tol = mpf(2) ** (-(mp.prec // 2) - 8) / n**2
    for _ in range(80):
        p_prev, p = mpf(0), mpf(1)
        dp_prev, dp = mpf(0), mpf(0)
        for k in range(n):
            p_prev, p, dp_prev, dp = (
                p,
                (x - diag[k]) * p - offsq[k] * p_prev,
                dp,
                p + (x - diag[k]) * dp - offsq[k] * dp_prev,
            )
        step = p / dp
        x -= step
        if abs(step) <= tol * (1 + abs(x)):
            return x
    raise RuntimeError("quadrature node failed to converge; raise precision")


class TestBracketedNewtonNodes:
    @pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
    def test_nodes_keep_the_bits_of_the_unbracketed_newton(self, bits):
        # each float64 seed, polished by the former loop, gives the node
        # _newton_nodes gives; the sweep n = 1..40, 48, 64, 80 over these
        # five pairs at these precisions (1,075 rules) found no differing bit
        with mp.workprec(bits):
            for alpha, beta in ((0, 0), ("0.25", "-0.3"), ("1.5", "0.5"), ("-0.7", "-0.7"), (2, 3)):
                for n in (1, 2, 3, 4, 7, 12, 19, 26):
                    diag, offsq, _ = measures._jacobi_recurrence(n, mpf(alpha), mpf(beta))
                    seeds = [float(a) for a in diag]
                    tridiag_eigen(measures._FLOAT_QL, seeds, [math.sqrt(b) for b in offsq[1:n]] + [0.0])
                    with mp.workprec(mp.prec + 64):
                        nodes = measures._newton_nodes(n, diag, offsq, n)
                        ref = [newton_polish(x, n, diag, offsq) for x in seeds]
                    assert mpf_bits(nodes) == mpf_bits(ref), (alpha, beta, n)


def newton_rule(n, alpha, beta):
    """gauss_jacobi_rule by Newton nodes and Christoffel weights, whatever (alpha, beta)."""
    alpha, beta = mpf(alpha), mpf(beta)
    diag, offsq, mu0 = measures._jacobi_recurrence(n, alpha, beta)
    symmetric = alpha == beta
    half = n // 2 if symmetric else n
    with mp.workprec(mp.prec + 64):
        nodes = measures._newton_nodes(n, diag, offsq, half)
        if symmetric and n % 2:
            nodes.append(mpf(0))
        weights = measures._christoffel_weights(nodes, n, diag, offsq, mu0)
    nodes, weights = [mpf(x) for x in nodes], [mpf(w) for w in weights]
    if symmetric:
        nodes += [-x for x in nodes[:half][::-1]]
        weights += weights[:half][::-1]
    return nodes, weights


# the three (alpha, beta) whose nodes gauss_jacobi_rule takes in closed form
COSINE_FAMILIES = {
    "chebyshev": ("-0.5", "-0.5"),
    "chebyshev-second": ("0.5", "0.5"),
    "jacobi-+": ("-0.5", "0.5"),
}


class TestClosedFormRules:
    @pytest.mark.parametrize("bits", [64, 256, 1024])
    @pytest.mark.parametrize("family", sorted(COSINE_FAMILIES))
    def test_closed_form_has_the_newton_bits(self, family, bits):
        # nodes and weights, pi/n included, are those of the Newton and
        # Christoffel path; the sweep n = 1..80 at 64, 128, 256, 512 and
        # 1024 bits (1,200 rules) found no differing bit either
        alpha, beta = COSINE_FAMILIES[family]
        with mp.workprec(bits):
            for n in (1, 2, 3, 4, 7, 16, 33, 64, 80):
                xs, ws = gauss_jacobi_rule(n, alpha, beta)
                ref_xs, ref_ws = newton_rule(n, alpha, beta)
                assert mpf_bits(xs) == mpf_bits(ref_xs), n
                assert mpf_bits(ws) == mpf_bits(ref_ws), n

    @pytest.mark.parametrize("n", [1, 3, 7, 33])
    def test_odd_symmetric_rule_has_an_exact_zero(self, n):
        for half in ("-0.5", "0.5"):
            xs, ws = gauss_jacobi_rule(n, half, half)
            assert xs[n // 2]._mpf_ == mpf(0)._mpf_
            assert [-x for x in xs[::-1]] == xs and ws[::-1] == ws

    def test_only_the_cosine_families_skip_newton(self, monkeypatch):
        calls = []
        real = measures._newton_nodes

        def counting(n, diag, offsq, count):
            calls.append(n)
            return real(n, diag, offsq, count)

        monkeypatch.setattr(measures, "_newton_nodes", counting)
        for alpha, beta in COSINE_FAMILIES.values():
            gauss_jacobi_rule(6, alpha, beta)
        assert calls == []
        # Legendre, the reflection of a cosine family and a generic pair
        for alpha, beta in ((0, 0), ("0.5", "-0.5"), ("0.25", "0.75")):
            gauss_jacobi_rule(6, alpha, beta)
        assert calls == [6, 6, 6]


def jacobi_spec(a, b, n, alpha, beta):
    return MeasureSpec(
        kind="jacobi-density",
        interval=Interval(a, b),
        node_count=n,
        alpha=mpf(alpha),
        beta=mpf(beta),
    )


class TestRuleTable:
    def test_build_system_computes_each_rule_once_per_call(self, monkeypatch):
        # the identities-m4 generators: two equal Legendre rules, and
        # Jacobi(1/2, -1/2) and Jacobi(-1/2, 1/2), reflections of each other
        calls = []
        real = measures.gauss_jacobi_rule

        def counting(n, alpha, beta):
            calls.append((n, alpha, beta))
            return real(n, alpha, beta)

        monkeypatch.setattr(measures, "gauss_jacobi_rule", counting)
        spec = SystemSpec(
            [
                MeasureSpec(kind="legendre-density", interval=Interval(-1, 0), node_count=32),
                jacobi_spec(1, 3, 32, "0.5", "-0.5"),
                MeasureSpec(kind="legendre-density", interval=Interval(4, 6), node_count=32),
                jacobi_spec(7, 9, 32, "-0.5", "0.5"),
            ],
            256,
        )
        first = build_system(spec)
        assert calls == [(32, 0, 0), (32, mpf("-0.5"), mpf("0.5"))]
        # the table lives for one call: a second build computes both again
        second = build_system(spec)
        assert calls == 2 * [(32, 0, 0), (32, mpf("-0.5"), mpf("0.5"))]
        for g, h in zip(first.generators, second.generators):
            assert mpf_bits(g.nodes) == mpf_bits(h.nodes)
            assert mpf_bits(g.weights) == mpf_bits(h.weights)

    def test_table_is_keyed_by_precision(self):
        rules = {}
        spec = MeasureSpec(kind="legendre-density", interval=Interval(1, 3), node_count=5)
        at_256 = realize(spec, rules)
        with mp.workprec(320):
            at_320 = realize(spec, rules)
            fresh = realize(spec)
        assert sorted(rules) == [(5, 0, 0, 256), (5, 0, 0, 320)]
        assert mpf_bits(at_320.nodes) == mpf_bits(fresh.nodes)
        assert mpf_bits(at_256.nodes) != mpf_bits(at_320.nodes)

    @staticmethod
    def assert_reflection_is_direct(n, alpha, beta):
        # orient the pair so that realize reflects: beta < alpha takes the
        # (beta, alpha) rule; on [-1, 1] at unit scale the atoms are the
        # rule's own
        alpha, beta = max(mpf(alpha), mpf(beta)), min(mpf(alpha), mpf(beta))
        rules = {}
        mu = realize(jacobi_spec(-1, 1, n, alpha, beta), rules)
        assert list(rules) == [(n, beta, alpha, mp.prec)]
        xs, ws = gauss_jacobi_rule(n, alpha, beta)
        assert mpf_bits(mu.nodes) == mpf_bits(xs)
        assert mpf_bits(mu.weights) == mpf_bits(ws)

    @pytest.mark.parametrize("bits", [128, 256, 512])
    @pytest.mark.parametrize(
        "alpha, beta", [("0.5", "-0.5"), ("0.25", "0.75"), ("1.5", "0"), ("-0.5", "2")]
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 64])
    def test_reflected_rule_has_the_direct_bits(self, n, alpha, beta, bits):
        with mp.workprec(bits):
            self.assert_reflection_is_direct(n, alpha, beta)

    def test_reflection_is_exact_where_the_recurrence_rounds(self):
        # parameters that are not short dyadics round the recurrence's
        # products; only their fixed order, smaller parameter first, keeps
        # the reflection exact
        for alpha, beta in (("0.3", "-0.7"), ("0.1", "0.45")):
            for n in (7, 33):
                self.assert_reflection_is_direct(n, alpha, beta)

    def test_recurrence_is_symmetric_in_the_parameters(self):
        # swapping alpha and beta negates diag and keeps offsq and mu0, bit
        # for bit, also where the products round
        alpha, beta = mpf("0.3"), mpf("-0.7")
        diag, offsq, mu0 = measures._jacobi_recurrence(12, alpha, beta)
        swapped_diag, swapped_offsq, swapped_mu0 = measures._jacobi_recurrence(12, beta, alpha)
        assert mpf_bits(swapped_diag) == mpf_bits([-d for d in diag])
        assert mpf_bits(swapped_offsq) == mpf_bits(offsq)
        assert swapped_mu0._mpf_ == mu0._mpf_


class TestMoments:
    def test_symmetric_pair(self):
        assert list(moments(two_atom(), 4)) == [1, 0, 1, 0, 1]

    def test_unit_mass_at_zero(self):
        assert list(moments(unit_at(0, -1, 1), 3)) == [1, 0, 0, 0]

    def test_negative_sign_direct_summation(self):
        # oracle: c_k = -(1*1^k + 1*2^k)
        mu = AtomicMeasure([1, 2], [1, 1], -1, Interval("0.5", "2.5"))
        oracle = [-(1**k + 2**k) for k in range(3)]
        assert list(moments(mu, 2)) == oracle == [-2, -3, -5]

    def test_leading_moment_is_total_mass(self):
        mu = AtomicMeasure([0.25, 0.75], ["0.3", "0.7"], -1, Interval(0, 1))
        assert moments(mu, 0)[0] == mu.total_mass


class TestCauchy:
    def test_unit_mass(self):
        assert abs(cauchy_eval(unit_at(0, -1, 1), 2) - mpf("0.5")) < TIGHT

    def test_two_atoms_real(self):
        assert abs(cauchy_eval(two_atom(), 2) - mpf(2) / 3) < TIGHT

    def test_closed_form_at_i(self):
        # transform is z/(z^2-1); at z=i that is i/(-2) = -i/2
        got = cauchy_eval(two_atom(), mpc(0, 1))
        assert abs(got - mpc(0, "-0.5")) < TIGHT

    def test_on_support_rejected(self):
        with pytest.raises(ValueError):
            cauchy_eval(two_atom(), 1)

    def test_within_noise_floor_of_atom_rejected(self):
        tol = noise_floor(0.5)
        for z in (1 + tol / 2, -1 - tol / 2, mpc(1, tol / 2), mpc(-1 + tol / 4, -tol / 4)):
            with pytest.raises(ValueError):
                cauchy_eval(two_atom(), z)

    def test_support_guard_raises_as_the_distance_guard_did(self):
        # raised_before is the guard the box test replaced: the complex
        # distance to the interval gated the per-atom test.  Both must raise
        # on exactly the same points
        def raised_before(mu, z):
            tol = noise_floor(0.5)
            z = mpc(z) if isinstance(z, mpc) else mpf(z)
            near = mu.support.distance_to(z) <= 2 * tol
            return near and any(abs(z - x) <= tol for x in mu.nodes)

        tol = noise_floor(0.5)
        # atoms at both ends of the support, and atoms inside it
        inside = two_atom()
        ends = AtomicMeasure([-1, 1], ["0.5", "0.5"], 1, Interval(-1, 1))
        for mu in (inside, ends):
            atom, end = mu.nodes[-1], mu.support.b
            cases = []
            for d, raises in ((tol / 2, True), (3 * tol / 2, False)):
                cases += [(atom + d, raises), (mpc(atom, d), raises)]
            d = 3 * tol / 2
            cases += [(end + d, False), (mpc(end, d), False)]
            for z, raises in cases:
                assert raised_before(mu, z) == raises
                if raises:
                    with pytest.raises(ValueError, match="evaluation on support"):
                        cauchy_eval(mu, z)
                else:
                    cauchy_eval(mu, z)

    def test_off_support_value_is_the_bare_sum(self):
        # the guard only decides whether to raise; the value is the plain sum
        mu = AtomicMeasure(
            [mpf("-0.9"), mpf("-0.2"), mpf("0.4"), mpf("0.8")],
            [mpf("0.1"), mpf("0.4"), mpf("0.3"), mpf("0.2")],
            -1,
            Interval(-1, 1),
        )
        tol = noise_floor(0.5)
        # off the interval, between atoms, just beyond an atom's noise floor
        for z in (mpc(3, 1), mpf(2), mpf("0.1"), mpc("0.4", 4 * tol), mpf("0.8") + 4 * tol):
            zz = mpc(z) if isinstance(z, mpc) else mpf(z)
            bare = -mp.fsum(w / (zz - x) for x, w in zip(mu.nodes, mu.weights))
            assert cauchy_eval(mu, z) == bare

    def test_truncated_tail_bound(self):
        # |s-hat(z) - partial sum| <= (r/|z|)^(K+1) * |c_0| / (|z| - r)
        mu = AtomicMeasure(
            [mpf("-0.9"), mpf("-0.2"), mpf("0.4"), mpf("0.8")],
            [mpf("0.1"), mpf("0.4"), mpf("0.3"), mpf("0.2")],
            1,
            Interval(-1, 1),
        )
        K = 12
        tail = moments(mu, K)
        r = mu.outer_radius
        for z in (mpc(3, 1), mpc(-2, 2), mpc(0, 4)):
            partial_sum = sum(c * z ** -(k + 1) for k, c in enumerate(tail))
            err = abs(cauchy_eval(mu, z) - partial_sum)
            bound = (r / abs(z)) ** (K + 1) * abs(tail[0]) / (abs(z) - r)
            assert err <= bound


def raw(x):
    """The bits of an mpf or an mpc."""
    return x._mpc_ if isinstance(x, mpc) else x._mpf_


def fsum_transform(mu, z, power=1):
    """The mpmath expressions the Cauchy kernel replaces."""
    z = mpc(z) if isinstance(z, (complex, mpc)) else mpf(z)
    if power == 1:
        return mu.sign * mp.fsum(w / (z - x) for x, w in zip(mu.nodes, mu.weights))
    return -mu.sign * mp.fsum(w / (z - x) ** 2 for x, w in zip(mu.nodes, mu.weights))


def on_one_node_set(nodes, support, weight_rows, signs):
    return [AtomicMeasure(nodes, ws, sign, support) for ws, sign in zip(weight_rows, signs)]


def kernel_cases():
    """Groups of (measures on one node set, points), at the working precision P.

    The first group: both signs; real points on either side of the
    support and in a gap between atoms; complex points off the support,
    with tiny |Im z| above a gap and beside an atom, with Re z on an atom
    (a = 0) at a tiny Im z and at Im z = 1 (m = 1, a divisor of mantissa
    1), and on the real axis (Im z = 0).

    The second sits on the dyadic atoms -3, -1, 0, 1/2, 3/4, 7/8, whose
    distances to z = 1 are powers of two, with power-of-two weights as far
    as H = 2^(P+40) and L = 2^-(P+40): one-bit terms more than 2P bits
    apart, so that mpf_sum's rules replace the sum by a far larger term
    and drop a far smaller one.  The rules show in the sums: at z = 1 the
    second row's terms L/4, H/2, L, 2L, 4L, 2^39 add up to just above
    H/2 + 2^39, which is halfway between two P-bit numbers, and mpf_sum,
    having lost the L terms, rounds that tie to even.  At z = -1/2 the
    first row's terms at -1 and 0 cancel to exactly 0 before a far
    smaller term, after the term at -3 was replaced.  At z = 1 + i s,
    s = 2^-(P//2+3), the atom 0 has m = 1 + 2^-(P+6), so both parts of its
    term round up to a power of two.
    """
    rng = random.Random(20)
    nodes = sorted(mpf(rng.uniform(-1, 0)) for _ in range(11))
    support = Interval(-1, 0)
    rows = [[mpf(rng.uniform(0.1, 2)) * mpf(2) ** rng.randint(-30, 30) for _ in nodes] for _ in range(3)]
    mus = on_one_node_set(nodes, support, rows, (1, -1, 1))
    gap = (nodes[4] + nodes[5]) / 2
    tiny = mpf(2) ** -(mp.prec // 2)
    points = [
        mpf(-3), mpf("0.25"), mpf("1e-30"), mpf(-1) - mpf("1e-20"), gap,
        mpc(2, 3), mpc(-5, "-0.5"), mpc(gap, tiny), mpc(gap, -tiny), mpc(nodes[2], 4 * noise_floor(0.5)),
        mpc(nodes[2], 1), mpc(mpf("0.5"), tiny), mpc(100, 0), mpc(gap, 0),
    ]
    H, L = mpf(2) ** (mp.prec + 40), mpf(2) ** -(mp.prec + 40)
    dyadic = [-3, -1, 0, mpf("0.5"), mpf("0.75"), mpf("0.875")]
    far_apart = [[L, H, H, L, L, L], [L, H, L, L, L, 2**36], [H, L, 1, H, L, 1]]
    dyadic_points = [
        mpf(1), mpf("-0.5"), mpc(1, mpf(2) ** -(mp.prec // 2 + 3)), mpc("-0.5", 0), mpc(0, 1), mpc(3, -2),
    ]
    return [
        (mus, points),
        (on_one_node_set(dyadic, Interval(-3, 1), far_apart, (1, -1, 1)), dyadic_points),
    ]


def fsum_raw(nodes, row, z, e):
    """The bits of mp.fsum(w / (z - x)**e), the mpmath expression of one raw Cauchy sum."""
    if e == 1:
        return raw(mp.fsum(w / (z - x) for x, w in zip(nodes, row)))
    return raw(mp.fsum(w / (z - x) ** 2 for x, w in zip(nodes, row)))


class TestCauchyKernel:
    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_values_are_the_mpmath_expressions(self, bits):
        with mp.workprec(bits):
            for mus, points in kernel_cases():
                for z in points:
                    many = cauchy_evals(mus, z)
                    for mu, value in zip(mus, many):
                        expected = fsum_transform(mu, z)
                        assert type(value) is type(expected)
                        assert raw(value) == raw(expected) == raw(cauchy_eval(mu, z))
                        if not isinstance(z, mpc):
                            assert raw(measures.cauchy_derivative(mu, z)) == raw(fsum_transform(mu, z, 2))

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_one_pass_gives_value_and_slope_at_real_points(self, bits):
        with mp.workprec(bits):
            for mus, points in kernel_cases():
                for t in (z for z in points if not isinstance(z, mpc)):
                    (values, slopes) = measures._cauchy_pass(
                        mus[0].nodes, [mu.weights for mu in mus], t, (1, 2)
                    )
                    for mu, v, d in zip(mus, values, slopes):
                        assert v == fsum_raw(mu.nodes, mu.weights, t, 1)
                        assert d == fsum_raw(mu.nodes, mu.weights, t, 2)

    # no shrink phase: a failing example at 512 bits shrinks for minutes
    @settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=60,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(
        data=st.data(),
        count=st.integers(1, 16),
        bits=st.sampled_from([64, 256, 512]),
        rows=st.integers(1, 3),
    )
    def test_property_against_the_mpmath_expressions(self, data, count, bits, rows):
        # weights as far as 2^(P+40) apart, a zero weight in one more row,
        # which only the raw pass takes, and points on an atom's abscissa
        with mp.workprec(bits):
            numerators = data.draw(
                st.lists(st.integers(-2**20, 2**20), min_size=count, max_size=count, unique=True)
            )
            nodes = sorted(mpf(k) / 2**20 for k in numerators)
            weight = st.tuples(st.integers(1, 2**30), st.integers(-(bits + 40), bits + 40))
            weight_rows = [
                [mpf(man) * mpf(2) ** e for man, e in data.draw(st.lists(weight, min_size=count, max_size=count))]
                for _ in range(rows)
            ]
            zeroed = list(weight_rows[0])
            zeroed[data.draw(st.integers(0, count - 1))] = mpf(0)
            signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=rows, max_size=rows))
            mus = on_one_node_set(nodes, Interval(-1, 1), weight_rows, signs)
            re = data.draw(st.one_of(st.floats(-4, 4, allow_nan=False), st.sampled_from(nodes)))
            im = data.draw(st.sampled_from([0.0, 1e-12, -1e-30, 0.5, 1.0, 3.0]))
            z = mpc(re, im) if data.draw(st.booleans()) else mpf(re)
            exponents = (1,) if isinstance(z, mpc) else (1, 2)
            raw_rows = weight_rows + [zeroed]
            try:
                expected = [[fsum_raw(nodes, row, z, e) for row in raw_rows] for e in exponents]
            except ZeroDivisionError:  # z on an atom
                with pytest.raises(ZeroDivisionError):
                    measures._cauchy_pass(nodes, raw_rows, z, exponents)
                return
            assert measures._cauchy_pass(nodes, raw_rows, z, exponents) == expected
            if any(abs(z - x) <= noise_floor(0.5) for x in nodes):
                with pytest.raises(ValueError, match="evaluation on support"):
                    cauchy_evals(mus, z)
                return
            assert [raw(v) for v in cauchy_evals(mus, z)] == [raw(fsum_transform(mu, z)) for mu in mus]
            if not isinstance(z, mpc):
                for mu in mus:
                    assert raw(measures.cauchy_derivative(mu, z)) == raw(fsum_transform(mu, z, 2))

    def test_complex_points_take_exponent_one_only(self):
        # the derivative is taken at real gap roots only
        for mus, points in kernel_cases():
            for z in (p for p in points if isinstance(p, mpc)):
                for exponents in ((2,), (1, 2)):
                    with pytest.raises(ValueError, match="exponent 1 only"):
                        measures._cauchy_pass(mus[0].nodes, [mus[0].weights], z, exponents)
                with pytest.raises(ValueError, match="exponent 1 only"):
                    measures.cauchy_derivative(mus[0], z)

    def test_on_support_guard_still_raises(self):
        mus, _ = kernel_cases()[0]
        tol = noise_floor(0.5)
        atom = mus[0].nodes[3]
        for z in (atom, atom + tol / 2, mpc(atom, tol / 2), mpc(atom - tol / 4, -tol / 4)):
            with pytest.raises(ValueError, match="evaluation on support"):
                cauchy_eval(mus[1], z)
            with pytest.raises(ValueError, match="evaluation on support"):
                cauchy_evals(mus, z)

    def test_measures_on_other_nodes_rejected(self):
        mus, _ = kernel_cases()[0]
        other = AtomicMeasure([mpf("-0.5")], [1], 1, Interval(-1, 0))
        with pytest.raises(ValueError, match="one node set"):
            cauchy_evals([mus[0], other], mpc(2, 1))

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_moment_loop_continues_from_its_row(self, bits):
        with mp.workprec(bits):
            mus, _ = kernel_cases()[0]
            for mu in mus:
                first, row = measures._moment_rows(mu, [w._mpf_ for w in mu.weights], 7)
                more, _ = measures._moment_rows(mu, row, 13)
                assert [raw(c) for c in first + more] == [raw(c) for c in moments(mu, 19)]
                powers = list(mu.weights)
                old = []
                for _ in range(20):
                    old.append(mu.sign * mp.fsum(powers))
                    powers = [p * x for p, x in zip(powers, mu.nodes)]
                assert [raw(c) for c in moments(mu, 19)] == [raw(c) for c in old]


def workload_config(name, out):
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return dict(workloads.make_config(name, 0), output_dir=str(out))


class TestRawCauchyPass:
    """measures._cauchy_pass gives the bits of the pass it replaced.

    mpf_reference._cauchy_pass divides each term by libmp's mpf_div and
    sums each row by mpf_sum.  Both run on every pass a run of a
    benchmark config makes (the gap roots' value-and-slope passes at
    P + 64 bits and the ratio identity's brackets included), on every
    chain s_{a,b} at every grid point, one pass per a, and on every pass
    at the atoms of one generator over the chains of another, as the
    build forms the products, with both exponents.
    """

    @pytest.mark.parametrize("name", ["smoke", "identities-m4"])
    def test_every_pass_of_a_workload(self, name, tmp_path, monkeypatch):
        kernel, built, grids, mismatches = measures._cauchy_pass, [], [], []
        counts = {"run": 0}

        def compared(nodes, rows, z, exponents=(1,)):
            counts["run"] += 1
            out = kernel(nodes, rows, z, exponents)
            if out != mpf_reference._cauchy_pass(nodes, rows, z, exponents):
                mismatches.append((z, exponents))
            return out

        def recording(into, fn):
            def call(*args):
                into.append(fn(*args))
                return into[-1]

            return call

        monkeypatch.setattr(measures, "_cauchy_pass", compared)
        monkeypatch.setattr(cli, "build_system", recording(built, cli.build_system))
        monkeypatch.setattr(cli, "_build_grid", recording(grids, cli._build_grid))
        config = cli.parse_config(workload_config(name, tmp_path / "out"))
        assert cli.run_experiment(config).exit_code == 0
        assert counts["run"] > 0 and not mismatches

        (sys,), (grid,) = built, grids
        with mp.workprec(config.precision_bits):
            for a in range(1, sys.m + 1):
                nodes = sys.generators[a - 1].nodes
                rows = [sys.chain(a, b).weights for b in range(1, sys.m + 1)]
                for z in grid.points:
                    assert kernel(nodes, rows, z) == mpf_reference._cauchy_pass(nodes, rows, z)
                for c in range(1, sys.m + 1):
                    for x in sys.generators[c - 1].nodes if c != a else ():
                        assert kernel(nodes, rows, x, (1, 2)) == mpf_reference._cauchy_pass(
                            nodes, rows, x, (1, 2)
                        )


    def test_non_finite_inputs_give_the_reference_values(self):
        # an infinite point or weight, or a nan, reaches mpf_div's and
        # mpf_sum's special values, as in the pass it replaced
        nodes = [mpf(-1), mpf(0)]
        rows = [[mpf(1), mpf(2)], [mpf("inf"), mpf(1)], [mpf("nan"), mpf(1)]]
        for z in (mpf("inf"), mpf("-inf"), mpc("inf", 1), mpc(2, "inf"), mpf(2), mpc(2, 1)):
            exponents = (1,) if isinstance(z, mpc) else (1, 2)
            expected = mpf_reference._cauchy_pass(nodes, rows, z, exponents)
            assert measures._cauchy_pass(nodes, rows, z, exponents) == expected


class TestInverseMeasure:
    def test_single_atom(self):
        ell, tau = inverse_measure(unit_at(0, -1, 1))
        assert tau is None
        assert ell.coeffs == (mpf(0), mpf(1))  # ell = z

    def test_symmetric_pair_partial_fractions(self):
        # 1/s-hat = (z^2-1)/z = z - 1/z: ell = z, tau = unit negative mass at 0
        ell, tau = inverse_measure(two_atom())
        assert abs(ell[1] - 1) < TIGHT and abs(ell[0]) < TIGHT
        assert tau.sign == -1
        assert len(tau.nodes) == 1
        assert abs(tau.nodes[0]) < TIGHT
        assert abs(tau.weights[0] - 1) < TIGHT

    def test_doubled_weights_against_partial_fraction_oracle(self):
        # weights {1,1}: 1/(2 s-hat) = (z^2-1)/(2z) = z/2 - 1/(2z)
        # so ell = z/2 and tau is mass -1/2 at 0
        mu = AtomicMeasure([-1, 1], [1, 1], 1, Interval("-1.5", "1.5"))
        ell, tau = inverse_measure(mu)
        assert abs(ell[1] - mpf("0.5")) < TIGHT and abs(ell[0]) < TIGHT
        assert tau.sign == -1
        assert abs(tau.weights[0] - mpf("0.5")) < TIGHT

    def test_roundtrip_residual(self):
        rng = random.Random(23)
        nodes = sorted(rng.uniform(-1, 0) for _ in range(16))
        weights = [rng.uniform(0.1, 1) for _ in range(16)]
        mu = AtomicMeasure(nodes, weights, 1, Interval(-1, 0))
        ell, tau = inverse_measure(mu)
        tol = noise_floor(0.5)
        for k in range(32):
            z = mpc(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            resid = abs(1 / cauchy_eval(mu, z) - ell(z) - cauchy_eval(tau, z))
            assert resid <= tol * (1 + abs(z))

    def test_interlacing_and_common_sign(self):
        rng = random.Random(29)
        nodes = sorted(rng.uniform(1, 3) for _ in range(10))
        weights = [rng.uniform(0.1, 1) for _ in range(10)]
        mu = AtomicMeasure(nodes, weights, -1, Interval(1, 3))
        _, tau = inverse_measure(mu)
        assert len(tau.nodes) == len(mu.nodes) - 1
        for i, y in enumerate(tau.nodes):
            assert mu.nodes[i] < y < mu.nodes[i + 1]
        # negative measure: derivative of its transform is positive, residues positive
        assert tau.sign == 1


def gap_root_60(mu, i):
    """The gap root as computed before the early Newton start: 60 bisections."""
    lo, hi = mu.nodes[i], mu.nodes[i + 1]
    gap = hi - lo

    def f(t):
        return mp.fsum(w / (t - x) for x, w in zip(mu.nodes, mu.weights))

    a, b = lo + gap / 8, hi - gap / 8
    fa, fb = f(a), f(b)
    while not (fa > 0 > fb):
        if fa <= 0:
            a = lo + (a - lo) / 2
            fa = f(a)
        if fb >= 0:
            b = hi - (hi - b) / 2
            fb = f(b)
    for _ in range(60):
        mid = (a + b) / 2
        if f(mid) > 0:
            a = mid
        else:
            b = mid
    x = (a + b) / 2
    tol = mpf(2) ** (-mp.prec + 8)
    for _ in range(60):
        fx = f(x)
        dfx = -mp.fsum(w / (x - t) ** 2 for t, w in zip(mu.nodes, mu.weights))
        step = fx / dfx
        x = x - step
        if abs(step) <= tol * (1 + abs(x)):
            break
    return x


def lopsided_pair(ratio):
    return AtomicMeasure([0, 1], [ratio, 1], 1, Interval(0, 1))


class TestGapRoot:
    def gap_measures(self):
        rng = random.Random(41)
        nodes = sorted(rng.uniform(1, 3) for _ in range(12))
        weights = [rng.uniform(0.05, 2) for _ in range(12)]
        return [
            realize(MeasureSpec(kind="legendre-density", interval=Interval(-1, 0), node_count=16)),
            realize(MeasureSpec(kind="legendre-density", interval=Interval(-1, 0), node_count=32)),
            realize(
                MeasureSpec(
                    kind="jacobi-density",
                    interval=Interval(1, 3),
                    node_count=32,
                    alpha=mpf("0.5"),
                    beta=mpf("-0.5"),
                )
            ),
            AtomicMeasure(nodes, weights, -1, Interval(1, 3)),
            lopsided_pair(mpf(10) ** 15),
            AtomicMeasure([0, 1, 2], [1000, 1, 1], 1, Interval(0, 2)),
        ]

    def identities_m4_generators(self):
        """The four generators of the identities-m4 benchmark workload at seed 0."""

        def spec(lo, hi, alpha=None, beta=None):
            kind = "legendre-density" if alpha is None else "jacobi-density"
            return MeasureSpec(
                kind=kind, interval=Interval(lo, hi), node_count=32, alpha=alpha, beta=beta
            )

        half = mpf("0.5")
        return [
            realize(spec(-1, 0)),
            realize(spec(1, 3, half, -half)),
            realize(spec(4, 6)),
            realize(spec(7, 9, -half, half)),
        ]

    def test_inverse_measure_matches_sixty_bisections(self, monkeypatch):
        # compared after tau's nodes and weights are rounded to P bits: at the
        # P+64 bits the roots are found with, the Newton starts may end one
        # unit apart in the last place (the 16-node rule shows it).  The
        # float64 start serves every gap of the identities-m4 generators, and
        # must give the tau of the midpoint start too.  In lopsided_pair(10^40)
        # float64 cannot tell the root from its atom, so the midpoint start
        # runs; sixty unguarded bisection-then-Newton steps leave that gap
        generators = self.identities_m4_generators()
        for mu in generators:
            for i in range(mu.node_count - 1):
                assert measures._float_gap_root(mu, i) is not None
        extreme = lopsided_pair(mpf(10) ** 40)
        assert measures._float_gap_root(extreme, 0) is None

        def same_tau(mu, patch_name, replacement):
            _, tau = inverse_measure(mu)
            with monkeypatch.context() as patch:
                patch.setattr(measures, patch_name, replacement)
                _, ref = inverse_measure(mu)
            assert tau.nodes == ref.nodes
            assert tau.weights == ref.weights
            assert tau.sign == ref.sign

        for mu in self.gap_measures() + generators:
            same_tau(mu, "_gap_root", gap_root_60)
        for mu in self.gap_measures() + generators + [extreme]:
            same_tau(mu, "_float_gap_root", lambda mu, i: None)

    @pytest.mark.parametrize("e", [100, -100])
    def test_root_beyond_the_precision_raises(self, e):
        # at 256 bits the root sits 10^-100 from an atom, closer than the
        # P+64-bit Newton can separate from it: with the heavy atom at 0,
        # an iterate lands on the atom 1; with it at 1, the root is within
        # tol of the atom 0
        with pytest.raises(RuntimeError, match="raise precision"):
            inverse_measure(lopsided_pair(mpf(10) ** e))

    @pytest.mark.parametrize("order", ["heavy_left", "heavy_right"])
    @pytest.mark.parametrize("e", [15, 20, 25, 30, 40])
    def test_lopsided_weights_give_the_exact_root(self, e, order):
        # the root w0/(w0+w1) sits about 10^-e from one atom
        ratio = mpf(10) ** e if order == "heavy_left" else mpf(10) ** -e
        _, tau = inverse_measure(lopsided_pair(ratio))
        (node,) = tau.nodes
        assert abs(node - ratio / (ratio + 1)) <= noise_floor(0.5)
        # and its distance to the near atom is right to many digits
        near = min(ratio, 1) / (ratio + 1)
        assert abs(min(node, 1 - node) - near) <= noise_floor(0.25) * near
