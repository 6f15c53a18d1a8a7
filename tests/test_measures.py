"""Measure realization, moments, Cauchy transforms, inverse measures."""

import importlib.util
import math
import random
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fzero,
    mpf_add,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_down,
    round_nearest,
)
from mpmath.matrices.eigen_symmetric import tridiag_eigen

import mpf_reference
from nikishin_hp import algebra, cli, measures
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


def error_sums(x, n, diag, offsq):
    """|u_{k,n}(x)| for k < n and A_k = sum_{j<k} |u_{j,k}(x)| for k <= n, in float64.

    u_{j,.} solves the scaled monic recurrence of measures._newton_nodes
    from u_{j,j} = 0, u_{j,j+1} = 1; A_k bounds the error of the kernels'
    q_k in units of 2^-(prec+32), as _newton_nodes derives.
    """
    x, c, d = float(x), [2 * float(a) for a in diag[:n]], [4 * float(b) for b in offsq[:n]]
    last, sums = [], [0.0] * (n + 1)
    for j in range(n):
        u_prev, u = 0.0, 1.0
        sums[j + 1] += 1.0
        for k in range(j + 1, n):
            u_prev, u = u, (2 * x - c[k]) * u - d[k] * u_prev
            sums[k + 1] += abs(u)
        last.append(abs(u))
    return last, sums


def scaled_monic(x, n, diag, offsq):
    """q_0..q_{n-1} = 2^k p_k(x) at the working precision."""
    q_prev, q, out = mpf(0), mpf(1), []
    for k in range(n):
        out.append(q)
        q_prev, q = q, (2 * x - 2 * diag[k]) * q - 4 * offsq[k] * q_prev
    return out


def norm_ratios(n, offsq, mu0):
    """R_k = 1 / (4^k mu0 b_1 ... b_k) for k < n, at the working precision."""
    out = [1 / mu0]
    for b in offsq[1:n]:
        out.append(out[-1] / (4 * b))
    return out


def node_terms(nodes, n, diag, offsq, mu0):
    """sum_k w_i |q_k(x_i)| R_k at each node x_i, w_i its weight, at 64 bits."""
    with mp.workprec(64):
        weights = mpf_reference._christoffel_weights(nodes, n, diag, offsq, mu0)
        ratios = norm_ratios(n, offsq, mu0)
        return [
            sum(w * abs(q) * R for q, R in zip(scaled_monic(x, n, diag, offsq), ratios))
            for x, w in zip(nodes, weights)
        ]


def assert_nodes_within_the_bound(nodes, ref, n, diag, offsq, mu0):
    """Nodes at W = mp.prec against the roots ref of a reference at 2W or more.

    Per node x_i the bound of measures._newton_nodes, 1/2 + 1/2 sum_k w_i
    |q_k(x_i)| R_k units of 2^-(W+32), taken twice for its first order,
    plus Newton's stop, 2^-(W+16), and the rounding to W, 2^-W |x_i|.
    """
    unit = mpf(2) ** -(mp.prec + 32)
    for x, r, terms in zip(nodes, ref, node_terms(ref, n, diag, offsq, mu0)):
        bound = unit * (1 + terms) + unit * 2**16 + unit * 2**32 * abs(r)
        assert abs(x - r) <= bound, (n, x)


def assert_weights_within_the_bound(weights, nodes, n, diag, offsq, mu0):
    """Weights at W = mp.prec against mpf_reference's sums at 2W, at the same nodes.

    Per node the relative bound of measures._christoffel_weights,
    2 sum_k w |q_k| R_k A_k + n + 1 units of 2^-(W+32), taken twice, plus
    the rounding to W.
    """
    unit = mpf(2) ** -(mp.prec + 32)
    with mp.workprec(2 * mp.prec):
        ref = mpf_reference._christoffel_weights(nodes, n, diag, offsq, mu0)
    with mp.workprec(64):
        ratios = norm_ratios(n, offsq, mu0)
        terms = []
        for x, r in zip(nodes, ref):
            _, sums = error_sums(x, n, diag, offsq)
            terms.append(sum(2 * r * abs(q) * R * a for q, R, a in zip(scaled_monic(x, n, diag, offsq), ratios, sums)))
    for w, r, t in zip(weights, ref, terms):
        assert abs(w - r) <= (unit * 2 * (t + n + 1) + unit * 2**32) * r, (n, w)


class TestBracketedNewtonNodes:
    @pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
    def test_nodes_are_within_the_bound_of_the_unbracketed_newton(self, bits):
        # each float64 seed, polished by the former loop at twice the
        # working precision, gives the root _newton_nodes' node is within
        # the bound of
        with mp.workprec(bits):
            for alpha, beta in ((0, 0), ("0.25", "-0.3"), ("1.5", "0.5"), ("-0.7", "-0.7"), (2, 3)):
                for n in (1, 2, 3, 4, 7, 12, 19, 26):
                    diag, offsq, mu0 = measures._jacobi_recurrence(n, mpf(alpha), mpf(beta))
                    seeds = [float(a) for a in diag]
                    tridiag_eigen(measures._FLOAT_QL, seeds, [math.sqrt(b) for b in offsq[1:n]] + [0.0])
                    with mp.workprec(mp.prec + 64):
                        nodes = measures._newton_nodes(n, diag, offsq, n)
                        with mp.workprec(2 * mp.prec):
                            ref = [newton_polish(x, n, diag, offsq) for x in seeds]
                        assert_nodes_within_the_bound(nodes, ref, n, diag, offsq, mu0)


# (alpha, beta) of the Gauss rules whose recurrences run on integers: a_k
# = 0 (Legendre, (1/2, 1/2)) and a_k != 0 (the generic and (-1/2, 1/2))
RAW_GAUSS_FAMILIES = {
    "legendre": (0, 0),
    "jacobi": ("0.3", "0.7"),
    "chebyshev-second": ("0.5", "0.5"),
    "jacobi-+": ("-0.5", "0.5"),
}


class TestRawGaussKernels:
    """_newton_nodes and _christoffel_weights are within their bounds of
    mpf_reference's loops run at twice the working precision P + 64, and
    gauss_jacobi_rule's P-bit rules have the bits of those with the
    reference loops swapped in."""

    @pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
    @pytest.mark.parametrize("family", sorted(RAW_GAUSS_FAMILIES))
    def test_nodes_and_weights_are_within_the_bound(self, family, bits, monkeypatch):
        alpha, beta = (mpf(p) for p in RAW_GAUSS_FAMILIES[family])
        sizes = (1, 2, 7, 16, 32, 33, 64)
        newton = measures._newton_in_bracket
        with mp.workprec(bits):
            rules = [gauss_jacobi_rule(n, alpha, beta) for n in sizes]
            for n in sizes:
                diag, offsq, mu0 = measures._jacobi_recurrence(n, alpha, beta)
                with mp.workprec(bits + 64):
                    nodes = measures._newton_nodes(n, diag, offsq, n)
                    # the reference's Newton, in the reference's bracket,
                    # from the node rather than the float64 seed: two steps
                    starts = iter(nodes)
                    with monkeypatch.context() as patch, mp.workprec(2 * mp.prec):
                        patch.setattr(
                            mpf_reference,
                            "_newton_in_bracket",
                            lambda f, a, b, x, tol, steps: newton(f, a, b, next(starts), tol, steps),
                        )
                        ref = mpf_reference._newton_nodes(n, diag, offsq, n)
                    assert_nodes_within_the_bound(nodes, ref, n, diag, offsq, mu0)
                    weights = measures._christoffel_weights(nodes, n, diag, offsq, mu0)
                    assert_weights_within_the_bound(weights, nodes, n, diag, offsq, mu0)
            monkeypatch.setattr(measures, "_newton_nodes", mpf_reference._newton_nodes)
            monkeypatch.setattr(measures, "_christoffel_weights", mpf_reference._christoffel_weights)
            for n, (xs, ws) in zip(sizes, rules):
                ref_xs, ref_ws = gauss_jacobi_rule(n, alpha, beta)
                assert (mpf_bits(xs), mpf_bits(ws)) == (mpf_bits(ref_xs), mpf_bits(ref_ws)), n

    @settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=100,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(
        n=st.integers(1, 40),
        alpha=st.floats(-1, 5, exclude_min=True),
        beta=st.floats(-1, 5, exclude_min=True),
        bits=st.sampled_from([64, 128, 256, 512]),
    )
    @example(n=32, alpha=40.0, beta=0.0, bits=128)
    @example(n=32, alpha=-0.99, beta=-0.99, bits=256)
    @example(n=32, alpha=10.0, beta=30.0, bits=128)
    def test_property_rules_have_the_reference_bits(self, n, alpha, beta, bits):
        # alpha and beta are exact as binary fractions, so each rule sees
        # the same parameters at every precision
        with mp.workprec(bits):
            rule = gauss_jacobi_rule(n, alpha, beta)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(measures, "_newton_nodes", mpf_reference._newton_nodes)
                patch.setattr(measures, "_christoffel_weights", mpf_reference._christoffel_weights)
                ref = gauss_jacobi_rule(n, alpha, beta)
        assert [mpf_bits(part) for part in rule] == [mpf_bits(part) for part in ref]

    @pytest.mark.parametrize("family, n", [("jacobi", 16), ("legendre", 33)])
    def test_every_newton_iterate_is_within_the_bound(self, family, n, monkeypatch):
        # each call of f_and_slope, in order: the iterate, q_n and q_n'
        # there, against the reference's 2^n p_n and 2^n p_n' at 2W, within
        # sum_k |u_{k,n}| and sum_k |u_{k,n}| (1 + 2 A_k) units of 2^-(W+32)
        # (measures._newton_nodes), each taken twice
        bracketed = measures._newton_in_bracket
        seen = []

        def recording(f_and_slope, a, b, x, tol, steps):
            def traced(x):
                fx, slope = f_and_slope(x)
                seen[-1].append((x, fx, slope))
                return fx, slope

            seen.append([])
            return bracketed(traced, a, b, x, tol, steps)

        checked = []

        def reference(f_and_slope, a, b, x, tol, steps):
            for x, fx, slope in seen.pop(0):
                ref_fx, ref_slope = f_and_slope(x)
                checked.append((x, fx, slope, ref_fx * 2**n, ref_slope * 2**n))
            return x

        monkeypatch.setattr(measures, "_newton_in_bracket", recording)
        monkeypatch.setattr(mpf_reference, "_newton_in_bracket", reference)
        alpha, beta = (mpf(p) for p in RAW_GAUSS_FAMILIES[family])
        with mp.workprec(256):
            diag, offsq, _ = measures._jacobi_recurrence(n, alpha, beta)
            with mp.workprec(256 + 64):
                measures._newton_nodes(n, diag, offsq, n)
                with mp.workprec(2 * mp.prec):
                    mpf_reference._newton_nodes(n, diag, offsq, n)
        unit = mpf(2) ** -(256 + 64 + 31)
        assert not seen and len(checked) >= 3 * n
        for x, fx, slope, ref_fx, ref_slope in checked:
            last, sums = error_sums(x, n, diag, offsq)
            assert abs(fx - ref_fx) <= unit * sum(last), x
            assert abs(slope - ref_slope) <= unit * sum(u * (1 + 2 * a) for u, a in zip(last, sums)), x


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
        # to within the pass's error bound
        mu = AtomicMeasure(
            [mpf("-0.9"), mpf("-0.2"), mpf("0.4"), mpf("0.8")],
            [mpf("0.1"), mpf("0.4"), mpf("0.3"), mpf("0.2")],
            -1,
            Interval(-1, 1),
        )
        tol = noise_floor(0.5)
        # off the interval, between atoms, just beyond an atom's noise floor
        for z in (mpc(3, 1), mpf(2), mpf("0.1"), mpc("0.4", 4 * tol), mpf("0.8") + 4 * tol):
            assert_transform_within_bound(cauchy_eval(mu, z), mu, z)

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


# the Cauchy pass's guard bits, fixed here so that a pass with fewer fails
GUARD = 32


def raw(x):
    """The bits of an mpf or an mpc."""
    return x._mpc_ if isinstance(x, mpc) else x._mpf_


def cauchy_pass(nodes, rows, z, exponents=(1,)):
    """measures._cauchy_pass over mpf weight rows, each converted as AtomicMeasure.weight_row converts its weights."""
    return measures._cauchy_pass(nodes, [measures._weight_row(row) for row in rows], z, exponents)


def on_one_node_set(nodes, support, weight_rows, signs):
    return [AtomicMeasure(nodes, ws, sign, support) for ws, sign in zip(weight_rows, signs)]


def wide_sums(nodes, rows, z, exponents=(1,)):
    """The reference sums of _cauchy_pass, from mpf operations at 2P + 64 bits.

    sums[e][r] is (sum_i w_i / (z - x_i)**e, sum_i |w_i / (z - x_i)**e|)
    by mp.fsum for a real z, and for a complex z one such pair per part,
    from a = Re z - x, 1 / m = 1 / (a^2 + (Im z)^2) and the terms
    w a / m and -Im z w / m.  Each term is within 2^-(2P+60) of its
    modulus, far below the pass's bound.
    """
    with mp.workprec(2 * mp.prec + 64):
        if isinstance(z, mpc):
            im = z.imag
            a = [z.real - x for x in nodes]
            inv = [1 / (d * d + im * im) for d in a]
            parts = []
            for row in rows:
                scaled = [w * q for w, q in zip(row, inv)]
                terms = ([t * d for t, d in zip(scaled, a)], [-im * t for t in scaled])
                parts.append(tuple((mp.fsum(t), mp.fsum(t, absolute=True)) for t in terms))
            return [parts]
        out = []
        for e in exponents:
            inv = [1 / (z - x) ** e for x in nodes]
            part = []
            for row in rows:
                terms = [w * q for w, q in zip(row, inv)]
                part.append((mp.fsum(terms), mp.fsum(terms, absolute=True)))
            out.append(part)
        return out


def assert_within_bound(got, reference, count, prec):
    """A raw sum at prec bits lies within (count + 1) 2^-(prec+GUARD) sum|terms| + ulp/2 of its reference.

    reference is one (value, sum|terms|) pair of wide_sums; count is the
    number of atoms.  This is the bound _cauchy_pass's docstring derives.
    """
    value, size = reference
    sign, man, exp, bc = got
    with mp.workprec(2 * prec + 64):
        half_ulp = mp.ldexp(1, exp + bc - prec - 1) if man else 0
        bound = (count + 1) * mp.ldexp(size, -(prec + GUARD)) + half_ulp
        error = abs(mp.make_mpf(got) - value)
    assert error <= bound, (mp.make_mpf(got), value, error / size if size else error)


def assert_pass_within_bound(nodes, rows, z, exponents):
    """_cauchy_pass over the mpf rows, part by part within the bound of its wide_sums."""
    got = cauchy_pass(nodes, rows, z, exponents)
    want = wide_sums(nodes, rows, z, exponents)
    assert len(got) == len(want) == len(exponents)
    for sums, refs in zip(got, want):
        assert len(sums) == len(refs) == len(rows)
        for value, ref in zip(sums, refs):
            if isinstance(z, mpc):
                for part, part_ref in zip(value, ref):
                    assert_within_bound(part, part_ref, len(nodes), mp.prec)
            else:
                assert_within_bound(value, ref, len(nodes), mp.prec)
    return got


def assert_transform_within_bound(value, mu, z, power=1):
    """A transform value of mu at z (power 2: its derivative) within the pass's bound.

    The transforms take z rounded to P, as algebra.to_scalar rounds it.
    """
    z = algebra.to_scalar(z)
    ((ref,),) = wide_sums(mu.nodes, [mu.weights], z, (power,))
    sign = mu.sign if power == 1 else -mu.sign
    prec = mp.prec
    parts = value._mpc_ if isinstance(z, mpc) else (value._mpf_,)
    refs = ref if isinstance(z, mpc) else (ref,)
    assert isinstance(value, mpc if isinstance(z, mpc) else mpf)
    for part, (v, size) in zip(parts, refs):
        with mp.workprec(2 * prec + 64):
            signed = sign * v  # exact
        assert_within_bound(part, (signed, size), mu.node_count, prec)


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

    The third sits on atoms whose differences to the points need far
    more than P bits, which the pass forms exactly.  At z = 1: the atom
    -2^-P gives 1 + 2^-P, P + 1 bits ending in a tie, and the atom
    -(1 - 2^-P) gives 2 - 2^-P; the atom 0 and the atom 2^-(2P+8) lie more
    than 2P bits below |z|.  At mpc(1/3, s), Re z on an atom and s of P
    bits, that atom's m is s^2 alone, and at mpc(1, 0) every m is a^2
    alone.  The last three real points have P + 64 bits, as the gap
    roots' Newton iterates have; TestCauchyPass also takes them at P + 64
    bits over these P-bit atoms.  The last, 1 + 2^-P - 2^-(P+63), lies just
    below a tie at P, and the atom -2^-(P+50) (1 + 2^-119), 120 bits long
    (from 128 bits up), lifts the exact difference above it.
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
    ulp = mpf(2) ** -mp.prec
    third = mpf(1) / 3
    far = -(mpf(2) ** -(mp.prec + 50)) * (1 + mpf(2) ** -119)
    edges = [-(1 - ulp), -ulp, far, 0, mpf(2) ** -(2 * mp.prec + 8), third]
    edge_rows = [[1, 3, 9, mpf(1) / 7, 2, 5], [third, 1, 1, 1, mpf(2) ** 20, 1]]
    with mp.workprec(mp.prec + 64):
        wide_points = [mpf(1) / 7, -mpf(2) / 3, 1 + ulp - ulp * mpf(2) ** -63]
    edge_points = [mpf(1), mpf(-2), mpc(third, mpf(2) / 3), mpc(1, 0), mpc(third, -1), *wide_points]
    return [
        (mus, points),
        (on_one_node_set(dyadic, Interval(-3, 1), far_apart, (1, -1, 1)), dyadic_points),
        (on_one_node_set(edges, Interval(-1, "0.5"), edge_rows, (1, -1)), edge_points),
    ]


class TestCauchyKernel:
    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_values_are_within_the_bound(self, bits):
        with mp.workprec(bits):
            for mus, points in kernel_cases():
                for z in points:
                    many = cauchy_evals(mus, z)
                    for mu, value in zip(mus, many):
                        assert raw(value) == raw(cauchy_eval(mu, z))
                        assert_transform_within_bound(value, mu, z)
                        if not isinstance(z, mpc):
                            assert_transform_within_bound(measures.cauchy_derivative(mu, z), mu, z, 2)

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_one_pass_gives_value_and_slope_at_real_points(self, bits):
        # the pass with both exponents gives each one's sums bit for bit
        with mp.workprec(bits):
            for mus, points in kernel_cases():
                nodes, rows = mus[0].nodes, [mu.weights for mu in mus]
                for t in (z for z in points if not isinstance(z, mpc)):
                    values, slopes = assert_pass_within_bound(nodes, rows, t, (1, 2))
                    assert [values] == cauchy_pass(nodes, rows, t, (1,))
                    assert [slopes] == cauchy_pass(nodes, rows, t, (2,))

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
    def test_property_within_the_bound(self, data, count, bits, rows):
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
            if mpc(z).imag == 0 and any(mpc(z).real == x for x in nodes):  # z on an atom
                with pytest.raises(ZeroDivisionError):
                    cauchy_pass(nodes, raw_rows, z, exponents)
                return
            assert_pass_within_bound(nodes, raw_rows, z, exponents)
            if any(abs(z - x) <= noise_floor(0.5) for x in nodes):
                with pytest.raises(ValueError, match="evaluation on support"):
                    cauchy_evals(mus, z)
                return
            for mu, value in zip(mus, cauchy_evals(mus, z)):
                assert_transform_within_bound(value, mu, z)
                if not isinstance(z, mpc):
                    assert_transform_within_bound(measures.cauchy_derivative(mu, z), mu, z, 2)

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_weights_over_two_hundred_binades(self, bits):
        # Gauss weights times 2^k for k over 240 binades, at real points
        # between the atoms and beside one, and at complex points: the exact
        # row sum keeps every term
        with mp.workprec(bits):
            nodes, weights = gauss_jacobi_rule(24, 0, 0)
            rng = random.Random(bits)
            spread = [w * mpf(2) ** rng.randint(-120, 120) for w in weights]
            rows = [spread, spread[::-1]]
            assert max(spread) / min(spread) > mpf(2) ** 200
            beside = nodes[7] + mpf(2) ** -40
            for z in ((nodes[3] + nodes[4]) / 2, beside, mpf(3), mpc("0.25", "0.5"), mpc(beside, mpf(2) ** -40)):
                assert_pass_within_bound(nodes, rows, z, (1,) if isinstance(z, mpc) else (1, 2))

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_conjugate_and_mirrored_points_give_exact_values(self, bits):
        # z-bar gives the exact conjugates, which analysis.convergence_row's
        # one point per conjugate pair relies on; -z over the mirrored atoms
        # (x -> -x, weights in reverse order) gives the exact negatives
        with mp.workprec(bits):
            for mus, points in kernel_cases():
                nodes, rows = mus[0].nodes, [mu.weights for mu in mus]
                mirrored = [-x for x in reversed(nodes)]
                flipped = [row[::-1] for row in rows]
                for z in points:
                    # negated without rounding: the last points have P + 64 bits
                    if not isinstance(z, mpc):
                        values = cauchy_pass(nodes, rows, z, (1, 2))
                        back = cauchy_pass(mirrored, flipped, mp.make_mpf(mpf_neg(z._mpf_)), (1, 2))
                        assert back[0] == [mpf_neg(v) for v in values[0]]
                        assert back[1] == values[1]
                        continue
                    (values,) = cauchy_pass(nodes, rows, z, (1,))
                    (conj,) = cauchy_pass(nodes, rows, mp.conj(z), (1,))
                    assert conj == [(re, mpf_neg(im)) for re, im in values]
                    minus_z = mp.make_mpc(tuple(map(mpf_neg, z._mpc_)))
                    (back,) = cauchy_pass(mirrored, flipped, minus_z, (1,))
                    assert back == [(mpf_neg(re), mpf_neg(im)) for re, im in values]
            for mus, points in kernel_cases():
                for z in (p for p in points if isinstance(p, mpc)):
                    for mu in mus:
                        assert raw(cauchy_eval(mu, mp.conj(z))) == raw(mp.conj(cauchy_eval(mu, z)))
            # w / 3 lies 2^-(P+40) / 3 above a tie at P bits, nearer than the
            # reciprocal's truncation: truncated toward zero, 1/3 and -1/3
            # both fall below the tie; a reciprocal floored toward -inf
            # would round -w/3 away from zero and w/3 toward it
            with mp.workprec(bits + 64):
                w = 3 + 3 * mpf(2) ** -bits + mpf(2) ** -(bits + 40)
            for z in (mpf(3), mpf(-3)):
                ((value,),) = cauchy_pass([mpf(0)], [[w]], z)
                assert abs(mp.make_mpf(value)) == 1

    def test_an_exact_atom_raises_and_non_finite_operands_take_the_mpf_route(self):
        # z on an atom divides by zero, for a real point and for a complex
        # one on the real axis; an infinite or nan point, atom or weight
        # gives what mpmath's own expression gives, bit for bit
        nodes = [mpf(-1), mpf(0)]
        rows = [[mpf(1), mpf(2)]]
        for z, exponents in ((mpf(0), (1,)), (mpf(-1), (2,)), (mpc(0, 0), (1,))):
            with pytest.raises(ZeroDivisionError):
                cauchy_pass(nodes, rows, z, exponents)
        rows += [[mpf("inf"), mpf(1)], [mpf("nan"), mpf(1)]]
        for z in (mpf("inf"), mpf("-inf"), mpc("inf", 1), mpc(2, "inf"), mpf(2), mpc(2, 1)):
            exponents = (1,) if isinstance(z, mpc) else (1, 2)
            expected = [[fsum_raw(nodes, row, z, e) for row in rows] for e in exponents]
            assert cauchy_pass(nodes, rows, z, exponents) == expected
        node_rows = [[mpf(1), mpf(1)]]
        for bad in (mpf("inf"), mpf("nan")):
            for z in (mpf(2), mpc(2, 1)):
                got = cauchy_pass([mpf(-1), bad], node_rows, z)
                assert got == [[fsum_raw([mpf(-1), bad], node_rows[0], z, 1)]]

    def test_each_measure_converts_its_weights_once(self, monkeypatch):
        # the pass reads AtomicMeasure.weight_row, formed at the first
        # evaluation and kept, so later points convert no weight
        mus, points = kernel_cases()[0]
        real, converted = measures._integer_row, []

        def counting(values):
            converted.append(values)
            return real(values)

        monkeypatch.setattr(measures, "_integer_row", counting)
        for z in points:
            cauchy_evals(mus, z)
            if not isinstance(z, mpc):
                for mu in mus:
                    measures.cauchy_derivative(mu, z)
        assert converted == [mu.weights for mu in mus]
        for mu in mus:
            ints, low, weights = mu.weight_row
            assert (ints, low) == real(mu.weights) and weights is mu.weights

    def test_complex_points_take_exponent_one_only(self):
        # the derivative is taken at real gap roots only
        for mus, points in kernel_cases():
            for z in (p for p in points if isinstance(p, mpc)):
                for exponents in ((2,), (1, 2)):
                    with pytest.raises(ValueError, match="exponent 1 only"):
                        measures._cauchy_pass(mus[0].nodes, [mus[0].weight_row], z, exponents)
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


def fsum_raw(nodes, row, z, e):
    """The bits of mp.fsum(w / (z - x)**e), the mpmath expression of one Cauchy sum."""
    return raw(mp.fsum(w / (z - x) ** e for x, w in zip(nodes, row)))


def workload_config(name, out):
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return dict(workloads.make_config(name, 0), output_dir=str(out))


class TestCauchyPass:
    """measures._cauchy_pass stays within its error bound on every pass a run makes.

    Every pass of a run of two benchmark configs (the gap roots'
    value-and-slope passes at P + 64 bits and the ratio identity's brackets
    included), every chain s_{a,b} at every grid point, one pass per a,
    every pass at the atoms of one generator over the chains of another,
    as the build forms the products, with both exponents, and every case
    of kernel_cases, against wide_sums.
    """

    @pytest.mark.parametrize("name", ["smoke", "identities-m4"])
    def test_every_pass_of_a_workload(self, name, tmp_path, monkeypatch):
        kernel, built, grids, calls = measures._cauchy_pass, [], [], []

        def recorded(nodes, rows, z, exponents=(1,)):
            calls.append((nodes, rows, z, exponents, mp.prec))
            return kernel(nodes, rows, z, exponents)

        def recording(into, fn):
            def call(*args):
                into.append(fn(*args))
                return into[-1]

            return call

        monkeypatch.setattr(measures, "_cauchy_pass", recorded)
        monkeypatch.setattr(cli, "build_system", recording(built, cli.build_system))
        monkeypatch.setattr(cli, "_build_grid", recording(grids, cli._build_grid))
        config = cli.parse_config(workload_config(name, tmp_path / "out"))
        assert cli.run_experiment(config).exit_code == 0
        monkeypatch.undo()
        assert calls
        for nodes, rows, z, exponents, prec in calls:
            with mp.workprec(prec):
                assert_pass_within_bound(nodes, [weights for _, _, weights in rows], z, exponents)

        (sys,), (grid,) = built, grids
        with mp.workprec(config.precision_bits):
            for a in range(1, sys.m + 1):
                nodes = sys.generators[a - 1].nodes
                rows = [sys.chain(a, b).weights for b in range(1, sys.m + 1)]
                for z in grid.points:
                    assert_pass_within_bound(nodes, rows, z, (1,))
                for c in range(1, sys.m + 1):
                    for x in sys.generators[c - 1].nodes if c != a else ():
                        assert_pass_within_bound(nodes, rows, x, (1, 2))

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_every_kernel_case(self, bits):
        # each point at P, and each real point also at P + 64 bits over the
        # same P-bit atoms, as _gap_root evaluates them
        with mp.workprec(bits):
            groups = kernel_cases()
        for mus, points in groups:
            nodes, rows = mus[0].nodes, [mu.weights for mu in mus]
            for z in points:
                for prec in (bits,) if isinstance(z, mpc) else (bits, bits + 64):
                    exponents = (1,) if isinstance(z, mpc) else (1, 2)
                    with mp.workprec(prec):
                        assert_pass_within_bound(nodes, rows, z, exponents)


class TestNormRule:
    """algebra._norm, the Aberth steps' |z_i - z_j|^2, is mpc_mpf_div's a^2 + b^2 at P + 10 bits."""

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_norm_is_the_libmp_value(self, bits):
        # a from every difference of a kernel case's point and atom; b = 0,
        # b next to a, and b so far below or above a that mpf_add itself
        # runs, and a = 0 too
        with mp.workprec(bits):
            groups = kernel_cases()
        differences = []
        for mus, points in groups:
            xs = [x._mpf_ for x in mus[0].nodes]
            for z in points:
                for prec in (bits,) if isinstance(z, mpc) else (bits, bits + 64):
                    re, im = z._mpc_ if isinstance(z, mpc) else (z._mpf_, None)
                    for x in xs:
                        a = mpf_sub(re, x, prec, round_nearest)
                        if im is not None:
                            im2, wide = mpf_mul(im, im), prec + 10
                            assert algebra._norm(a, im2, wide) == mpf_add(mpf_mul(a, a), im2, wide)
                        differences.append(a)
        wide = bits + 10
        for a in differences:
            near = mpf_sub(a, mpf_shift(a, -3), bits)
            for b in (fzero, a, near, mpf_shift(a, -bits - 20), mpf_shift(a, bits + 20)):
                for x, y in ((a, b), (b, a)):
                    sq = mpf_mul(y, y)
                    assert algebra._norm(x, sq, wide) == mpf_add(mpf_mul(x, x), sq, wide), (x, y)
        # mpf_add perturbs a^2, of 2P bits, instead of adding a far smaller
        # b^2, and truncates one unit below the exact sum where a^2's bits
        # below the (P + 10)-th lie close enough under the next unit
        with mp.workprec(bits):
            im = (1 + mpf(1) / 3) * mpf(2) ** -((bits + 16) // 2)
            im2, wide = mpf_mul(im._mpf_, im._mpf_), bits + 10
            perturbed = []
            for k in range(1, 4096):
                a = (mpf(7) / 4 + mp.sqrt(k) * mpf(2) ** -20)._mpf_
                sq = mpf_mul(a, a)
                if mpf_add(sq, im2, wide) != mpf_pos(mpf_add(sq, im2), wide, round_down):
                    perturbed.append(a)
                    assert algebra._norm(a, im2, wide) == mpf_add(sq, im2, wide)
        # the exponents of a^2 and b^2 lie 100 or fewer bits apart at 64
        assert bool(perturbed) == (bits > 64)


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
