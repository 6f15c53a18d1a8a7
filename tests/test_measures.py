"""Measure realization, moments, Cauchy transforms, inverse measures."""

import random

import pytest
from mpmath import mp, mpc, mpf

from nikishin_hp import measures
from nikishin_hp import (
    AtomicMeasure,
    Interval,
    MeasureSpec,
    cauchy_eval,
    gauss_jacobi_rule,
    inverse_measure,
    moments,
    noise_floor,
    realize,
)

TIGHT = mpf(10) ** -70


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

    def test_quadrature_exactness_against_integral_oracle(self):
        # n-point rule integrates x^k exactly through degree 2n-1
        for n in (3, 8):
            xs, ws = gauss_jacobi_rule(n, 0, 0)
            for k in range(2 * n):
                exact = mpf(2) / (k + 1) if k % 2 == 0 else mpf(0)
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
            err = abs(cauchy_eval(mu, z) - tail.partial_sum(z))
            bound = (r / abs(z)) ** (K + 1) * abs(tail[0]) / (abs(z) - r)
            assert err <= bound


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


@pytest.fixture
def bisect_steps(monkeypatch):
    """The step counts of every measures._bisect call, in order."""
    steps = []
    bisect = measures._bisect

    def counting(f, a, b, n):
        steps.append(n)
        return bisect(f, a, b, n)

    monkeypatch.setattr(measures, "_bisect", counting)
    return steps


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

    def test_inverse_measure_matches_sixty_bisections(self, monkeypatch):
        # compared after tau's nodes and weights are rounded to P bits: at the
        # P+64 bits the roots are found with, the two Newton starts may end
        # one unit apart in the last place (the 16-node rule shows it)
        for mu in self.gap_measures():
            _, tau = inverse_measure(mu)
            with monkeypatch.context() as patch:
                patch.setattr(measures, "_gap_root", gap_root_60)
                _, ref = inverse_measure(mu)
            assert tau.nodes == ref.nodes
            assert tau.weights == ref.weights
            assert tau.sign == ref.sign

    @pytest.mark.parametrize("ratio", [mpf(10) ** 15, mpf(10) ** -15])
    def test_unequal_weights_fall_back_to_sixty_bisections(self, bisect_steps, ratio):
        # the root sits about 1e-15 from one atom, far inside the 8-step
        # bracket's end: Newton's first step leaves the bracket, the
        # bisection runs on to 60 steps, and the root is the reference's
        mu = lopsided_pair(ratio)
        with mp.workprec(mp.prec + 64):
            root = measures._gap_root(mu, 0)
            assert bisect_steps == [8, 52]
            assert root == gap_root_60(mu, 0)
            assert abs(root - ratio / (ratio + 1)) <= noise_floor(0.5)

    def test_well_spread_atoms_skip_the_fallback(self, bisect_steps):
        mu = realize(MeasureSpec(kind="legendre-density", interval=Interval(-1, 0), node_count=16))
        inverse_measure(mu)
        assert bisect_steps == [8] * 15

