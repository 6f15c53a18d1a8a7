"""Product measures, chain tables, and the two identity oracles."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from nikishin_hp import nikishin
from nikishin_hp.nikishin import s_hat_evals
from nikishin_hp import (
    AtomicMeasure,
    Interval,
    NikishinSystem,
    cauchy_eval,
    check_chain_identity,
    check_ratio_identity,
    inverse_measure,
    noise_floor,
    product_measure,
    s_hat_eval,
    system_from_generators,
)


def unit_at(x, lo, hi):
    return AtomicMeasure([x], [1], 1, Interval(lo, hi))


TIGHT = mpf(10) ** -70


class TestProductMeasure:
    def test_negative_transform_side(self):
        # beta-hat(0) = 1/(0-2) = -1/2: magnitude 1/2, sign flips
        alpha = unit_at(0, -1, "0.5")
        beta = unit_at(2, 1, 3)
        prod = product_measure(alpha, beta)
        assert prod.nodes == alpha.nodes
        assert abs(prod.weights[0] - mpf("0.5")) < TIGHT
        assert prod.sign == -1

    def test_positive_transform_side(self):
        # beta = mass 2 at -3: beta-hat(0) = 2/3
        alpha = unit_at(0, -1, 1)
        beta = AtomicMeasure([-3], [2], 1, Interval(-4, -2))
        prod = product_measure(alpha, beta)
        assert abs(prod.weights[0] - mpf(2) / 3) < TIGHT
        assert prod.sign == 1

    def test_total_mass_is_integral_of_transform(self):
        rng = random.Random(31)
        alpha = AtomicMeasure(
            sorted(rng.uniform(-1, 0) for _ in range(5)),
            [rng.uniform(0.2, 1) for _ in range(5)],
            1,
            Interval(-1, 0),
        )
        beta = AtomicMeasure(
            sorted(rng.uniform(1, 3) for _ in range(4)),
            [rng.uniform(0.2, 1) for _ in range(4)],
            1,
            Interval(1, 3),
        )
        prod = product_measure(alpha, beta)
        integral = mp.fsum(
            w * cauchy_eval(beta, x) for x, w in zip(alpha.nodes, alpha.weights)
        )
        assert abs(prod.total_variation - abs(integral)) < TIGHT

    def test_overlapping_supports_rejected(self):
        a = AtomicMeasure([0, 1], [1, 1], 1, Interval(-1, 2))
        b = AtomicMeasure([1, 2], [1, 1], 1, Interval("0.5", 3))
        with pytest.raises(ValueError):
            product_measure(a, b)


    def test_overlap_message_kept(self):
        # the merged gap is 0 where both measures share a node
        a = AtomicMeasure([0, 1], [1, 1], 1, Interval(-1, 1))
        b = AtomicMeasure([1, 2], [1, 1], 1, Interval(1, 3))
        with pytest.raises(ValueError, match="supports overlap"):
            product_measure(a, b)

    def test_junction_gap_message_kept(self):
        # touching supports, nodes 1e-30 apart: above 2^-P/2, below 2^-P/4
        a = AtomicMeasure([-1, -(mpf(10) ** -30)], [1, 1], 1, Interval(-1, 0))
        b = AtomicMeasure([0, 1], [1, 1], 1, Interval(0, 1))
        with pytest.raises(ValueError, match="junction"):
            product_measure(a, b)

    def test_merged_gap_equals_all_pairs_minimum(self):
        # interleaved node lists: the merge must find the all-pairs minimum
        # of |x - y| bit for bit, in either argument order
        rng = random.Random(37)
        for n, k in ((1, 1), (1, 6), (5, 3), (16, 16), (7, 20)):
            xs = sorted({mpf(rng.uniform(-1, 1)) for _ in range(n)})
            ys = sorted({mpf(rng.uniform(-1, 1)) for _ in range(k)})
            expected = min(abs(x - y) for x in xs for y in ys)
            assert min(nikishin._cross_gaps(xs, ys)) == expected
            assert min(nikishin._cross_gaps(ys, xs)) == expected


class TestBuildSystem:
    def test_single_generator(self, f1_system):
        assert f1_system.m == 1
        assert f1_system.chain(1, 1) is f1_system.generators[0]

    def test_support_preservation(self, m2_16_system):
        sys = m2_16_system
        assert sys.chain(1, 2).nodes == sys.generators[0].nodes
        assert sys.chain(2, 1).nodes == sys.generators[1].nodes

    def test_all_entries_keep_constant_sign(self, m3_16_system):
        for mu in m3_16_system.chains.values():
            assert all(w > 0 for w in mu.weights)
            assert mu.sign in (1, -1)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_table_holds_every_nested_product(self, data):
        # 1-4 dyadic atoms of dyadic weight and random sign per generator on
        # [3j, 3j + 1]: every s_{a,b} is <sigma_a, <sigma_{a+-1}, ..., sigma_b>>
        # folded from sigma_b outward, bit for bit
        m = data.draw(st.integers(1, 4))
        generators = []
        for j in range(m):
            count = data.draw(st.integers(1, 4))
            offsets = data.draw(
                st.lists(st.integers(1, 15), min_size=count, max_size=count, unique=True)
            )
            weights = data.draw(st.lists(st.integers(1, 64), min_size=count, max_size=count))
            sign = data.draw(st.sampled_from((1, -1)))
            generators.append(
                AtomicMeasure(
                    [3 * j + mpf(o) / 16 for o in sorted(offsets)],
                    [mpf(w) / 8 for w in weights],
                    sign,
                    Interval(3 * j, 3 * j + 1),
                )
            )
        sys = system_from_generators(generators)
        pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1)]
        assert sorted(sys.chains) == pairs
        for a, b in pairs:
            step = 1 if b >= a else -1
            want = generators[b - 1]
            for c in range(b - step, a - step, -step):
                want = product_measure(generators[c - 1], want)
            got = sys.chain(a, b)
            assert [x._mpf_ for x in got.nodes] == [x._mpf_ for x in want.nodes]
            assert [w._mpf_ for w in got.weights] == [w._mpf_ for w in want.weights]
            assert got.sign == want.sign

    def test_nested_product_against_double_sum(self, m3_16_system):
        # s_{1,3} weights w_i * |sum_j w2_j sigma3-hat(y_j) / (x_i - y_j)|
        sys = m3_16_system
        s13 = sys.chain(1, 3)
        sigma1, sigma2, sigma3 = sys.generators
        for i in (0, 7, 15):
            x = sigma1.nodes[i]
            double_sum = mp.fsum(
                w2 * cauchy_eval(sigma3, y) / (x - y)
                for y, w2 in zip(sigma2.nodes, sigma2.weights)
            )
            oracle = sigma1.weights[i] * abs(double_sum)
            assert abs(s13.weights[i] - oracle) <= noise_floor(0.5) * oracle

    def test_adjacency_violation_rejected(self):
        a = AtomicMeasure([0], [1], 1, Interval(-1, 1))
        b = AtomicMeasure([0.5], [1], 1, Interval(0, 2))
        with pytest.raises(ValueError):
            system_from_generators([a, b])

    def test_touching_junction_must_be_node_free(self):
        a = AtomicMeasure([-0.5, 0], [1, 1], 1, Interval(-1, 0))
        b = AtomicMeasure([1], [1], 1, Interval(0, 2))
        with pytest.raises(ValueError):
            system_from_generators([a, b])

    def test_touching_intervals_with_clear_junction_build(self):
        a = AtomicMeasure(["-0.5", "-0.25"], [1, 1], 1, Interval(-1, 0))
        b = AtomicMeasure(["0.25", "0.5"], [1, 1], 1, Interval(0, 1))
        sys = system_from_generators([a, b])
        assert sys.m == 2


class TestTransformEval:
    def test_diagonal_matches_generator(self, m2_16_system):
        z = mpc(2, 3)
        got = s_hat_eval(m2_16_system, 1, 1, z)
        assert got == cauchy_eval(m2_16_system.generators[0], z)

    def test_leading_asymptotics(self, m2_16_system):
        z = mpf(10) ** 8
        s12 = m2_16_system.chain(1, 2)
        got = s_hat_eval(m2_16_system, 1, 2, z)
        assert abs(got - s12.total_mass / z) < abs(s12.total_mass) / z**2 * 10

    def test_forward_and_reversed_differ(self, m2_16_system):
        z = mpc(1, 2)
        assert s_hat_eval(m2_16_system, 1, 2, z) != s_hat_eval(m2_16_system, 2, 1, z)


def cold(sys):
    """The same system with an empty transform table."""
    return NikishinSystem(sys.generators, sys.chains)


class TestTransformTable:
    def test_stored_value_is_the_fresh_transform(self, m2_16_system):
        sys = cold(m2_16_system)
        z, x = mpc(2, 3), mpf("-7.25")
        assert s_hat_eval(sys, 1, 2, z)._mpc_ == cauchy_eval(sys.chain(1, 2), z)._mpc_
        assert s_hat_eval(sys, 2, 1, x)._mpf_ == cauchy_eval(sys.chain(2, 1), x)._mpf_
        assert sys.s_hat == {
            (1, 2, z._mpc_, mp.prec): cauchy_eval(sys.chain(1, 2), z),
            (2, 1, x._mpf_, mp.prec): cauchy_eval(sys.chain(2, 1), x),
        }
        # a lookup returns the stored object itself
        assert s_hat_eval(sys, 1, 2, z) is sys.s_hat[(1, 2, z._mpc_, mp.prec)]

    def test_table_is_left_out_of_init_equality_and_repr(self, m2_16_system):
        sys = cold(m2_16_system)
        s_hat_eval(sys, 1, 1, mpc(0, 1))
        assert sys == cold(m2_16_system)
        assert "s_hat" not in repr(sys)
        with pytest.raises(TypeError):
            NikishinSystem(sys.generators, sys.chains, {})

    def test_each_precision_gets_its_own_entry(self, m2_16_system):
        sys = cold(m2_16_system)
        z = mpc(1, 2)
        at_256 = s_hat_eval(sys, 1, 2, z)
        with mp.workprec(320):
            at_320 = s_hat_eval(sys, 1, 2, z)
            assert at_320._mpc_ == cauchy_eval(sys.chain(1, 2), z)._mpc_
        assert at_256._mpc_ != at_320._mpc_
        assert sorted(key[3] for key in sys.s_hat) == [256, 320]

    def test_real_and_complex_points_are_separate_entries(self, m2_16_system):
        sys = cold(m2_16_system)
        x = mpf(5)
        real, cplx = s_hat_eval(sys, 2, 2, x), s_hat_eval(sys, 2, 2, mpc(x, 0))
        assert isinstance(real, mpf) and isinstance(cplx, mpc)
        assert len(sys.s_hat) == 2

    def test_point_on_an_atom_raises_and_stores_nothing(self, m2_16_system):
        sys = cold(m2_16_system)
        atom = sys.generators[0].nodes[3]
        for z in (atom, mpc(atom, 0)):
            with pytest.raises(ValueError, match="evaluation on support"):
                s_hat_eval(sys, 1, 2, z)
        assert sys.s_hat == {}

    def test_build_time_values_are_stored_as_fresh_transforms(self, m3_16_system):
        # building s_{a,b} = <sigma_a, s_{c,b}> evaluates s-hat_{c,b} at
        # sigma_a's atoms; each value is stored under s_hat_eval's key
        sys = system_from_generators(m3_16_system.generators)
        P, m = mp.prec, sys.m
        expected = set()
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if b != a:
                    c = a + (1 if b > a else -1)
                    expected |= {(c, b, x._mpf_, P) for x in sys.generators[a - 1].nodes}
        assert set(sys.s_hat) == expected
        for (c, b, point, prec), value in sys.s_hat.items():
            assert value._mpf_ == cauchy_eval(sys.chain(c, b), mp.make_mpf(point))._mpf_
            assert s_hat_eval(sys, c, b, mp.make_mpf(point)) is value

    @pytest.mark.parametrize("system", ["m2_16_system", "m3_16_system"])
    def test_ratio_targets_fill_the_table_as_s_hat_eval_does(self, system, request):
        from nikishin_hp import EvalGrid, ratio_targets

        base = request.getfixturevalue(system)
        grid = EvalGrid.default(base, None, circle_points=8, segment_points=4)
        one_pass, one_by_one = cold(base), cold(base)
        ratio_targets(one_pass, None, grid)
        m = base.m
        for z in grid.points:
            for b in range(1, m + 1):
                s_hat_eval(one_by_one, m, b, z)
        assert len(one_pass.s_hat) == m * len(grid.points)
        assert {k: v._mpc_ for k, v in one_pass.s_hat.items()} == {
            k: v._mpc_ for k, v in one_by_one.s_hat.items()
        }

    def test_s_hat_evals_computes_only_the_missing_values(self, m3_16_system, monkeypatch):
        sys = cold(m3_16_system)
        z = mpc(7, 2)
        first = s_hat_eval(sys, 3, 2, z)
        passes = []
        real = nikishin.cauchy_evals

        def recording(mus, z):
            passes.append(len(mus))
            return real(mus, z)

        monkeypatch.setattr(nikishin, "cauchy_evals", recording)
        values = s_hat_evals(sys, 3, (1, 2, 3), z)
        assert passes == [2]
        assert values[1] is first
        assert s_hat_evals(sys, 3, (3, 1), z) == [values[2], values[0]]
        assert passes == [2]

    def test_remainders_at_the_first_atoms_read_the_build_time_values(self, monkeypatch):
        # orthogonality and the sign-change grid evaluate A_1 at sigma_1's
        # atoms, whose transforms s-hat_{2,k} the build already computed
        from nikishin_hp import MultiIndex, check_orthogonality, remainder_eval, solve_type1

        sys = system_from_generators(
            [
                AtomicMeasure([-0.75, -0.5, -0.25], [1, 2, 1], 1, Interval(-1, 0)),
                AtomicMeasure([1.5, 2, 2.5], [1, 1, 3], 1, Interval(1, 3)),
                AtomicMeasure([4.5, 5, 5.5], [2, 1, 1], 1, Interval(4, 6)),
            ]
        )
        v = solve_type1(sys, MultiIndex((2, 2, 2)))

        def unused(*args):
            raise AssertionError("a transform at sigma_1's atoms was evaluated again")

        monkeypatch.setattr(nikishin, "cauchy_eval", unused)
        monkeypatch.setattr(nikishin, "cauchy_evals", unused)
        check_orthogonality(sys, v)
        for x in sys.generators[0].nodes:
            remainder_eval(sys, v, 1, x)

    def test_a_run_evaluates_each_chain_point_and_precision_once(self, tmp_path, monkeypatch):
        # outside product_measure, which builds the ratio identity's
        # measures from Cauchy transforms at atoms, no (measure, point,
        # precision) is evaluated twice in a whole run, the build's passes
        # included; the other modules evaluate every transform through the
        # table
        from test_cli import golden_smoke_config

        from nikishin_hp import analysis, cli, hermite_pade

        seen, measures_kept, depth = Counter(), [], [0]
        real_eval, real_product = nikishin.cauchy_eval, nikishin.product_measure
        real_evals = nikishin.cauchy_evals

        def count(mu, z):
            if not depth[0]:
                measures_kept.append(mu)  # keeps id(mu) unique for the run
                point = z._mpc_ if isinstance(z, mpc) else mpf(z)._mpf_
                seen[(id(mu), point, mp.prec)] += 1

        def counting_eval(mu, z):
            count(mu, z)
            return real_eval(mu, z)

        def counting_evals(mus, z):
            for mu in mus:
                count(mu, z)
            return real_evals(mus, z)

        def counting_product(alpha, beta):
            depth[0] += 1
            try:
                return real_product(alpha, beta)
            finally:
                depth[0] -= 1

        def unused(mu, z):
            raise AssertionError("a chain transform bypassed the table")

        monkeypatch.setattr(nikishin, "cauchy_eval", counting_eval)
        monkeypatch.setattr(nikishin, "cauchy_evals", counting_evals)
        monkeypatch.setattr(nikishin, "product_measure", counting_product)
        monkeypatch.setattr(hermite_pade, "cauchy_eval", unused)
        monkeypatch.setattr(analysis, "cauchy_eval", unused)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(golden_smoke_config(tmp_path / "out")))
        assert cli.main(["run", str(config)]) == 0
        assert seen
        assert max(seen.values()) == 1


class TestChainIdentity:
    def test_m1_degenerate(self, f1_system):
        r = check_chain_identity(f1_system, 0, mpc(2, 1))
        assert r.max_residual == 0

    def test_m2_partial_fraction_identity(self, m2_16_system):
        rng = random.Random(41)
        for _ in range(5):
            z = mpc(rng.uniform(-4, 4), rng.uniform(0.5, 4))
            r = check_chain_identity(m2_16_system, 0, z)
            assert r.max_residual <= noise_floor(0.5) * r.scale

    def test_m3_all_levels_at_10i(self, m3_16_system):
        for j in range(3):
            r = check_chain_identity(m3_16_system, j, mpc(0, 10))
            assert r.max_residual <= noise_floor(0.5) * max(r.scale, mpf(1))

    def test_level_out_of_range(self, m2_16_system):
        with pytest.raises(IndexError):
            check_chain_identity(m2_16_system, 2, mpc(0, 1))


class TestRatioIdentity:
    def test_single_atom_constant_ratio(self):
        sigma1 = unit_at(0, -1, "0.5")
        sigma2 = AtomicMeasure([1, 2], [1, 1], 1, Interval(1, 3))
        sys = system_from_generators([sigma1, sigma2])
        z = mpc(5, 5)
        (r,) = check_ratio_identity(sys, [z])
        assert r.max_residual < TIGHT
        ratio = s_hat_eval(sys, 1, 2, z) / s_hat_eval(sys, 1, 1, z)
        mass_ratio = sys.chain(1, 2).total_mass / sigma1.total_mass
        assert abs(ratio - mass_ratio) < TIGHT

    def test_two_atom_residual(self):
        sigma1 = AtomicMeasure([-1, 1], ["0.5", "0.5"], 1, Interval("-1.2", "1.2"))
        sigma2 = AtomicMeasure([2, 3], [1, 2], 1, Interval(2, 4))
        sys = system_from_generators([sigma1, sigma2])
        (r,) = check_ratio_identity(sys, [mpc(5, 5)])
        assert r.max_residual <= noise_floor(0.5) * max(r.scale, mpf(1))

    def test_limit_at_infinity_signed(self, m2_16_system):
        z = mpf(10) ** 9
        lhs = s_hat_eval(m2_16_system, 1, 2, z) / s_hat_eval(m2_16_system, 1, 1, z)
        ratio = m2_16_system.chain(1, 2).total_mass / m2_16_system.chain(1, 1).total_mass
        assert abs(lhs - ratio) < abs(ratio) * mpf(10) ** -8
        assert (lhs > 0) == (ratio > 0)

    def test_residual_across_levels(self, m3_16_system):
        rng = random.Random(43)
        points = [mpc(rng.uniform(5, 8), rng.uniform(2, 4)) for _ in range(2)]
        results = check_ratio_identity(m3_16_system, points)
        assert len(results) == 4  # k = 2, 3 at each point
        for r in results:
            assert r.max_residual <= noise_floor(0.4) * max(r.scale, mpf(1))

    def test_points_match_the_per_point_formula(self, m3_16_system):
        # tau once per call and the z-independent measures once per k; every
        # residual and scale must equal, bit for bit, the formula that
        # rebuilt them at each (k, point), in k-major order
        sys = m3_16_system
        sigma1 = sys.generators[0]
        _, tau = inverse_measure(sigma1)
        rng = random.Random(47)
        points = [mpc(rng.uniform(-8, 8), rng.uniform(0.3, 4)) for _ in range(5)]
        points += [mpc(0, 10), mpc(3, "0.1")]
        got = check_ratio_identity(sys, points)
        assert len(got) == 2 * len(points)
        for i, k in enumerate((2, 3)):
            for z, r in zip(points, got[i * len(points) : (i + 1) * len(points)]):
                lhs = s_hat_eval(sys, 1, k, z) / s_hat_eval(sys, 1, 1, z)
                mass_ratio = sys.chain(1, k).total_mass / sigma1.total_mass
                inner = product_measure(sys.chain(2, k), sigma1)
                bracket = cauchy_eval(product_measure(tau, inner), z)
                assert r.max_residual == abs(lhs - mass_ratio + bracket)
                assert r.scale == max(abs(lhs), abs(mass_ratio), abs(bracket))

    def test_products_built_twice_per_k(self, m3_16_system, monkeypatch):
        products, inverses = [], []

        def counting(calls, real):
            def wrapped(*args):
                calls.append(1)
                return real(*args)

            return wrapped

        monkeypatch.setattr(
            nikishin, "product_measure", counting(products, nikishin.product_measure)
        )
        monkeypatch.setattr(
            nikishin, "inverse_measure", counting(inverses, nikishin.inverse_measure)
        )
        points = [mpc(5, 1), mpc(-4, 2), mpc(0, 7), mpc(2, -3)]
        assert len(check_ratio_identity(m3_16_system, points)) == 2 * 4
        assert len(products) == 2 * (m3_16_system.m - 1)
        assert len(inverses) == 1

    def test_empty_point_list(self, m2_16_system):
        assert check_ratio_identity(m2_16_system, []) == []

    def test_single_generator_gives_no_residuals(self, f1_system):
        assert check_ratio_identity(f1_system, [mpc(5, 5)]) == []
