"""Order-condition assembly, type I/II solves, reduction, remainders, orthogonality."""

import ast
import dataclasses
import importlib.util
import inspect
import math
from fractions import Fraction
from pathlib import Path

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
    first_level_remainder_values,
    laurent_expand_rational,
    moments,
    noise_floor,
    perturbed_reduce,
    remainder_eval,
    sign_changes,
    solve_type1,
    solve_type1_perturbed,
    solve_type2,
    system_from_generators,
    type2_residual_tail,
    working_precision,
)
from nikishin_hp.cli import parse_config
from nikishin_hp.hermite_pade import (
    DIGITS_FLOOR,
    SATURATED_DIGITS,
    _achieved_order,
    _escalate,
    _next_bits,
    _order_basis,
    _tail_sums,
    _type1_tails,
)

import exact_oracle
import mpf_reference
from mpf_reference import achieved_order

TIGHT = mpf(10) ** -70
WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


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


SIZE_MESSAGE = "multi-index size does not match the system"


class TestIndexSize:
    """_type1_tails, which every solve reads, is the one place that checks
    the multi-index size."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda sys, pert, n: solve_type1(sys, n),
            lambda sys, pert, n: solve_type1(sys, n, 1),
            lambda sys, pert, n: solve_type1_perturbed(sys, pert, n),
            lambda sys, pert, n: solve_type2(sys, n),
        ],
        ids=["type1", "type1-deficit", "type1-perturbed", "type2"],
    )
    @pytest.mark.parametrize("parts", [(3,), (3, 3, 3)])
    def test_each_solve_rejects_a_wrong_size(self, m2_16_system, pert_pm5, solve, parts):
        with pytest.raises(ValueError, match=f"^{SIZE_MESSAGE}$"):
            solve(m2_16_system, pert_pm5, MultiIndex(parts))

    def test_type2_residual_tail_rejects_a_wrong_size(self, m2_16_system, f1_system):
        v = solve_type2(m2_16_system, MultiIndex((2, 2)))
        with pytest.raises(ValueError, match=f"^{SIZE_MESSAGE}$"):
            type2_residual_tail(f1_system, v, 1)

    def test_only_type1_tails_holds_the_check(self):
        tree = ast.parse(inspect.getsource(hermite_pade))
        owners = [
            f.name
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f)
            if isinstance(node, ast.Constant) and node.value == SIZE_MESSAGE
        ]
        assert owners == ["_type1_tails"]


class TestDeficitArgument:
    """solve_type1's M follows the package's one integer rule and is >= 0."""

    @pytest.mark.parametrize("M", [1.5, True, "1", None])
    def test_non_integer_rejected(self, m2_16_system, M):
        with pytest.raises(ValueError, match=r"^M must be an integer, got "):
            solve_type1(m2_16_system, MultiIndex((3, 3)), M)

    def test_negative_rejected(self, m2_16_system):
        # M = -1 used to solve with order target |n| + 1
        with pytest.raises(ValueError, match=r"^M must be nonnegative, got -1$"):
            solve_type1(m2_16_system, MultiIndex((3, 3)), -1)

    def test_integral_float_solves_as_the_integer(self, m2_16_system):
        got = solve_type1(m2_16_system, MultiIndex((3, 3)), 1.0)
        want = solve_type1(m2_16_system, MultiIndex((3, 3)), 1)
        assert got == want and got.order_target == 5


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
        # 27 conditions on 12 atoms per generator: pivots that vanish in
        # exact arithmetic pass the gate by a few bits at every precision,
        # so the digits read 2.4 to 2.5 from 256 to 4096 bits, and the
        # vector comes back flagged from its second saturated attempt
        sys = legendre_system(256, 12)
        v = solve_type1(sys, MultiIndex((14, 14)))
        assert v.nullity_flag and v.precision_bits == 512
        assert v.digits < 3

    def test_m3_type2_at_atomic_degree_stops_after_two_attempts(self, monkeypatch):
        # the k = 7 type II solve of test_cli._golden_m3_config (16 atoms
        # per generator, 128 bits): 21 conditions on 48 atoms, digits 1.44
        # at 128 bits and 1.41 at 256, where it climbed to 4096 bits
        sys = legendre_system(128, 16, M3_INTERVALS)
        once, attempts = hermite_pade._solve_type2_once, []

        def counted(*args):
            attempts.append(args[-1])
            return once(*args)

        monkeypatch.setattr(hermite_pade, "_solve_type2_once", counted)
        with working_precision(128):
            v = solve_type2(sys, MultiIndex((7, 7, 7)))
        assert attempts == [128, 256]
        assert v.nullity_flag and v.precision_bits == 256 and v.digits <= SATURATED_DIGITS

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
        basis, _, _ = _order_basis(series, (0, 1, 1), [n.total + nj for nj in n])
        assert mp.prec == 256
        assert max(c._mpf_[3] for row in basis for comp in row for c in comp) <= 256


def bits(values):
    return [x._mpf_ for x in values]


@dataclasses.dataclass(frozen=True)
class Attempt:
    bits: int
    digits: float
    nullity_flag: bool = False


def recording_solve(calls, digits):
    """A stand-in solve_once: records (bits, mp.prec) and returns an Attempt with digits(bits)."""

    def solve_once(bits):
        calls.append((bits, mp.prec))
        if len(calls) > 10:
            raise AssertionError("the precision never stopped rising")
        return Attempt(bits, digits(bits))

    return solve_once


def unsaturated(lost):
    """The digits of a vector that loses `lost` digits, saturating at 2.4 as the order basis does."""
    return lambda bits: max(bits * math.log10(2) - lost, 2.4)


class TestEscalate:
    def test_a_vector_at_the_floor_is_solved_once(self):
        calls = []
        with working_precision(64):
            v = _escalate(recording_solve(calls, lambda bits: DIGITS_FLOOR))
        assert calls == [(64, 64)] and v == Attempt(64, DIGITS_FLOOR)

    def test_one_step_reaches_the_floor(self):
        # L = 72.5 (the README fixture, perturbed, k = 14): 4.6 digits at
        # 256 bits, and 256 + ceil(7.4 log2 10) = 281 rounds up to 320
        calls = []
        with working_precision(256):
            v = _escalate(recording_solve(calls, unsaturated(72.5)))
            assert mp.prec == 256
        assert calls == [(256, 256), (320, 320)]
        assert v.digits >= DIGITS_FLOOR and not v.nullity_flag

    def test_saturated_digits_double_the_bits(self):
        # L = 32.2 (the 16+16 fixture, k = 9): saturated at 64 bits, 6.3
        # digits at 128, and 128 + ceil(5.7 log2 10) = 147 rounds up to 192
        calls = []
        with working_precision(64):
            v = _escalate(recording_solve(calls, unsaturated(32.2)))
        assert [b for b, _ in calls] == [64, 128, 192]
        assert v.digits >= DIGITS_FLOOR

    def test_the_step_rule(self):
        assert _next_bits(64, SATURATED_DIGITS) == 128
        assert _next_bits(64, 3.01) == 128  # 64 + 30
        assert _next_bits(96, 5.0) == 128  # 96 + 24
        assert _next_bits(256, 7.99) == 320  # 256 + 14
        assert _next_bits(512, 7.0) == 576  # 512 + 17

    def test_two_saturated_attempts_in_a_row_flag_the_vector(self):
        calls = []
        with working_precision(96):
            v = _escalate(recording_solve(calls, lambda bits: 2.4))
            assert mp.prec == 96
        assert calls == [(96, 96), (192, 192)]
        assert v == Attempt(192, 2.4, nullity_flag=True)

    def test_bits_cap_at_the_maximum_and_flag_the_vector(self):
        # saturated and unsaturated attempts alternate, so no two saturated
        # ones come in a row: 2.4 doubles the bits, and 5.0 adds
        # ceil(7 log2 10) = 24, rounded up to a multiple of 64
        calls = []
        with working_precision(96):
            v = _escalate(recording_solve(calls, lambda bits: 2.4 if len(calls) % 2 else 5.0))
            assert mp.prec == 96
        assert calls == [(b, b) for b in (96, 192, 256, 512, 576, 1152, 1216, 2432, 2496, 4096)]
        assert v == Attempt(MAX_PRECISION_BITS, 5.0, nullity_flag=True)


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
    """Each solver climbs through _escalate: saturated digits below 2P double P."""

    def test_type1(self, m2_16_system, monkeypatch):
        P, attempts = mp.prec, []
        once = short_below_2p(hermite_pade._solve_type1_once, {"digits": 0.0}, attempts)
        monkeypatch.setattr(hermite_pade, "_solve_type1_once", once)
        v = solve_type1(m2_16_system, MultiIndex((3, 3)))
        assert attempts == [P, 2 * P]
        assert v.precision_bits == 2 * P and v.digits >= DIGITS_FLOOR
        assert achieved_order(m2_16_system, v) >= v.order_target
        assert mp.prec == P

    def test_type2(self, m2_16_system, monkeypatch):
        P, attempts = mp.prec, []
        once = short_below_2p(hermite_pade._solve_type2_once, {"digits": 0.0}, attempts)
        monkeypatch.setattr(hermite_pade, "_solve_type2_once", once)
        v = solve_type2(m2_16_system, MultiIndex((2, 3)))
        assert attempts == [P, 2 * P]
        assert v.precision_bits == 2 * P and v.digits >= DIGITS_FLOOR
        assert all(o >= k + 1 for o, k in zip(v.residual_orders, v.n))
        assert mp.prec == P


M3_INTERVALS = ((-1, 0), (1, 3), (4, 6))


def m3_poles(bits_):
    """r = (1/(z + 3), 1/(z - 3.5), 1/(z - 8)): poles off the first and last intervals."""
    with working_precision(bits_):
        return RationalPerturbation(
            [RationalFn([1], [3, 1]), RationalFn([1], ["-3.5", 1]), RationalFn([1], [-8, 1])]
        )


def solve_once(sys, n, pert, kind, bits_):
    """One attempt of the type I or type II solve at bits_, with no escalation."""
    with working_precision(bits_):
        if kind == "type2":
            return hermite_pade._solve_type2_once(sys, n, bits_)
        return hermite_pade._solve_type1_once(sys, pert, n, 0, bits_)


def agreement(v, w):
    """Digits of agreement of two vectors of one index: a_1..a_m (unit max), or Q over its largest coefficient."""
    if isinstance(v, TypeIVector):
        x, y = concatenated(v), concatenated(w)
    else:
        scale = max(abs(c) for c in w.q.coeffs)
        x, y = ([c / scale for c in u.q.coeffs] for u in (v, w))
        x, y = (u + [mpf(0)] * (max(len(x), len(y)) - len(u)) for u in (x, y))
    with mp.workprec(max(v.precision_bits, w.precision_bits)):
        err = max(abs(a - b) for a, b in zip(x, y, strict=True))
        return float(-mp.log10(err)) if err else math.inf


def digits_against_3p(sys, n, pert, kind, bits_):
    """(digits, d3P) of the bits_ attempt, d3P its agreement with a 3 bits_ solve on the same atoms."""
    v = solve_once(sys, n, pert, kind, bits_)
    return v.digits, agreement(v, solve_once(sys, n, pert, kind, 3 * bits_))


class TestDigits:
    """The order basis's digits against a 3P solve on the same atoms, and the
    escalation they trigger: one step to the floor, or a doubling first when
    they are saturated."""

    # (system, bits, perturbation, solver, indices): the smoke workload, the
    # README fixture (perturbed, and type II), the 16+16 fixture at 64 bits
    # and the m = 3 system
    ROWS = {
        "smoke": (16, 128, "pm5", "type1", (3, 5, 7)),
        "readme": (32, 256, "pm5", "type1", (4, 6, 8, 10, 12, 13, 14)),
        "readme-type2": (32, 256, None, "type2", (4, 8, 12, 16)),
        "16+16-64": (16, 64, None, "type1", (5, 6, 7, 8, 9)),
        "m3": ("m3", 128, "m3", "type1", (2, 3, 4, 5)),
        "m3-type2": ("m3", 128, None, "type2", (2, 3, 4, 5)),
    }

    def system(self, count, bits_):
        if count == "m3":
            return legendre_system(bits_, 16, M3_INTERVALS)
        return legendre_system(bits_, count)

    @pytest.mark.parametrize("row", list(ROWS))
    def test_digits_bracket_the_3p_agreement(self, row):
        # measured 0.3 to 3.5 digits low on type I and within one digit on
        # type II; saturated rows (the 16+16 fixture from k = 6) read 2.4
        count, bits_, pert, kind, ks = self.ROWS[row]
        sys = self.system(count, bits_)
        pert = {"pm5": pm5(bits_), "m3": m3_poles(bits_), None: None}[pert]
        for k in ks:
            n = MultiIndex((k,) * sys.m)
            digits, d3p = digits_against_3p(sys, n, pert, kind, bits_)
            if digits > SATURATED_DIGITS:
                assert digits <= d3p + 1, (k, digits, d3p)
            if d3p > 5:
                assert digits >= d3p - 5, (k, digits, d3p)

    def attempts_per_row(self, monkeypatch, solve, name):
        """Runs solve() with _solve_type1_once or _solve_type2_once recording each attempt's bits."""
        attempts = []
        once = getattr(hermite_pade, name)

        def recording(*args):
            attempts.append(args[-1])
            return once(*args)

        monkeypatch.setattr(hermite_pade, name, recording)
        return solve(), attempts

    def test_64_bit_sweep_reaches_the_floor_in_two_escalations(self, monkeypatch):
        # saturated rows double to 128 bits first, and k = 5 (4.0 digits)
        # steps to 128 too; from k = 9 on, the 17 order conditions outnumber
        # the 16 atoms and the flag says so
        sys = legendre_system(64, 16)
        with working_precision(64):
            for k in range(5, 10):
                n = MultiIndex((k, k))
                v, attempts = self.attempts_per_row(
                    monkeypatch, lambda: solve_type1(sys, n), "_solve_type1_once"
                )
                assert 2 <= len(attempts) <= 3 and attempts[:2] == [64, 128], (k, attempts)
                assert v.digits >= DIGITS_FLOOR and v.nullity_flag == (k >= 9)
                assert agreement(v, solve_once(sys, n, None, "type1", 3 * v.precision_bits)) >= DIGITS_FLOOR

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_m3_row_without_digits_escalates(self, monkeypatch, kind):
        # k = 5 at 128 bits: 4.5 digits for the perturbed type I vector and
        # a saturated 1.8 for Q, which agree with a 3P solve to 4.8 and 0.4
        sys = legendre_system(128, 16, M3_INTERVALS)
        pert = m3_poles(128)
        n = MultiIndex((5, 5, 5))
        if kind == "type1":
            solve, name = (lambda: solve_type1_perturbed(sys, pert, n)), "_solve_type1_once"
        else:
            solve, name = (lambda: solve_type2(sys, n)), "_solve_type2_once"
        with working_precision(128):
            v, attempts = self.attempts_per_row(monkeypatch, solve, name)
        assert attempts[0] == 128 and len(attempts) >= 2
        assert v.digits >= DIGITS_FLOOR and not v.nullity_flag
        w = solve_once(sys, n, pert, kind, 3 * v.precision_bits)
        assert agreement(v, w) >= DIGITS_FLOOR

    def test_readme_fixture_k14_escalates_in_one_step(self):
        # 4.6 digits at 256 bits (7.0 against a 3P solve); L = 72.5 asks
        # for 281 bits, rounded up to 320
        sys = legendre_system(256, 32)
        with working_precision(256):
            v = solve_type1_perturbed(sys, pm5(256), MultiIndex((14, 14)))
        assert v.precision_bits in (320, 384)
        assert v.digits >= DIGITS_FLOOR and not v.nullity_flag

    def test_only_the_type2_solve_reads_the_achieved_order(self):
        tree = ast.parse(inspect.getsource(hermite_pade))
        callers = [
            f.name
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_achieved_order"
        ]
        assert callers == ["_solve_type2_once"]
        assert "residual_order" not in {f.name for f in dataclasses.fields(TypeIVector)}


def saturated_below(monkeypatch, bits_):
    """Make every attempt of either solver below bits_ read saturated digits."""
    for name in ("_solve_type1_once", "_solve_type2_once"):
        once = getattr(hermite_pade, name)
        monkeypatch.setattr(
            hermite_pade,
            name,
            lambda *args, once=once: (
                once(*args) if args[-1] >= bits_ else dataclasses.replace(once(*args), digits=0.0)
            ),
        )


def solved_bits(v):
    """Every field of a type I or type II vector, coefficients as `_mpf_`."""
    polys = v.a if isinstance(v, TypeIVector) else (v.q,) + v.p
    orders = v.order_target if isinstance(v, TypeIVector) else v.residual_orders
    return [bits(p.coeffs) for p in polys], (orders, v.digits), v.n, v.nullity_flag, v.precision_bits


def pm5(bits_):
    with working_precision(bits_):
        return RationalPerturbation([RationalFn([1], [-5, 1]), RationalFn([1], [5, 1])])


# kind -> solve(sys, n, pert), giving the vectors of one index: the plain
# solves at M = 0..2, the perturbed one and type II, then all of them on one
# system, with M changing from index to index
SOLVERS = {
    "plain": lambda sys, n, pert: [solve_type1(sys, n)],
    "deficit-1": lambda sys, n, pert: [solve_type1(sys, n, 1)],
    "deficit-2": lambda sys, n, pert: [solve_type1(sys, n, 2)],
    "perturbed": lambda sys, n, pert: [solve_type1_perturbed(sys, pert, n)],
    "type2": lambda sys, n, pert: [solve_type2(sys, n)],
    "interleaved": lambda sys, n, pert: [
        solve_type1(sys, n, n.total % 3),
        solve_type1_perturbed(sys, pert, n),
        solve_type2(sys, n),
    ],
}

SWEEPS = {
    "ascending": [(k, k) for k in range(2, 8)],
    "descending": [(k, k) for k in range(7, 1, -1)],
    "repeated": [(4, 4), (5, 5), (4, 4), (5, 5), (5, 5)],
    "off-diagonal": [(k + 1, k) for k in range(2, 7)],
    "mixed": [(3, 3), (4, 3), (5, 5), (2, 5), (6, 6), (4, 4), (6, 5)],
}


class TestBasisTable:
    """A system's stored order bases change no bit of any solve, and an
    ascending sweep eliminates each order condition once."""

    def sweep_against_fresh(self, kind, sweep, bits_):
        pert = pm5(bits_)
        solve = SOLVERS[kind]
        shared = legendre_system(bits_, 16)
        with working_precision(bits_):
            for parts in sweep:
                n = MultiIndex(parts)
                fresh = solve(legendre_system(bits_, 16), n, pert)
                got = solve(shared, n, pert)
                assert list(map(solved_bits, got)) == list(map(solved_bits, fresh)), parts
        return shared

    @pytest.mark.parametrize(
        "sweep, bits_", [(sweep, 128) for sweep in SWEEPS] + [("mixed", 64)]
    )
    @pytest.mark.parametrize("kind", list(SOLVERS))
    def test_a_shared_system_solves_as_fresh_ones_do(self, kind, sweep, bits_):
        self.sweep_against_fresh(kind, SWEEPS[sweep], bits_)

    def test_m3_and_m1_sweeps_solve_as_fresh_ones_do(self):
        for intervals, sweep in (
            (((-1, 0), (1, 3), (4, 6)), [(2, 2, 2), (3, 3, 2), (3, 3, 3), (2, 2, 2)]),
            (((-1, 0),), [(3,), (6,), (9,), (4,)]),
        ):
            shared = legendre_system(128, 12, intervals)
            with working_precision(128):
                for parts in sweep:
                    n = MultiIndex(parts)
                    fresh = legendre_system(128, 12, intervals)
                    for solve in (solve_type1, solve_type2):
                        assert solved_bits(solve(shared, n)) == solved_bits(solve(fresh, n))

    def test_escalated_solves_continue_from_the_2p_bases(self, monkeypatch):
        # every attempt below 2P is made to read saturated digits: each
        # solve then climbs to 2P, and the 2P attempts of a sweep share the
        # 2P bases
        P = 128
        saturated_below(monkeypatch, 2 * P)
        for kind in ("plain", "perturbed", "type2"):
            shared = self.sweep_against_fresh(kind, SWEEPS["mixed"], P)
            assert {key[-1] for key in shared.bases} == {P, 2 * P}
        with working_precision(P):
            assert solve_type1(shared, MultiIndex((6, 6))).precision_bits == 2 * P

    @pytest.mark.parametrize("solve", [solve_type1, solve_type2])
    def test_an_ascending_sweep_eliminates_each_condition_once(self, monkeypatch, solve):
        calls = []
        real = hermite_pade._axpy

        def counting(a, c, b):
            calls.append(len(b))
            return real(a, c, b)

        monkeypatch.setattr(hermite_pade, "_axpy", counting)
        sys = legendre_system(256, 16)
        for k in range(2, 9):
            solve(sys, MultiIndex((k, k)))
        swept = list(calls)
        calls.clear()
        solve(legendre_system(256, 16), MultiIndex((8, 8)))
        assert swept == calls and calls
        # one state per key, whatever the sweep's length
        assert len(sys.bases) == 1
        # a descending sweep starts each index from the identity
        calls.clear()
        sys = legendre_system(256, 16)
        for k in range(8, 1, -1):
            solve(sys, MultiIndex((k, k)))
        assert len(calls) > len(swept)


class TestRawKernels:
    """The raw-tuple kernels give the bits of the mpf-object code they replaced.

    Each case runs once with the package's kernels and once, on a fresh
    system, with mpf_reference's _order_basis, _tail_sums and
    _achieved_order patched in, and compares every vector, reduction,
    residual tail, remainder value and orthogonality residual as `_mpf_`.
    """

    def record(self, sys, sweep, pert, checks):
        lines = []
        for parts in sweep:
            n = MultiIndex(parts)
            plain = [solve_type1(sys, n)]
            if pert is not None:
                v = solve_type1_perturbed(sys, pert, n)
                rep = perturbed_reduce(pert, v, sys)
                lines += [solved_bits(v), bits((rep.max_residual, rep.scale))]
                plain.append(rep.reduced)
            v2 = solve_type2(sys, n)
            lines.append(solved_bits(v2))
            lines += [bits(type2_residual_tail(sys, v2, j)) for j in range(1, sys.m + 1)]
            for v in plain:
                lines.append(solved_bits(v))
                lines.append(bits(checks.first_level_remainder_values(sys, v)))
                # the tail route, through the patched _tail_sums
                lines.append(bits(check_orthogonality(sys, v)))
        # the stored bases hold the P + 64 bits that the rounding to P hides
        for key, (level, basis, degrees, least) in sys.bases.items():
            stored = [[[getattr(c, "_mpf_", c) for c in comp] for comp in row] for row in basis]
            lines.append([key, level, stored, degrees, getattr(least, "_mpf_", least)])
        return lines

    def against_mpf(self, monkeypatch, bits_, make_system, sweep, pert=None):
        with working_precision(bits_):
            raw = self.record(make_system(), sweep, pert, hermite_pade)
            for name in ("_order_basis", "_tail_sums", "_achieved_order"):
                monkeypatch.setattr(hermite_pade, name, getattr(mpf_reference, name))
            assert raw == self.record(make_system(), sweep, pert, mpf_reference)
        return raw

    def test_m2_sweep(self, monkeypatch):
        sweep = [(k, k) for k in range(2, 9)]
        self.against_mpf(monkeypatch, 256, lambda: legendre_system(256, 16), sweep, pm5(256))

    def test_m3_sweep(self, monkeypatch):
        intervals = ((-1, 0), (1, 3), (4, 6))
        sweep = [(2, 2, 2), (3, 3, 2), (3, 3, 3), (4, 4, 4)]
        self.against_mpf(monkeypatch, 256, lambda: legendre_system(256, 16, intervals), sweep)

    def test_atomic_degree_flagged_rows(self, monkeypatch):
        # 4 + 4 atoms: from |n| = 6 on the type I vectors are flagged
        sweep = [(k, k) for k in range(2, 6)]
        self.against_mpf(monkeypatch, 128, lambda: legendre_system(128, 4), sweep)
        with working_precision(128):
            assert solve_type1(legendre_system(128, 4), MultiIndex((5, 5))).nullity_flag

    def test_escalated_2p_attempts(self, monkeypatch):
        # as in TestBasisTable, each solve climbs to 2P and continues from
        # the 2P bases
        P = 128
        saturated_below(monkeypatch, 2 * P)
        sweep = [(3, 3), (4, 3), (5, 5)]
        raw = self.against_mpf(monkeypatch, P, lambda: legendre_system(P, 16), sweep, pm5(P))
        assert {line[-1] for line in raw if isinstance(line, tuple) and len(line) == 5} == {2 * P}

    def test_first_level_values_are_the_remainder_at_the_atoms(self, m2_16_system, m3_16_system, pert_pm5):
        for sys, parts in ((m2_16_system, (5, 4)), (m3_16_system, (3, 3, 2))):
            n = MultiIndex(parts)
            vs = [solve_type1(sys, n), solve_type1(sys, n, 1)]
            if sys.m == 2:
                vs.append(perturbed_reduce(pert_pm5, solve_type1_perturbed(sys, pert_pm5, n), sys).reduced)
            for v in vs:
                nodes = sys.generators[0].nodes
                expected = [remainder_eval(sys, v, 1, x) for x in nodes]
                assert bits(first_level_remainder_values(sys, v)) == bits(expected)


class TestTypeIPlain:
    def test_f1_hand_solution(self, f1_system):
        v = solve_type1(f1_system, MultiIndex((2,)))
        assert abs(v.a[1][1] - 1) < noise_floor(0.5)  # a_1 = z
        assert abs(v.a[1][0]) < noise_floor(0.5)
        assert abs(v.a[0][0] + 1) < noise_floor(0.5)  # a_0 = -1
        assert achieved_order(f1_system, v) >= 2
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
            assert rep.max_residual <= noise_floor(0.5) * rep.scale

    def test_achieved_order_meets_target(self, m2_16_system):
        v = solve_type1(m2_16_system, MultiIndex((4, 4)))
        assert achieved_order(m2_16_system, v) >= 8

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
                assert achieved_order(f1_system, v) == v.n.total + 4  # never left zero


class TestIncompleteMember:
    """Which of the M + 1 dimensions of solutions an order deficit M > 0 returns.

    The solve takes the basis row of least shifted degree in x = 1/z: the
    member with the most factors of z.  On the README fixture (32+32
    Legendre atoms, plain, 256 bits).
    """

    @pytest.mark.parametrize("k", [6, 8, 10])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_last_component_has_a_factor_z(self, m2_32_system, k, M):
        v = solve_type1(m2_32_system, MultiIndex((k, k)), M=M)
        assert v.a[2].coeffs[0] == 0

    @pytest.mark.parametrize("k", [6, 8, 10])
    def test_deficit_three_is_z_times_the_complete_vector(self, m2_32_system, k):
        # both normalized to unit max over a_1, a_2; a_0, formed from the
        # polynomial part of sum_j a_j f_j, carries its rounding in the
        # constant term, which z times a_0 would have exactly 0
        v = solve_type1(m2_32_system, MultiIndex((k, k)), M=3)
        c = solve_type1(m2_32_system, MultiIndex((k - 1, k - 1)))
        for j in (1, 2):
            assert v.a[j].coeffs == (mpf(0),) + c.a[j].coeffs
        assert v.a[0].coeffs[1:] == c.a[0].coeffs
        assert abs(v.a[0].coeffs[0]) <= noise_floor(0.5)


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
        assert achieved_order(sys, v, pert) >= 2

    def test_fixture_order_achieved(self, m2_16_system, pert_pm5):
        v = solve_type1_perturbed(m2_16_system, pert_pm5, MultiIndex((4, 4)))
        assert achieved_order(m2_16_system, v, pert_pm5) >= 8

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


# (name, numerator, denominator, the precisions at which the pole rule
# accepts the fraction); near misses put the numerator's root at 5 + eps
POLE_RULE_VERDICTS = [
    ("(z-5)/(z-5)^2", [-5, 1], [25, -10, 1], ()),
    ("(z-5)/(z-5)^3", [-5, 1], [-125, 75, -15, 1], ()),
    ("(z-5)^2/(z-5)^3", [25, -10, 1], [-125, 75, -15, 1], ()),
    ("(z-1)/(z^2-1)^2", [-1, 1], [1, 0, -2, 0, 1], ()),
    ("(z^2+4)/(z^2+4)^2", [4, 0, 1], [16, 0, 8, 0, 1], ()),
    ("(z^2+1)/(z^2+4)^2", [1, 0, 1], [16, 0, 8, 0, 1], (64, 128, 256)),
    ("eps=2^-20", [-(5 + 2.0**-20), 1], [25, -10, 1], (128, 256)),
    ("eps=2^-40", [-(5 + 2.0**-40), 1], [25, -10, 1], (256,)),
    ("eps=10^-30", ["-5." + "0" * 29 + "1", 1], [25, -10, 1], ()),
]


class TestPoleRule:
    @pytest.mark.parametrize("bits", [64, 128, 256])
    @pytest.mark.parametrize(
        "num, den, accepted", [v[1:] for v in POLE_RULE_VERDICTS], ids=[v[0] for v in POLE_RULE_VERDICTS]
    )
    def test_numerator_vanishing_at_a_pole_is_rejected(self, num, den, accepted, bits):
        # v_j vanishes at a root zeta of t_j when |v_j(zeta)| <= 2^-P/4 of
        # its scale; a numerator root at 5 + eps escapes a double pole at 5
        # once eps is above the cluster centre's error at P bits
        with working_precision(bits):
            fraction = RationalFn(num, den)
            if bits in accepted:
                RationalPerturbation([fraction])
            else:
                with pytest.raises(ValueError, match="irreducible"):
                    RationalPerturbation([fraction])


class TestLaurentCoeff:
    def test_sum_and_scale_over_pairs(self):
        # (2 - z)(1/z - 2/z^2 + 4/z^3) + 7 (3/z + 5/z^2)
        pairs = [([mpf(2), mpf(-1)], tail(1, -2, 4)), ([mpf(7)], tail(3, 5))]
        assert list(_tail_sums(pairs, (-2, 0, 1))) == [(-4 - 4 + 35, 4 + 4 + 35), (-1, 1), (0, 0)]

    def test_sums_are_formed_as_they_are_read(self):
        # _achieved_order stops at the first index above its gate, so the
        # sums beyond it are never formed
        drawn = []

        def exponents():
            for e in (-1, -2, -3):
                drawn.append(e)
                yield e

        sums = _tail_sums([([mpf(1)], tail(0, 1, 0))], exponents())
        assert next(sums) == (0, 0)
        assert drawn == [-1]
        assert next(sums) == (1, 1)
        assert drawn == [-1, -2]

    def test_achieved_order_is_the_first_nonvanishing_index_plus_one(self):
        # the first non-vanishing coefficient sits at index 2; below upto = 3
        # none is read, and the order is upto
        pairs = [([mpf(1)], tail(0, 0, 1, 0, 0))]
        assert _achieved_order(pairs, 4) == 3
        assert _achieved_order(pairs, 2) == 2


class TestReduce:
    def test_zero_perturbation_identity(self, m2_16_system):
        pert = RationalPerturbation.zero(2)
        v = solve_type1(m2_16_system, MultiIndex((3, 3)))
        rep = perturbed_reduce(pert, v, m2_16_system)
        assert rep.reduced.a[0] == v.a[0]
        assert rep.max_residual <= noise_floor(0.5) * rep.scale

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
        assert rep.max_residual <= noise_floor(0.5) * rep.scale
        assert achieved_order(m2_16_system, rep.reduced, upto=v.n.total + 4) >= rep.reduced.order_target
        # the reduced remainder is T * A_1: its orthogonality runs to |n|-D-2
        orth = check_orthogonality(m2_16_system, rep.reduced)
        assert orth.max_residual <= noise_floor(0.5) * orth.scale

    def test_shared_tail_sums_match_a_fresh_computation(self, m2_16_system, pert_pm5):
        # the residual reads the tail sums below order_target - 1, and the
        # reduced vector's achieved order reads them on to |n| + 4 of the
        # unreduced index; both must equal sums formed afresh
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
        assert achieved_order(m2_16_system, rep.reduced, upto=v.n.total + 4) == order
        assert order > rep.reduced.order_target - 1  # the order read sums past the shared ones

    def test_residual_and_scale_reach_the_last_checked_index(self):
        # hand-built vector on one atom at 2: coefficient k of (T a_1) s-hat
        # is 2^k (T a_1)(2), so the last checked index carries the largest
        # residual and the largest scale
        sys = system_from_generators([unit_at(2, 1, 3)])
        pert = RationalPerturbation([RationalFn([1], [-5, 1])])
        a = (Polynomial.zero(), Polynomial.one())
        v = TypeIVector(a, MultiIndex((5,)), 5, False, mp.prec, math.inf)
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
        basis, degrees, _ = _order_basis(series, (0, 1, 1), orders)
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


@pytest.fixture(scope="module")
def deep_diag():
    """The benchmark's deep-diag-m2 system at seed 0 (64 + 64 Chebyshev atoms, 512 bits) and its
    sweep's type I vectors, k = 16, 20, 24."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = parse_config(workloads.make_config("deep-diag-m2", 0))
    assert config.precision_bits == 512 and len(config.sweep) == 3
    with working_precision(config.precision_bits):
        sys = build_system(config.system)
        return sys, [solve_type1(sys, n) for n in config.sweep]


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

    def test_first_level_values_add_no_table_entries(self):
        # the build stores every transform at sigma_1's atoms, so the values
        # both remainder checks read evaluate no transform
        sys = legendre_system(256, 32)
        v = solve_type1(sys, MultiIndex((6, 6)))
        before = len(sys.s_hat)
        values = first_level_remainder_values(sys, v)
        assert len(sys.s_hat) == before
        assert len(values) == len(sys.generators[0].nodes)

    def test_noise_values_are_zero(self):
        # on 4 + 4 atoms at 128 bits A_1 vanishes at every atom of sigma_1
        # from n = (3, 3) on; its values read 2^-125 to 2^-120 of their
        # terms, and a gate relative to the largest value alone counts
        # their alternations as 3 sign changes
        sys = legendre_system(128, 4)
        with working_precision(128):
            values = first_level_remainder_values(sys, solve_type1(sys, MultiIndex((2, 2))))
            assert all(values) and sign_changes(values) == 3
            for k in (3, 4, 5):
                v = solve_type1(sys, MultiIndex((k, k)))
                assert first_level_remainder_values(sys, v) == [0] * 4

    def test_values_far_below_half_the_bits_are_kept(self, deep_diag):
        # on deep-diag-m2 at k = 24 the least value reads 2^-264 of its
        # terms, below 2^-P/2 = 2^-256, and every sign change is needed
        sys, vectors = deep_diag
        v = vectors[-1]
        with working_precision(512):
            values = first_level_remainder_values(sys, v)
            assert all(values) and sign_changes(values) == v.order_target - 1 == 47


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
        assert rep.max_residual <= noise_floor(0.5) * rep.scale

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
            v = TypeIVector((Polynomial.zero(), p), MultiIndex((5,)), 5, False, mp.prec, math.inf)
            return check_orthogonality(sys, v)

        seen = check(p3)
        assert abs(seen.max_residual - mpf(4) / 35) < TIGHT
        unseen = check(p4)
        assert unseen.max_residual <= noise_floor(0.5) * unseen.scale


class TestCrossRoute:
    """check_orthogonality, the tail route, against the atom route it replaced.

    The tail route reads the moments of A_1 against sigma_1 as the tail
    coefficients of sum_j a_j s-hat_{1,j}; mpf_reference.check_orthogonality
    sums sum_i x_i^nu A_1(x_i) w_i sign over sigma_1's atoms, nu = 0..N-2.
    Their maxima differ by at most 2^4 2^-P times the tail route's scale,
    on the README sweep, plain and perturbed (through the reduced vector),
    and on the 512-bit deep-diag-m2 vectors, where they differ by at most
    1.3 2^-P times it (6.8e-154 at a scale of 7.1, k = 20).
    """

    def assert_routes_agree(self, sys, v):
        tail = check_orthogonality(sys, v)
        atoms = mpf_reference.check_orthogonality(sys, v)
        assert v.order_target >= 6 and tail.max_residual > 0
        gap = abs(atoms.max_residual - tail.max_residual)
        assert gap <= 2**4 * mpf(2) ** -mp.prec * tail.scale

    @pytest.mark.parametrize("kind", ["plain", "perturbed"])
    def test_the_two_routes_agree(self, sweep_solutions, m2_32_system, pert_pm5, kind):
        for v in sweep_solutions[kind].values():
            if kind == "perturbed":
                v = perturbed_reduce(pert_pm5, v, m2_32_system).reduced
            self.assert_routes_agree(m2_32_system, v)

    def test_the_two_routes_agree_on_the_deep_diag_vectors(self, deep_diag):
        sys, vectors = deep_diag
        with working_precision(512):
            for v in vectors:
                self.assert_routes_agree(sys, v)


def shifted_chebyshev(k):
    """The integer coefficients of T_k(2x + 1), ascending."""
    prev, cur = [1], [1, 2]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [2 * c for c in cur] + [0]
        for i, c in enumerate(cur):
            nxt[i + 1] += 4 * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


class TestChebyshevClosedForm:
    """m = 1 against its closed form: on the N-point Chebyshev (-1/2, -1/2)
    rule of [-1, 0], Gauss exactness makes a_1 of the index (k) proportional
    to T_{k-1}(2x + 1) for k <= N + 1."""

    @pytest.fixture(scope="class")
    def chebyshev_system(self):
        spec = MeasureSpec(
            kind="jacobi-density", interval=Interval(-1, 0), node_count=64, alpha=-0.5, beta=-0.5
        )
        return build_system(SystemSpec([spec], 256))

    # one digit below 75.7, 70.3, 58.3, 45.7, 34.4 and 21.8, measured at
    # 256 bits against the reference at 768 bits
    @pytest.mark.parametrize(
        "k, digits", [(4, 74.7), (8, 69.3), (16, 57.3), (24, 44.7), (32, 33.4), (40, 20.8)]
    )
    def test_a1_is_the_shifted_chebyshev_polynomial(self, chebyshev_system, k, digits):
        v = solve_type1(chebyshev_system, MultiIndex((k,)))
        assert v.precision_bits == 256 and not v.nullity_flag
        reference = shifted_chebyshev(k - 1)
        scale = max(abs(c) for c in reference)  # the leading coefficient is positive
        with mp.workprec(768):
            err = max(
                abs(c - mpf(e) / scale) for c, e in zip(v.a[1].coeffs, reference, strict=True)
            )
            assert err < mpf(10) ** -digits


def as_fraction(x):
    sign, man, exp, _ = mpf(x)._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def dyadic_system():
    """A fresh system on exact_oracle's dyadic atoms, held exactly in binary."""

    def floats(values):
        return [mpf(q.numerator) / q.denominator for q in values]  # exact: dyadic

    weights = floats([exact_oracle.WEIGHT] * exact_oracle.ATOMS)
    return system_from_generators(
        [
            AtomicMeasure(floats(exact_oracle.X), weights, 1, Interval(-1, 0)),
            AtomicMeasure(floats(exact_oracle.Y), weights, 1, Interval(1, 3)),
        ]
    )


class TestExactOracle:
    def assert_type1_matches_the_exact_kernel(self, n, digits):
        v = solve_type1(dyadic_system(), MultiIndex(n))
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
        v = solve_type1(dyadic_system(), MultiIndex(n), M)
        assert v.precision_bits == 256 and not v.nullity_flag
        vec = [as_fraction(c) for c in concatenated(v)]
        assert max(abs(c) for c in vec) == 1
        assert exact_oracle.type1_kernel_distance(vec, n, M) < Fraction(1, 10**65)

    @pytest.mark.parametrize("n", [(k, k) for k in range(2, 8)] + [(4, 3), (5, 4)])
    def test_remainder_sign_changes_match_the_exact_count(self, n):
        # orthogonality to degree |n| - 2 forces |n| - 1 sign changes of A_1
        # at the atoms; the exact remainder has exactly that many, and no
        # exact value is 0 for the count to skip
        exact = exact_oracle.first_level_remainder(n)
        assert all(value != 0 for value in exact)
        count = sum((a > 0) != (b > 0) for a, b in zip(exact, exact[1:]))
        assert count == sum(n) - 1
        sys = dyadic_system()
        v = solve_type1(sys, MultiIndex(n))
        assert v.precision_bits == 256
        assert sign_changes(first_level_remainder_values(sys, v)) == count

    @pytest.mark.parametrize(
        "k, digits, reduced_digits",
        [(2, 76, 74), (3, 71, 70), (4, 66, 65), (5, 61, 59), (6, 55, 53), (7, 47, 46)],
    )
    def test_perturbed_vector_and_reduction_match_the_exact_ones(self, pert_pm5, k, digits, reduced_digits):
        # r_j = 1/(z -+ 5) on the dyadic atoms: every coefficient of
        # (a_0, a_1, a_2) and of the T-reduced (p_0, T a_1, T a_2), exact
        # over QQ, against the package at 256 bits, which has 77.3, 72.4,
        # 67.8, 62.3, 56.1 and 48.8 digits for the vector and 75.9, 71.0,
        # 66.4, 60.9, 54.7 and 47.4 for the reduced vector
        n = (k, k)
        sys = dyadic_system()
        v = solve_type1_perturbed(sys, pert_pm5, MultiIndex(n))
        assert v.precision_bits == 256 and not v.nullity_flag
        reduced = perturbed_reduce(pert_pm5, v, sys).reduced

        def error(polys, exact):
            return max(
                abs(as_fraction(p[i]) - (e[i] if i < len(e) else 0))
                for p, e in zip(polys, exact, strict=True)
                for i in range(max(p.degree + 1, len(e)))
            )

        assert error(v.a, exact_oracle.perturbed_type1(n)) < Fraction(1, 10**digits)
        assert error(reduced.a, exact_oracle.reduced_type1(n)) < Fraction(1, 10**reduced_digits)

    @pytest.mark.parametrize("k, digits", [(3, 66), (5, 56), (7, 45)])
    def test_type2_q_matches_the_exact_kernel(self, k, digits):
        # digits relative to Q's largest coefficient: at 256 bits the SVD
        # kernel had 67.7, 57.7 and 46.6; the order basis has 68.6, 59.3 and
        # 48.1, and had 67.8, 58.4 and 46.9 when it eliminated at P bits
        v = solve_type2(dyadic_system(), MultiIndex.diagonal(2, k))
        assert v.precision_bits == 256
        exact = exact_oracle.type2_q((k, k))
        err = max(abs(as_fraction(c) - e) for c, e in zip(v.q.coeffs, exact, strict=True))
        assert err < max(abs(e) for e in exact) / 10**digits
