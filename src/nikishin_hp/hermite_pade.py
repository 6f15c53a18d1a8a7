"""Type I and type II simultaneous rational approximation of Cauchy transforms.

Order conditions at infinity are read from the tails (tuples whose entry k
is the coefficient of z^-(k+1)).  Both solvers solve them with one kernel,
_order_basis, the sigma-basis of Beckermann and Labahn, in O(|n|^2)
operations per index: with x = 1/z each problem becomes a Pade form in
power series of x, and the solution is the basis row of least shifted
degree.  The basis eliminates at P + 64 bits and is rounded back to P;
eliminating at P instead costs about 3 digits at m=3 (16 Legendre atoms
per generator, 128 bits, k = 2..4: 30.9, 22.4 and 11.8 correct digits
against 28.0, 18.5 and 9.3).  Every coefficient of a tail convolution
sum_j c_j f_j, in its polynomial part (a_0, the P_j) or at infinity (type
II's achieved orders, the orthogonality residual, type2_residual_tail),
comes from one primitive, _tail_sums, the one owner of that P-bit sum.  The
tails of the chains s_{1,j} come from the system's table through
nikishin.chain_tail.  The order basis, the tail-convolution sums and the
remainder values at sigma_1's atoms (by algebra._raw_horner, the raw Horner
rule) run on raw mpmath.libmp tuples, with the operations and roundings of
the mpf arithmetic they replace, so they give its bits.

A sweep repeats its predecessors' order conditions, so each solve keeps the
basis it reaches in a third table on the system, sys.bases, which only this
module names.  The key fixes the series and the gate: (perturbation or
None, shifts (2, D - n_j + 1, ...), mp.prec) for type I and (shifts
(0, 1, ..., 1), mp.prec) for type II.  The value is the basis at P + 64
bits, unrounded and raw, with its degrees, the level min(orders) it
reached and its least pivot ratio; a solve whose min(orders) is at least
that level continues from it (_order_basis states the prefix rule), and
each key holds one state.
chain_tail and laurent_expand_rational give every request the same bits
on the coefficients both read, and the basis is rounded to P after the
P + 64 block, so a solve on a shared system equals one on a fresh system
bit for bit, escalated attempts included: each runs at its own mp.prec,
which the key holds.  An ascending diagonal sweep then eliminates each order
condition once, as its largest index alone would.

One escalation driver, _escalate, serves both solvers, and its one trigger
is the digits a vector holds, read off the order basis that gave it.  Each
pivot the basis takes cancels its terms to |r_piv| / sum |terms|; with L =
-log10 of the least such ratio over every condition the basis has met, a
P-bit vector keeps about digits = P log10 2 - L correct digits (type II one
digit fewer).  Against a 3P solve this reads 0.3 to 3.5 digits low on the
type I rows measured, and within one digit on the type II rows.  L does not
depend on P while the estimate is unsaturated, so a vector below
DIGITS_FLOOR = 8 digits is solved again at P + (8 + 4 - digits) log2 10
bits, rounded up to a multiple of 64, which meets the floor in one step.
A pivot below the basis's gate is never taken, so digits cannot fall much
below 2.4; at 3 or less the estimate is saturated and the bits double
instead.  The bits stop at MAX_PRECISION_BITS = 4096, or after two
saturated attempts in a row (at atomic degree more bits do not help), and
a vector still below the floor there is returned with nullity_flag set.
No workload or golden row is below the floor (see DIGITS_FLOOR), so none
escalates.

The perturbed problem approximates f_j = s-hat_{1,j} + r_j; multiplying its
order condition by T = prod t_j turns the solution into an incomplete
approximant of the plain system with order deficit deg T, which
perturbed_reduce performs and verifies.  RationalPerturbation alone
decides which roots of the t_j are poles, and perturbed_reduce alone forms
the cofactors T/t_j, each as the product of the other t_i.

remainder_eval gives the remainders A_j of the plain system.  Both
remainder checks read plain-system vectors only: a perturbed solve is
checked through its T-reduced vector.  check_orthogonality reads the
moments of A_1 against sigma_1 as the tail coefficients of sum_j a_j
s-hat_{1,j}, judged against the sum of their |terms| before cancellation,
and perturbed_reduce reports it for the reduced vector.  sign_changes reads
A_1 at sigma_1's atoms, from first_level_remainder_values, which alone
evaluates it there.  Orthogonality to the polynomials of degree N - 2 forces
N - 1 sign changes among those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fone,
    fzero,
    from_man_exp,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sum,
    round_nearest,
)

from .algebra import Polynomial, RationalFn, _raw_horner, laurent_expand_rational, poly_roots
# cauchy_eval and moments are unused here; benchmark/spans.py still patches
# hermite_pade.cauchy_eval and hermite_pade.moments
from .measures import cauchy_eval, moments  # noqa: F401
from .nikishin import NikishinSystem, Residual, chain_tail, s_hat_eval, s_hat_evals
from .precision import MAX_PRECISION_BITS, checked_int, is_integer, noise_floor, working_precision

# An order-basis residual at most ORDER_BASIS_GUARD 2^-P times the sum of its
# terms' moduli is zero, P being the caller's precision: the elimination runs
# at P + 64 bits, but the tails carry P-bit rounding.  Measured against that
# sum on the 32+32 README fixture at 256 bits:
# - type II: the residuals that vanish in exact arithmetic read 2^-320 or
#   less, and the genuine pivots fall to 2^-163 at k=12 and 2^-221 at k=16;
#   a gate at 2^-P/2 drops genuine conditions from k=10 on, and Q then
#   loses every digit;
# - type I: the least genuine residual at k=12 reads 2^-154 (plain) and
#   2^-199 (perturbed).  At k=16, perturbed, they reach the gate, and the
#   nullity flag is set.  At atomic degree (4+4 atoms at 128 bits,
#   |n| = 6..10) the vanishing residuals read at most 2^3.2 2^-P.
# The factor 2^8 covers the rounding of sums of up to 256 terms.
ORDER_BASIS_GUARD = 2**8

# A solve escalates a vector whose digits (TypeIVector.digits) are below
# DIGITS_FLOOR.  The least digits of any workload or golden row read 9.86
# (type I, smoke seed 7, k = 7) and 9.94 (type II, smoke seed 6), so the
# floor escalates none of them.  ORDER_BASIS_GUARD keeps every pivot ratio
# above 2^8 2^-P, so digits cannot fall much below 2.4: at SATURATED_DIGITS
# or less the estimate no longer measures the loss.
DIGITS_FLOOR = 8
SATURATED_DIGITS = 3


@dataclass(frozen=True)
class MultiIndex:
    """Per-component degree budget (n_1, ..., n_m), not all zero."""

    parts: tuple

    def __init__(self, parts):
        parts = tuple(parts)
        for p in parts:
            if not is_integer(p):
                raise ValueError(f"multi-index entries must be integers, got {p!r}")
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise ValueError("empty multi-index")
        if any(p < 0 for p in parts):
            raise ValueError("multi-index entries must be nonnegative")
        if all(p == 0 for p in parts):
            raise ValueError("multi-index must not be zero")
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, j: int) -> int:
        return self.parts[j]

    def __iter__(self):
        return iter(self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def max_part(self) -> int:
        return max(self.parts)

    @property
    def spread(self) -> int:
        return max(self.parts) - min(self.parts)

    @classmethod
    def diagonal(cls, m: int, k: int) -> "MultiIndex":
        return cls((k,) * m)


@dataclass(frozen=True)
class RationalPerturbation:
    """The rational vector r = (v_1/t_1, ..., v_m/t_m) plus T = prod t_j.

    poles holds the distinct zeros of T with multiplicities; components may be
    identically zero (they contribute no pole factors).  Pole sets of distinct
    nonzero components must be disjoint.  Every coefficient must be real and
    finite, or ValueError.

    Every root zeta of t_j must be a pole of v_j/t_j: the fraction is
    rejected as reducible when |v_j(zeta)| <= 2^-P/4 max|coeff v_j|
    max(1, |zeta|)^deg v_j.  The gate is 2^-P/4 and not the 2^-P/2 of
    poly_roots because a kappa-fold root's cluster centre has far fewer
    than P correct bits: for (z-5)/(z-5)^3 at 256 bits |v(zeta)| reads
    6e-33 relative, above 2^-128 = 3e-39.
    """

    fractions: tuple
    T: Polynomial
    poles: tuple

    def __init__(self, fractions):
        fractions = tuple(
            f if isinstance(f, RationalFn) else RationalFn(*f) for f in fractions
        )
        if not fractions:
            raise ValueError("perturbation needs one entry per system component")
        for f in fractions:
            if any(isinstance(c, mpc) or not mp.isfinite(c) for c in f.num.coeffs + f.den.coeffs):
                raise ValueError("perturbation coefficients must be real and finite")
        T = Polynomial.one()
        per_component = []
        gate = noise_floor(0.25)
        for f in fractions:
            T = T * f.den
            roots = _cluster_roots(poly_roots(f.den)) if f.den.degree >= 1 else ()
            for zeta, _ in roots:
                bound = gate * f.num.max_coeff() * max(mpf(1), abs(zeta)) ** f.num.degree
                if abs(f.num(zeta)) <= bound:
                    raise ValueError("rational fraction must be irreducible")
            per_component.append(roots)
        # poles of distinct components must not collide
        tol = noise_floor(0.125)
        for i in range(len(per_component)):
            for j in range(i + 1, len(per_component)):
                for zi, _ in per_component[i]:
                    for zj, _ in per_component[j]:
                        if abs(zi - zj) <= tol * (1 + abs(zi)):
                            raise ValueError(
                                "distinct components must have distinct poles"
                            )
        poles = tuple(p for comp in per_component for p in comp)
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "poles", poles)

    @classmethod
    def zero(cls, m: int) -> "RationalPerturbation":
        return cls([RationalFn.zero() for _ in range(m)])

    @property
    def m(self) -> int:
        return len(self.fractions)

    @property
    def degree(self) -> int:
        return self.T.degree

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.fractions)

    def validate_against(self, sys: NikishinSystem):
        """Poles must avoid the first and last support intervals."""
        if self.m != sys.m:
            raise ValueError("perturbation size does not match the system")
        clearance = noise_floor(0.25)
        for interval in (sys.intervals[0], sys.intervals[-1]):
            for zeta, _ in self.poles:
                if interval.distance_to(zeta) <= clearance:
                    raise ValueError(
                        "perturbation poles must avoid the first and last intervals"
                    )


def _cluster_roots(roots):
    """Group roots within 2^-P/8 relative into (center, multiplicity) pairs."""
    tol = noise_floor(0.125)
    clusters = []
    for z in roots:
        for idx, (center, count) in enumerate(clusters):
            if abs(z - center) <= tol * (1 + abs(center)):
                clusters[idx] = ((center * count + z) / (count + 1), count + 1)
                break
        else:
            clusters.append((z, 1))
    return tuple(clusters)


@dataclass(frozen=True)
class TypeIVector:
    """Type I solution (a_0, ..., a_m) with its achieved vanishing order.

    nullity_flag is read from the order basis that gave the vector, D being
    max n_j.  A basis row of shifted degree d <= D and its multiples by x^e,
    e <= D - d, solve the order conditions within the degree bounds.  The
    flag is True when these do not span exactly the M + 1 dimensions that
    the order deficit M leaves (at atomic degree, for instance), or when
    there are no order conditions at all.

    For M > 0 the solutions form an (M+1)-dimensional space, and the solve
    returns its member of least shifted degree in x = 1/z, which is the
    member with the most factors of z.  On the README system (32+32
    Legendre atoms, unperturbed, 256 bits), a_2(0) = 0 for M = 1..3, and
    at M = 3 the vector is z times the complete (k-1, k-1) vector, bit for
    bit but for the rounding in a_0(0).

    digits estimates the correct digits of the coefficients (unit max) as
    P log10 2 - L, P being precision_bits and L = -log10 of the least pivot
    ratio |r_piv| / sum |terms| of the order basis (see the module
    docstring).  The solve escalates a vector below DIGITS_FLOOR.
    """

    a: tuple
    n: MultiIndex
    order_target: int
    nullity_flag: bool
    precision_bits: int
    digits: float

    @property
    def m(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class TypeIIVector:
    """Type II solution (Q, P_1, ..., P_m) with per-component achieved orders.

    nullity_flag is read from the order basis that gave Q, N being |n|.  A
    basis row of shifted degree d <= N and its multiples by x^e, e <= N - d,
    solve the order conditions within the degree bounds, so the flag is True
    when these do not span exactly one solution: when no row, or more than
    one row, has shifted degree <= N, or when the one such row has degree
    below N (at atomic degree, for instance).

    digits estimates the correct digits of Q as TypeIVector.digits does,
    less one digit: against a 3P solve the type II estimate is within one
    digit, but not always low.
    """

    q: Polynomial
    p: tuple
    n: MultiIndex
    residual_orders: tuple
    nullity_flag: bool
    precision_bits: int
    digits: float

    @property
    def m(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class ReduceReport:
    """Outcome of the T-multiplication reduction of a perturbed solution; p_0 is reduced.a[0].

    max_residual and scale are check_orthogonality(sys, reduced).
    """

    reduced: TypeIVector
    max_residual: mpf
    scale: mpf


# ---------------------------------------------------------------------------
# order bases
# ---------------------------------------------------------------------------


def _order_basis(series, shifts, orders, stored=None, key=None):
    """Order basis of the polynomial row vectors p with p F = O(x^orders[j]) in column j.

    series[r][j] is the power series of F's entry (r, j), a tuple of its
    coefficients in ascending powers of x, () for zero.  This is the
    iterative sigma-basis of B. Beckermann and G. Labahn, SIAM J. Matrix
    Anal. Appl. 15 (1994) 804-823.  The basis starts as the identity with
    the shifted degrees `shifts` and takes the conditions (k, j),
    coefficient k of column j, in increasing k.  At each one it pivots on
    the live row of least shifted degree, ties going to the largest
    |residual|, eliminates the residual from the other live rows and
    multiplies the pivot row by x, whose shifted degree rises by one.  A
    row is live when its residual exceeds ORDER_BASIS_GUARD 2^-P times the
    sum of the absolute values of its terms, P being the caller's
    precision; the others already meet the condition and are left alone.
    The elimination runs at P + 64 bits and the basis is rounded back to P,
    so that the rounding of the elimination stays below that of the data.
    It runs on raw mpmath.libmp tuples, with the bits of mpf arithmetic at
    P + 64: each term is an mpf_mul, each residual and the gate's sum of
    moduli an mpf_sum as mp.fsum forms them, the ratio -r_i / r_piv an
    mpf_div and each a + c b of _axpy an mpf_mul and an mpf_add, all
    rounded to nearest at P + 64.  The series are converted once per call.
    Returns (basis, degrees, least): basis[i][r] lists the coefficients of
    component r of row i, degrees[i] bounds the shifted degree of row i,
    and least is the least ratio |r_piv| / sum |terms| over the pivots
    taken (1 when there are none), each an mpf_div at 53 bits of the two
    sums the gate forms; -log10(least) is the L of the module docstring.
    Each condition costs O(rows^2 K) for polynomials of degree K, so K
    conditions per column cost O(K^2).

    With a dict `stored`, the basis carries over from one call to the next
    under `key`, which must fix the shifts, P and every series coefficient
    the calls read.  Any orders with min(orders) >= L take the conditions
    with k < L first, so the state after them does not depend on the
    orders.  stored[key] holds one such state, (level, basis, degrees,
    least), the basis at P + 64 bits, unrounded and raw; a call whose
    min(orders) is at least level continues from it, so that least stays
    the minimum over every condition the basis has taken, and any other
    call starts from the identity.  The loop stores its state on reaching
    k = min(orders), which is its final state when the orders are equal.
    The basis is rounded to P only after the P + 64 block is left: rounding
    it inside moves the result by one ulp.
    """
    rows = len(series)
    level = min(orders)
    prec, rnd = mp.prec, round_nearest
    if stored is not None and key in stored and stored[key][0] <= level:
        start, basis, degrees, least = stored[key]
    else:
        start, degrees, least = 0, shifts, fone
        basis = [[[fone] if r == i else [] for r in range(rows)] for i in range(rows)]
    basis, degrees = list(basis), list(degrees)
    series = [[[c._mpf_ for c in f] for f in entry] for entry in series]
    gate = from_man_exp(ORDER_BASIS_GUARD, -prec)
    with mp.workprec(prec + 64):
        wide = mp.prec
        # one step past the last condition, so that k = min(orders) is reached
        for k in range(start, max(orders) + 1):
            if k == level and stored is not None:
                stored[key] = (level, tuple(basis), tuple(degrees), least)
            for j, order in enumerate(orders):
                if k >= order:
                    continue
                column = [entry[j] for entry in series]
                residuals = []
                for row in basis:
                    terms = [
                        mpf_mul(coeffs[l], f[k - l], wide, rnd)
                        for coeffs, f in zip(row, column)
                        for l in range(max(0, k - len(f) + 1), min(k + 1, len(coeffs)))
                    ]
                    acc = mpf_sum(terms, wide, rnd)
                    size = mpf_sum(terms, wide, rnd, True)
                    nonzero = mpf_gt(mpf_abs(acc), mpf_mul(gate, size, wide, rnd))
                    residuals.append((acc, size) if nonzero else None)
                live = [i for i, res in enumerate(residuals) if res is not None]
                if not live:
                    continue
                # ties go to the largest |residual|, compared exactly
                piv = min(
                    live, key=lambda i: (degrees[i], mp.make_mpf(mpf_neg(mpf_abs(residuals[i][0]))))
                )
                r_piv, size = residuals[piv]
                ratio = mpf_div(mpf_abs(r_piv), size, 53, rnd)
                if mpf_lt(ratio, least):
                    least = ratio
                pivot = basis[piv]
                for i in live:
                    if i != piv:
                        c = mpf_div(mpf_neg(residuals[i][0]), r_piv, wide, rnd)
                        basis[i] = [_axpy(a, c, b) for a, b in zip(basis[i], pivot)]
                basis[piv] = [[fzero] + coeffs if coeffs else coeffs for coeffs in pivot]
                degrees[piv] += 1
    rounded = [[[mp.make_mpf(mpf_pos(c, prec, rnd)) for c in cs] for cs in row] for row in basis]
    return rounded, degrees, mp.make_mpf(least)


def _axpy(a, c, b):
    """The raw coefficient list of a + c b, each product and sum rounded to mp.prec."""
    prec, rnd = mp.prec, round_nearest
    if len(a) < len(b):
        a = a + [fzero] * (len(b) - len(a))
    return [mpf_add(x, mpf_mul(c, y, prec, rnd), prec, rnd) for x, y in zip(a, b)] + a[len(b) :]


# ---------------------------------------------------------------------------
# type I
# ---------------------------------------------------------------------------


def solve_type1(sys: NikishinSystem, n: MultiIndex, M: int = 0) -> TypeIVector:
    """Normalized type I vector for the plain system, order target |n| - M.

    The order deficit M is an integer (an integral float is converted) of
    at least 0; anything else raises ValueError.
    """
    M = checked_int(M, "M")
    if M < 0:
        raise ValueError(f"M must be nonnegative, got {M}")
    return _escalate(lambda bits: _solve_type1_once(sys, None, n, M, bits))


def solve_type1_perturbed(
    sys: NikishinSystem, pert: RationalPerturbation, n: MultiIndex
) -> TypeIVector:
    """Type I vector for f_j = s-hat_{1,j} + r_j, full order |n|."""
    pert.validate_against(sys)
    return _escalate(lambda bits: _solve_type1_once(sys, pert, n, 0, bits))


def _escalate(solve_once):
    """solve_once(bits) from bits = mp.prec up, until its vector has DIGITS_FLOOR digits.

    Each attempt runs at its own working precision, and the next one at
    _next_bits.  The climb stops at MAX_PRECISION_BITS, or after two
    attempts in a row at or below SATURATED_DIGITS: at atomic degree the
    basis takes pivots that vanish in exact arithmetic a few bits above
    its gate, so the digits stay saturated at every precision.  A vector
    still below the floor there is returned with nullity_flag set.
    """
    bits = mp.prec
    saturated = False
    while True:
        with working_precision(bits):
            v = solve_once(bits)
        if v.digits >= DIGITS_FLOOR:
            return v
        if bits >= MAX_PRECISION_BITS or (saturated and v.digits <= SATURATED_DIGITS):
            return replace(v, nullity_flag=True)
        saturated = v.digits <= SATURATED_DIGITS
        bits = min(_next_bits(bits, v.digits), MAX_PRECISION_BITS)


def _next_bits(bits, digits):
    """The bits at which a vector of `digits` digits at `bits` bits meets DIGITS_FLOOR.

    L = bits log10 2 - digits does not depend on the bits while the
    estimate is unsaturated, so bits + (DIGITS_FLOOR + 4 - digits) log2 10,
    rounded up to a multiple of 64, gives DIGITS_FLOOR + 4 digits; at
    SATURATED_DIGITS or less L is unknown and the bits double.
    """
    if digits <= SATURATED_DIGITS:
        return 2 * bits
    step = math.ceil((DIGITS_FLOOR + 4 - digits) * math.log2(10))
    return -(-(bits + step) // 64) * 64


def _digits(bits, least):
    """bits log10 2 - L, L = -log10(least) for the order basis's least pivot ratio."""
    _, man, exp, _ = least._mpf_
    return (bits + exp) * math.log10(2) + math.log10(man)


def _type1_tails(sys, pert, n):
    """Tails of s-hat_{1,j} + r_j: tuples of K + 1 entries, K = |n| + max n_j + 4.

    Every solve, reduction and residual tail reads its tails here, so this
    is where a multi-index of the wrong size is refused.
    """
    if len(n) != sys.m:
        raise ValueError("multi-index size does not match the system")
    K = n.total + n.max_part + 4
    tails = []
    for j in range(1, len(n) + 1):
        tail = chain_tail(sys, j, K)
        if pert is not None and not pert.fractions[j - 1].is_zero:
            rational = laurent_expand_rational(pert.fractions[j - 1], K + 1)
            tail = tuple(a + b for a, b in zip(tail, rational, strict=True))
        tails.append(tail)
    return tails


def _solve_type1_once(sys, pert, n, M, bits) -> TypeIVector:
    total = n.total
    tails = _type1_tails(sys, pert, n)
    # with x = 1/z, D = max n_j and g_j = sum_k tail_j[k] x^k, so that
    # f_j = x g_j, the reversals a~_0 = x^(D-2) a_0(1/x) and
    # a~_j = x^(n_j-1) a_j(1/x) turn x^(D-1) (a_0 + sum_j a_j f_j) into
    # x a~_0 + sum_j x^(D-n_j+1) a~_j g_j, which must be O(x^(|n|-M+D-1)):
    # a row vector of shifted degree <= D against one column
    D = n.max_part
    series = [((mpf(0), mpf(1)),)] + [
        ((mpf(0),) * (D - nj + 1) + tail,) for nj, tail in zip(n, tails)
    ]
    shifts = (2,) + tuple(D - nj + 1 for nj in n)
    key = (pert, shifts, mp.prec)
    basis, degrees, least = _order_basis(series, shifts, [total - M + D - 1], sys.bases, key)
    # the solutions are the combinations of x^e row_i, e <= D - d_i
    flag = total - 1 - M <= 0 or sum(max(0, D + 1 - d) for d in degrees) != M + 1
    # a_j reverses component j of the row of least shifted degree, padded to n_j
    row = basis[min(range(len(degrees)), key=degrees.__getitem__)]
    blocks = [(c + [mpf(0)] * (nj - len(c)))[::-1] for c, nj in zip(row[1:], n)]
    blocks = _normalize_blocks(blocks)
    pairs = list(zip(blocks, tails))
    # -PolynomialPart(sum_j a_j f_j); degree at most max(n_j) - 2
    a0 = Polynomial([-acc for acc, _ in _tail_sums(pairs, range(max(D - 1, 0)))])
    a = (a0,) + tuple(Polynomial(b) for b in blocks)
    return TypeIVector(a, n, total - M, flag, bits, _digits(bits, least))


def _normalize_blocks(blocks):
    """Unit max coefficient over a_1..a_m; leading coeff of last nonzero block positive."""
    mx = max((abs(c) for b in blocks for c in b), default=mpf(0))
    if mx == 0:
        raise RuntimeError("nullspace produced the zero vector")
    blocks = [[c / mx for c in b] for b in blocks]
    tol = noise_floor(0.5)
    for b in reversed(blocks):
        lead = next((c for c in reversed(b) if abs(c) > tol), None)
        if lead is not None:
            if lead < 0:
                blocks = [[-c for c in b2] for b2 in blocks]
            break
    return blocks


def _tail_sums(pairs, es):
    """(coefficient of z^e in sum_j c_j f_j, its scale) for each e in es, yielded lazily.

    pairs holds (coeffs, tail) per component, tail being f_j's Laurent tail
    (entry k the coefficient of z^-(k+1)), so the coefficient gathers the
    terms c[l] * tail[l - e - 1], l > e: e >= 0 reads the polynomial part,
    e = -(k+1) tail entry k.  This is the one loop that forms those terms.
    The pairs are converted to raw tuples once per call, and the terms are
    added in order, (acc, scale) being the sequential sums of the terms and
    of their absolute values, each product and sum an mpf_mul or mpf_add at
    P with round_nearest, which gives the bits of mpf arithmetic.
    """
    prec, rnd = mp.prec, round_nearest
    raw = [([c._mpf_ for c in coeffs], [t._mpf_ for t in tail]) for coeffs, tail in pairs]
    for e in es:
        acc = scale = fzero
        for coeffs, tail in raw:
            for l in range(max(e + 1, 0), len(coeffs)):
                term = mpf_mul(coeffs[l], tail[l - e - 1], prec, rnd)
                acc = mpf_add(acc, term, prec, rnd)
                scale = mpf_add(scale, mpf_abs(term), prec, rnd)
        yield mp.make_mpf(acc), mp.make_mpf(scale)


def _achieved_order(pairs, upto):
    """First tail index of the remainder above 2^-P/2 of its terms, plus one (upto if none)."""
    tol = noise_floor(0.5)
    for k, (acc, scale) in enumerate(_tail_sums(pairs, range(-1, -upto - 1, -1))):
        if abs(acc) > tol * scale:
            return k + 1
    return upto


# ---------------------------------------------------------------------------
# perturbation reduction
# ---------------------------------------------------------------------------


def perturbed_reduce(
    pert: RationalPerturbation, v: TypeIVector, sys: NikishinSystem
) -> ReduceReport:
    """Multiply the perturbed order condition by T and verify the outcome.

    p_0 = T a_0 + sum_j (T/t_j) v_j a_j is a polynomial: each cofactor T/t_j
    is the product of the other components' denominators, formed as T is,
    so no division by t_j enters (for m = 2 it is t_2 or t_1 exactly).  The
    vector (p_0, T a_1, ..., T a_m) must satisfy the plain system's order
    conditions through |n| - deg T: max_residual and scale are
    check_orthogonality's of the reduced vector, read from fresh unperturbed
    tails.  The reduced vector keeps v's flag, bits and digits.
    """
    m = sys.m
    if v.m != m or pert.m != m:
        raise ValueError("component count mismatch")
    T, D = pert.T, pert.degree
    dens = [f.den for f in pert.fractions]
    p0 = T * v.a[0]
    for j, (f, a) in enumerate(zip(pert.fractions, v.a[1:])):
        if not f.is_zero:
            cofactor = math.prod(dens[:j] + dens[j + 1 :], start=Polynomial.one())
            p0 = p0 + cofactor * f.num * a

    reduced_n = MultiIndex([p + D for p in v.n])
    products = [T * a for a in v.a[1:]]
    reduced = TypeIVector(
        (p0, *products), reduced_n, v.n.total - D, v.nullity_flag, v.precision_bits, v.digits
    )
    max_residual, scale = check_orthogonality(sys, reduced)
    return ReduceReport(reduced, max_residual, scale)


# ---------------------------------------------------------------------------
# type II
# ---------------------------------------------------------------------------


def solve_type2(sys: NikishinSystem, n: MultiIndex) -> TypeIIVector:
    """Monic common denominator Q and numerators P_j, orders n_j + 1 each."""
    return _escalate(lambda bits: _solve_type2_once(sys, n, bits))


def _solve_type2_once(sys, n, bits) -> TypeIIVector:
    total = n.total
    tails = _type1_tails(sys, None, n)
    # with x = 1/z and g_j = sum_k tail_j[k] x^k, the reversed
    # Q~(x) = x^N Q(1/x) solves Q~ g_j - P~_j = O(x^(N + n_j)) with
    # deg Q~ <= N and deg P~_j <= N - 1, N = |n|: the coefficient of
    # x^(N + nu) in Q~ g_j is that of z^-(nu+1) in Q f_j
    m = len(n)
    minus_one = (mpf(-1),)
    series = [tails] + [[minus_one if i == j else () for j in range(m)] for i in range(m)]
    shifts = (0,) + (1,) * m
    orders = [total + nj for nj in n]
    basis, degrees, least = _order_basis(series, shifts, orders, sys.bases, (shifts, mp.prec))
    # the solutions of degree <= N are the combinations of x^e row_i, e <= N - d_i
    flag = sum(max(0, total + 1 - d) for d in degrees) != 1
    row = basis[min(range(m + 1), key=degrees.__getitem__)]
    qt = row[0] + [mpf(0)] * (total + 1 - len(row[0]))
    q = Polynomial(qt[::-1]).trimmed().monic()
    ps = []
    orders = []
    for j, tail in enumerate(tails):
        pairs = [(q.coeffs, tail)]
        ps.append(Polynomial([acc for acc, _ in _tail_sums(pairs, range(total))]))
        orders.append(_achieved_order(pairs, n[j] + 4))
    return TypeIIVector(q, tuple(ps), n, tuple(orders), flag, bits, _digits(bits, least) - 1)


def type2_residual_tail(sys: NikishinSystem, v: TypeIIVector, j: int):
    """Tail coefficients of Q s-hat_{1,j} - P_j, indices 0..n_j+4."""
    if not 1 <= j <= v.m:
        raise IndexError("component out of range")
    pairs = [(v.q.coeffs, _type1_tails(sys, None, v.n)[j - 1])]
    return [acc for acc, _ in _tail_sums(pairs, range(-1, -v.n[j - 1] - 6, -1))]


# ---------------------------------------------------------------------------
# remainders and orthogonality
# ---------------------------------------------------------------------------


def remainder_eval(sys: NikishinSystem, v: TypeIVector, j: int, z):
    """A_j(z) = a_j(z) + sum_{k>j} a_k(z) s-hat_{j+1,k}(z) of the plain system.

    j = m degenerates to the plain polynomial value a_m(z).  The transforms
    come from the system's table, so every solution's remainder at a point
    shares them.
    """
    m = v.m
    if not 0 <= j <= m:
        raise IndexError("remainder level out of range")
    acc = v.a[j](z)
    for k in range(j + 1, m + 1):
        acc = acc + v.a[k](z) * s_hat_eval(sys, j + 1, k, z)
    return acc


def first_level_remainder_values(sys: NikishinSystem, v: TypeIVector) -> list:
    """A_1(x_i) = remainder_eval(sys, v, 1, x_i) at sigma_1's atoms, in order, noise as 0.

    These are the only values of A_1 that sign_changes reads, and they
    alone carry its sign changes on Delta_1.  With N the vector's order
    target, sum_i p(x_i) A_1(x_i) w_i vanishes for every p of degree at most
    N - 2 (check_orthogonality tests it).  Were there k <= N - 2 sign changes
    among the A_1(x_i), the polynomial p with one zero between each pair of
    neighbouring atoms where the sign changes would have degree k and give
    every nonzero term of that sum the same sign, so A_1 changes sign at
    least N - 1 times along the atoms, and no point between them is needed
    to see it.  A perturbed solve is read through its T-reduced vector,
    a plain-system vector whose remainder is T A_1 and whose order target
    already drops deg T.  The transforms at the atoms are in the system's
    table from the build, so the values add no entry to it.  The values
    are formed on raw tuples with remainder_eval's operations, in its
    order, so they are its bits.

    A value at or below 2^-3P/4 of the sum of the |terms| a_k(x_i)
    s-hat_{2,k}(x_i) that form it (s-hat_{2,1} = 1) is rounding noise and
    is returned as an exact 0.  At atomic degree A_1 vanishes at every
    atom, and its values read at most 2^36 2^-P of that sum (4 to 16
    Legendre atoms per generator, m = 2 and 3, 128 and 256 bits).  A true
    value can be far smaller than 2^-P/2 of it: on deep-diag-m2 at k = 24
    (512 bits) the least reads 2^-264, and a gate at 2^-P/2 would drop 18
    of the 64 values and 12 of the 47 sign changes.
    """
    prec, rnd = mp.prec, round_nearest
    gate = noise_floor(0.75)._mpf_
    polys = [[c._mpf_ for c in a.coeffs] for a in v.a[1:]]
    out = []
    for x in sys.generators[0].nodes:
        t = x._mpf_
        acc = _raw_horner(polys[0], t, prec)
        size = mpf_abs(acc)
        for cs, s in zip(polys[1:], s_hat_evals(sys, 2, range(2, v.m + 1), x)):
            term = mpf_mul(_raw_horner(cs, t, prec), s._mpf_, prec, rnd)
            acc = mpf_add(acc, term, prec, rnd)
            size = mpf_add(size, mpf_abs(term), prec, rnd)
        out.append(mp.make_mpf(acc if mpf_gt(mpf_abs(acc), mpf_mul(gate, size, prec, rnd)) else fzero))
    return out


def check_orthogonality(sys: NikishinSystem, v: TypeIVector) -> Residual:
    """Moment orthogonality of the first-level remainder, from the tails.

    With N the vector's order target, the tail coefficient k of sum_j a_j
    s-hat_{1,j} is the moment sum_i x_i^k A_1(x_i) w_i sign of sigma_1, and
    it vanishes for k = 0..N-2.  Returns the largest |coefficient| over
    those k and the largest sum of the |terms| a_{j,l} tail_j[l + k] before
    cancellation, both from _tail_sums; (0, 0) when N <= 1.  A perturbed
    solve is checked through its T-reduced vector, whose remainder is T A_1
    (perturbed_reduce reports this check).  Deeper remainder levels are not
    checked.
    """
    pairs = [(a.coeffs, tail) for a, tail in zip(v.a[1:], _type1_tails(sys, None, v.n))]
    max_residual = scale = mpf(0)
    for acc, size in _tail_sums(pairs, range(-1, -v.order_target, -1)):
        max_residual = max(max_residual, abs(acc))
        scale = max(scale, size)
    return Residual(max_residual, scale)
