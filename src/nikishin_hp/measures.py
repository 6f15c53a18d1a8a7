"""Signed atomic measures on bounded intervals and their Cauchy transforms.

Generating measures are either given atom lists or Gauss-type discretizations
of Legendre/Jacobi densities; after realization every measure is a finite
point-mass measure treated as exact, so every integral downstream is a finite
sum evaluated to solver precision.  The module also constructs the inverse
measure tau of a measure sigma, i.e. the atomic measure with 1/sigma-hat
= ell + tau-hat for a degree-one ell.  tau's atoms, the zeros of sigma-hat
in the gaps between sigma's atoms, come from one safeguarded Newton on the
open gap, _newton_in_bracket, run in Python floats for the start and then
at P+64 bits.  The same Newton polishes the Gauss-Jacobi nodes, each in a
bracket around its float64 seed.

Every Cauchy sum runs through one pass, _cauchy_pass, on raw mpmath.libmp
tuples, and gives bit for bit what sign * mp.fsum(w / (z - x) for ...) (and
w / (z - x)**2 for the derivative, at a real z only) gives at the working
precision P, without the mpf and mpc objects.
A real z costs one subtraction per atom, d = z - x rounded to P (and d^2
rounded to P for the derivative).  A complex z costs, per atom, a = Re z -
x and m = a^2 + (Im z)^2, rounded to P + 10 bits as mpmath's mpc_mpf_div
rounds it.  Measures on one node set (the chains s_{a,b} of one a) share
these divisors: cauchy_evals evaluates them at a point in one pass,
cauchy_eval is its one-measure case, and _gap_root takes mu-hat and its
derivative at one point from one pass.  Each term then costs one integer
division: its exact quotient, w / d or a w / m or -Im z w / m, is rounded
once to P bits, to nearest with ties to even.  That is the value mpf_div
returns, since mpf_div rounds correctly and the correctly rounded quotient
is unique.  Each row of terms is summed exactly in one integer by
mpf_sum's own rules, in atom order (a term more than 2P bits above the
sum replaces it and one more than 2P bits below it is dropped), and
rounded once to P, so the sum has the bits of mpf_sum at P.
The moments come from one loop as well, _moment_rows, which also hands
back the power row w_i x_i^k that continues them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

from mpmath import fp, mp, mpc, mpf
from mpmath.libmp import (
    fone,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow_int,
    mpf_sub,
    mpf_sum,
    round_nearest,
)
from mpmath.matrices.eigen_symmetric import tridiag_eigen

from .algebra import Polynomial
from .precision import checked_int, noise_floor

VALID_KINDS = ("atoms", "legendre-density", "jacobi-density")

# the attributes tridiag_eigen reads, for float64 (mpmath.fp has no hypot)
_FLOAT_QL = SimpleNamespace(dps=fp.dps, eps=fp.eps, hypot=math.hypot)


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [a, b], a < b strictly.

    gap is the one place that orders two intervals: every check of the
    Nikishin hypothesis (consecutive supports disjoint or sharing one
    endpoint) and the default grid's gap segment read it.
    """

    a: mpf
    b: mpf

    def __init__(self, a, b):
        object.__setattr__(self, "a", mpf(a))
        object.__setattr__(self, "b", mpf(b))
        if not (mp.isfinite(self.a) and mp.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    def contains(self, x) -> bool:
        return self.a <= x <= self.b

    @property
    def length(self) -> mpf:
        return self.b - self.a

    def gap(self, other: "Interval") -> tuple:
        """(end of the left interval, start of the right one), the left one
        being the one with the smaller left endpoint (self on a tie).

        For (lo, hi) = a.gap(b): lo < hi when the intervals are apart,
        lo == hi when they share one point, and hi < lo when they overlap
        (a.gap(a) included).
        """
        left, right = (self, other) if self.a <= other.a else (other, self)
        return left.b, right.a

    def distance_to(self, z) -> mpf:
        """Distance from a complex point to the interval (as a subset of R)."""
        z = mpc(z)
        dx = max(self.a - z.real, mpf(0), z.real - self.b)
        return mp.hypot(dx, z.imag)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite point-mass measure of constant sign.

    Weights are strictly positive; the measure's sign is the separate flag, so
    the signed mass at node i is sign * weights[i].
    """

    nodes: tuple
    weights: tuple
    sign: int
    support: Interval

    def __init__(self, nodes, weights, sign, support):
        nodes = tuple(mpf(x) for x in nodes)
        weights = tuple(mpf(w) for w in weights)
        if len(nodes) == 0:
            raise ValueError("measure needs at least one node")
        if len(nodes) != len(weights):
            raise ValueError("nodes and weights length mismatch")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be strictly positive")
        if any(nodes[i] >= nodes[i + 1] for i in range(len(nodes) - 1)):
            raise ValueError("nodes must be strictly increasing")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not (support.contains(nodes[0]) and support.contains(nodes[-1])):
            raise ValueError("nodes outside the support interval")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sign", int(sign))
        object.__setattr__(self, "support", support)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def total_mass(self) -> mpf:
        """Signed mass, the leading moment c_0."""
        return self.sign * mp.fsum(self.weights)

    @property
    def total_variation(self) -> mpf:
        return mp.fsum(self.weights)

    @property
    def outer_radius(self) -> mpf:
        return max(abs(self.nodes[0]), abs(self.nodes[-1]))

    def scaled(self, factor) -> "AtomicMeasure":
        """Same atoms with every weight multiplied by factor > 0."""
        factor = mpf(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure(self.nodes, [w * factor for w in self.weights], self.sign, self.support)


@dataclass
class MeasureSpec:
    """Ingestion description of one generating measure.

    kind "atoms" carries explicit node/weight lists; the density kinds are
    discretized by an n-point Gauss rule of the family at realization time,
    scaled by density_scale (whose sign becomes the measure's sign).  Their
    node_count is an integer of at least 1 (an integral float is converted);
    anything else raises ValueError.
    """

    kind: str
    interval: Interval
    node_count: int = 0
    nodes: tuple = ()
    weights: tuple = ()
    sign: int = 1
    alpha: Optional[mpf] = None
    beta: Optional[mpf] = None
    density_scale: mpf = field(default_factory=lambda: mpf(1))

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "atoms":
            if not self.nodes:
                raise ValueError("atoms kind requires explicit nodes")
        else:
            self.node_count = checked_int(self.node_count, "node_count")
            if self.node_count < 1:
                raise ValueError("node_count must be >= 1")
        if self.kind == "jacobi-density":
            if self.alpha is None or self.beta is None:
                raise ValueError("jacobi-density requires alpha and beta")
            if not (mpf(self.alpha) > -1 and mpf(self.beta) > -1):
                raise ValueError("jacobi parameters must exceed -1")
        if mpf(self.density_scale) == 0:
            raise ValueError("density_scale must be nonzero")


def realize(spec: MeasureSpec, rules: Optional[dict] = None) -> AtomicMeasure:
    """Materialize a MeasureSpec as an exact atomic measure.

    A density kind maps the n-point Gauss rule of its family on [-1, 1]
    affinely onto spec.interval and scales its weights.  That reference
    rule does not depend on the interval, so a caller realizing several
    specs can pass one dict `rules`, which holds each rule under
    (n, alpha, beta, mp.prec) and computes it once; build_system keeps one
    for the length of a call.  A spec with beta < alpha takes the
    (beta, alpha) rule reflected, nodes negated in reverse order and
    weights reversed, by P_k^(alpha,beta)(-x) = (-1)^k P_k^(beta,alpha)(x)
    (Szegő, Orthogonal Polynomials, eq. 4.1.3).  _jacobi_recurrence forms
    its coefficients in an order that does not depend on which parameter
    is which, so the reflection has the bits of the direct
    gauss_jacobi_rule(n, alpha, beta).
    """
    if spec.kind == "atoms":
        return AtomicMeasure(spec.nodes, spec.weights, spec.sign, spec.interval)
    if spec.kind == "legendre-density":
        alpha = beta = mpf(0)
    else:
        alpha, beta = mpf(spec.alpha), mpf(spec.beta)
    reflect = beta < alpha
    a, b = (beta, alpha) if reflect else (alpha, beta)
    key = (spec.node_count, a, b, mp.prec)
    rules = {} if rules is None else rules
    if key not in rules:
        rules[key] = gauss_jacobi_rule(spec.node_count, a, b)
    xs, ws = rules[key]
    if reflect:
        xs, ws = [-x for x in reversed(xs)], ws[::-1]
    half = spec.interval.length / 2
    center = (spec.interval.a + spec.interval.b) / 2
    scale = abs(mpf(spec.density_scale)) * half ** (alpha + beta + 1)
    sign = 1 if mpf(spec.density_scale) > 0 else -1
    return AtomicMeasure(
        [center + half * x for x in xs],
        [scale * w for w in ws],
        sign,
        spec.interval,
    )


def gauss_jacobi_rule(n: int, alpha, beta):
    """n-point Gauss rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Nodes are computed at prec = P+64 bits and rounded to P.  Three
    Chebyshev families have them in closed form (J. C. Mason and
    D. C. Handscomb, Chebyshev Polynomials, 2003, ch. 8), the i-th largest
    of n being
        cos((2i-1) pi / 2n)       for (alpha, beta) = (-1/2, -1/2),
        cos(i pi / (n+1))         for (1/2, 1/2),
        cos((2i-1) pi / (2n+1))   for (-1/2, 1/2),
    each taken by mp.cospi of the rational rounded to prec; (1/2, -1/2)
    reaches the last through realize's reflection.  Every other
    (alpha, beta) takes _newton_nodes: float64 seeds, the eigenvalues of the
    Jacobi matrix by mpmath's implicit QL (EISPACK imtql2) run on Python
    floats, each polished at prec by _newton_in_bracket, the gap roots'
    Newton, in a bracket around its seed.  On the three families the two
    give the same P-bit nodes, for n = 1..80 at 64 to 1024 bits.

    Weights are the Christoffel numbers 1 / sum_k p_k(x_i)^2 over the
    orthonormal polynomials below degree n, summed at prec from the prec
    nodes and rounded to P, except under (-1/2, -1/2), where every weight
    is pi/n, bit for bit the sums on every rule of that sweep.  The other two
    families keep the sums: their closed-form weights are correctly rounded
    but sit one ulp from the sums in a few atoms, and so would move atoms
    that every earlier rule of these families had.

    Newton stops after applying a step s with
    |s| <= 2^(-floor(prec/2)-8) / n^2 * (1+|x|), or raises RuntimeError
    after 80 steps without one.  Its next error would be
    about C s^2 with C = |p_n''/2p_n'| = |sum_{j!=i} 1/(x_i-x_j)|; node gaps
    are of order 1/n^2 or wider, so C < n^4 and that error is below
    2^(-prec-16).  Under a symmetric weight (alpha == beta) every diag[k] is
    exactly 0 and round-to-nearest is symmetric, so p_k(-x) = (-1)^k p_k(x)
    exactly (and the closed forms have cos(pi - t) = -cos(t)): only the
    lower n // 2 nodes are computed, an odd rule's middle node is exactly 0,
    and the upper half is the lower one negated in reverse order, with
    equal weights.
    """
    if n < 1:
        raise ValueError("rule needs at least one node")
    alpha, beta = mpf(alpha), mpf(beta)
    diag, offsq, mu0 = _jacobi_recurrence(n, alpha, beta)
    symmetric = alpha == beta
    half = n // 2 if symmetric else n
    angle = _COSINE_NODES.get((alpha, beta))
    first_kind = (alpha, beta) == (-0.5, -0.5)
    with mp.workprec(mp.prec + 64):
        if angle is None:
            nodes = _newton_nodes(n, diag, offsq, half)
        else:
            # ascending: the largest angles first
            nodes = [mp.cospi(angle(n, i)) for i in range(n, n - half, -1)]
        if symmetric and n % 2:
            nodes.append(mpf(0))
        if not first_kind:
            weights = _christoffel_weights(nodes, n, diag, offsq, mu0)
    nodes = [mpf(x) for x in nodes]
    weights = [mp.pi / n] * len(nodes) if first_kind else [mpf(w) for w in weights]
    if symmetric:
        nodes += [-x for x in nodes[:half][::-1]]
        weights += weights[:half][::-1]
    if any(nodes[i] >= nodes[i + 1] for i in range(n - 1)):
        raise RuntimeError("quadrature nodes failed to separate; raise precision")
    return nodes, weights


# (alpha, beta) -> t(n, i), the i-th largest of n nodes being cos(pi t),
# t rounded to the working precision; see gauss_jacobi_rule
_COSINE_NODES = {
    (-0.5, -0.5): lambda n, i: mpf(2 * i - 1) / (2 * n),
    (0.5, 0.5): lambda n, i: mpf(i) / (n + 1),
    (-0.5, 0.5): lambda n, i: mpf(2 * i - 1) / (2 * n + 1),
}


def _newton_nodes(n: int, diag, offsq, count: int) -> list:
    """The lowest count nodes of the recurrence's n-point rule, at the working precision.

    _newton_in_bracket from each float64 eigenvalue of the Jacobi matrix;
    see gauss_jacobi_rule.  A node's bracket runs from the midpoint with
    the seed below to the midpoint with the seed above, -1 and 1 at the
    ends, and f is +-p_n, the sign chosen so that f falls through the
    node; negation is exact, so each step is p_n/p_n'.
    """
    seeds = [float(a) for a in diag]  # sorted eigenvalues on return
    tridiag_eigen(_FLOAT_QL, seeds, [math.sqrt(b) for b in offsq[1:n]] + [0.0])
    ends = [mpf(-1)] + [mpf((a + b) / 2) for a, b in zip(seeds, seeds[1:])] + [mpf(1)]
    tol = mpf(2) ** (-(mp.prec // 2) - 8) / n**2
    nodes = []
    for i, x0 in enumerate(seeds[:count]):
        # the monic p_n is positive beyond its largest node and changes
        # sign at each node: it rises through node i (ascending, from 0)
        # when n - i is odd
        sign = 1 if (n - i) % 2 == 0 else -1

        def f_and_slope(x):
            p_prev, p = mpf(0), mpf(1)
            dp_prev, dp = mpf(0), mpf(0)
            for k in range(n):
                p_prev, p, dp_prev, dp = (
                    p,
                    (x - diag[k]) * p - offsq[k] * p_prev,
                    dp,
                    p + (x - diag[k]) * dp - offsq[k] * dp_prev,
                )
            return (p, dp) if sign > 0 else (-p, -dp)

        x = _newton_in_bracket(f_and_slope, ends[i], ends[i + 1], mpf(x0), tol, 80)
        if x is None:
            raise RuntimeError("quadrature node failed to converge; raise precision")
        nodes.append(x)
    return nodes


def _christoffel_weights(nodes, n: int, diag, offsq, mu0) -> list:
    """1 / sum_k p_k(x)^2 over the orthonormal p_0..p_{n-1}, at each x of nodes."""
    weights = []
    for x in nodes:
        # orthonormal p_k(x)^2 accumulated through the monic recurrence
        total = 1 / mu0
        prev, cur = mpf(0), mpf(1)
        norm = mu0
        for k in range(1, n):
            prev, cur = cur, (x - diag[k - 1]) * cur - offsq[k - 1] * prev
            norm *= offsq[k]
            total += cur * cur / norm
        weights.append(1 / total)
    return weights


def _jacobi_recurrence(n: int, alpha, beta):
    """Monic three-term recurrence data: diag a_k, offdiag b_k (b_0 := mu0).

    The products that hold both parameters take the smaller one first, so
    swapping alpha and beta negates diag and keeps offsq and mu0, bit for
    bit; realize's reflection relies on that.
    """
    ab = alpha + beta
    lo, hi = min(alpha, beta), max(alpha, beta)
    diag = []
    offsq = [mpf(0)] * (n + 1)
    mu0 = 2 ** (ab + 1) * mp.gamma(lo + 1) * mp.gamma(hi + 1) / mp.gamma(ab + 2)
    offsq[0] = mu0
    for k in range(n):
        if k == 0:
            diag.append((beta - alpha) / (ab + 2))
        else:
            diag.append((beta**2 - alpha**2) / ((2 * k + ab) * (2 * k + ab + 2)))
        if k + 1 == 1:
            offsq[1] = 4 * (1 + lo) * (1 + hi) / ((2 + ab) ** 2 * (3 + ab))
        else:
            kk = mpf(k + 1)
            offsq[k + 1] = (
                4 * kk * (kk + lo) * (kk + hi) * (kk + ab)
                / ((2 * kk + ab) ** 2 * (2 * kk + ab + 1) * (2 * kk + ab - 1))
            )
    return diag, offsq, mu0


def moments(mu: AtomicMeasure, K: int) -> tuple:
    """Moments c_0..c_K, mu-hat's tail: a tuple whose entry k is the coefficient of z^-(k+1)."""
    if K < 0:
        raise ValueError("moment order must be nonnegative")
    return _moment_rows(mu, [w._mpf_ for w in mu.weights], K + 1)[0]


def _moment_rows(mu: AtomicMeasure, row, count: int):
    """The moment loop: `count` moments from the power row, and the row after them.

    row holds w_i x_i^k as raw mpf, the row of moment c_k; each moment is
    sign * mp.fsum(row) and each next row the products row_i * x_i, both
    rounded to P as mpmath rounds them.  Returns (moments c_k..c_{k+count-1}
    as a tuple of mpf, the raw row of c_{k+count}), so a caller that keeps
    the row continues the moments with the bits of one longer moments call.
    """
    prec, rnd = mp.prec, round_nearest
    xs = [x._mpf_ for x in mu.nodes]
    out = []
    for _ in range(count):
        out.append(mp.make_mpf(mpf_mul_int(mpf_sum(row, prec, rnd), mu.sign, prec, rnd)))
        row = [mpf_mul(p, x, prec, rnd) for p, x in zip(row, xs)]
    return tuple(out), row


def _point(z):
    """z as the Cauchy sums take it: mpc for a complex point, mpf otherwise, at P."""
    return mpc(z) if isinstance(z, (complex, mpc)) else mpf(z)


def _cauchy_pass(nodes, rows, z, exponents=(1,)):
    """Raw mp.fsum(w / (z - x)**e for x, w in zip(nodes, row)), per exponent and row.

    One pass over the atoms serves every weight row in rows (measures on
    one node set) and every exponent e in exponents (1 or 2); z is an mpf
    or an mpc at P, and an mpc takes exponents (1,) only.  Returns
    sums[e][r]: a raw mpf for a real z and a raw (re, im) pair for a
    complex one.  The divisors are mpmath's own: for a real z, d = z - x
    rounded to P and, for e = 2, d**2 rounded to P.  For a complex z, with
    a = Re z - x and s = Im z, m = a^2 + s^2 is rounded to P + 10 bits by
    libmp's default rounding, and the term is (a w / m, -s w / m), as
    mpc_mpf_div forms it.  The divisors do not depend on the weights, so
    the measures share them.  _quotient_sum forms each part of each row:
    every term is its exact quotient rounded once to P, the correctly
    rounded value that mpf_div returns too, and the terms are summed
    exactly in one integer under mpf_sum's replace and drop rules, then
    rounded once to P, so each part has the bits of mpf_sum at P.
    """
    prec, rnd = mp.prec, round_nearest
    rows = [[w._mpf_ for w in row] for row in rows]
    if isinstance(z, mpc):
        if exponents != (1,):
            raise ValueError("a complex point takes exponent 1 only")
        re, im = z._mpc_
        im2 = mpf_mul(im, im)
        minus_im = mpf_neg(im)
        wide = prec + 10
        real_parts, imag_parts = [], []
        for x in nodes:
            a = mpf_sub(re, x._mpf_, prec, rnd)
            m = mpf_add(mpf_mul(a, a), im2, wide)
            real_parts.append(_divisor(a, m))
            imag_parts.append(_divisor(minus_im, m))
        return [
            [(_quotient_sum(row, real_parts, prec), _quotient_sum(row, imag_parts, prec)) for row in rows]
        ]
    t = z._mpf_
    divisors = [[] for _ in exponents]
    for x in nodes:
        d = mpf_sub(t, x._mpf_, prec, rnd)
        for e, column in zip(exponents, divisors):
            column.append(_divisor(fone, d if e == 1 else mpf_pow_int(d, e, prec, rnd)))
    return [[_quotient_sum(row, column, prec) for row in rows] for column in divisors]


def _divisor(f, d) -> tuple:
    """The atom entry of _quotient_sum for terms f w / d: (sign, f's mantissa,
    exponent of f over d, d's mantissa, d's bit count, f, d)."""
    fsign, fman, fexp, _ = f
    dsign, dman, dexp, dbc = d
    return fsign ^ dsign, fman, fexp - dexp, dman, dbc, f, d


def _quotient_sum(row, divisors, prec):
    """Raw mpf_sum([mpf_div(mpf_mul(f, w), d, prec) for ...], prec), w from row, f and d per atom.

    Each quotient rounds the exact f w / d to P bits once: one divmod
    gives a quotient q of P + 1 or P + 2 bits, and its bits below the
    P-th, with the remainder as a sticky bit, round q to nearest, ties to
    even.  mpf_div rounds its own quotient, of at least P + 4 bits, with a
    sticky bit too; both give the correctly rounded quotient, which is
    unique, so the bits are the same.  Trailing zeros are stripped, as
    normalize strips them, so that each term enters the sum with the
    exponent and bit count mpf_sum reads.  The terms, in atom order, go
    into one running integer man * 2^exp by mpf_sum's own rules: from man
    = exp = 0, a term more than 2P bits above the sum replaces it, one
    more than 2P bits below it is dropped (or taken when the sum is 0),
    and any other is added exactly.  The sum is rounded once, by
    from_man_exp at P.  A zero term is skipped, and a term with a zero or
    non-finite factor is mpf_div's own, which raises ZeroDivisionError on
    a zero divisor and gives 0, an infinity or nan otherwise; the last
    two make the sum mpf_sum's infinity or nan.
    """
    rnd = round_nearest
    limit = 2 * prec
    man = exp = 0
    special = None
    for (wsign, wman, wexp, wbc), (sign, fman, shift, dman, dbc, f, d) in zip(row, divisors):
        if not (wman and fman and dman):
            term = mpf_div(mpf_mul(f, (wsign, wman, wexp, wbc)), d, prec, rnd)
            if term[2]:  # an infinity or nan; a zero is skipped
                special = mpf_add(special or fzero, term, 1)
            continue
        num = wman * fman
        s = prec + 1 + dbc - num.bit_length()
        q, r = divmod(num << s, dman) if s >= 0 else divmod(num, dman << -s)
        # q has P + k bits, k being 1 or 2: top ends in the rounding bit,
        # and q & (k - 1) is the bit below it, if any
        k = q.bit_length() - prec
        top = q >> (k - 1)
        if top & 1 and (top & 2 or r or q & (k - 1)):
            xman = (top >> 1) + 1
        else:
            xman = top >> 1
        xexp = wexp + shift - s + k
        if not xman & 1:
            zeros = (xman & -xman).bit_length() - 1
            xman >>= zeros
            xexp += zeros
        if wsign ^ sign:
            xman = -xman
        delta = xexp - exp
        if delta >= 0:
            if delta > limit and (not man or delta - man.bit_length() > limit):
                man, exp = xman, xexp
            else:
                man += xman << delta
        elif -delta - xman.bit_length() > limit:
            if not man:
                man, exp = xman, xexp
        else:
            man = (man << -delta) + xman
            exp = xexp
    if special:
        return special
    return from_man_exp(man, exp, prec, rnd)


def _signed(raw, sign: int):
    """sign * value for a raw sum of _cauchy_pass, as mpmath multiplies by an int."""
    prec, rnd = mp.prec, round_nearest
    if isinstance(raw[0], tuple):
        re, im = raw
        return mp.make_mpc((mpf_mul_int(re, sign, prec, rnd), mpf_mul_int(im, sign, prec, rnd)))
    return mp.make_mpf(mpf_mul_int(raw, sign, prec, rnd))


def on_support(mu: AtomicMeasure, z) -> bool:
    """Whether z, an mpf or an mpc, lies within the noise floor tol of an atom of mu.

    This is the one on-support test: cauchy_evals raises where it holds,
    and analysis.EvalGrid keeps a point only where it fails for every
    generator.  The atoms lie in mu.support = [a, b], so the per-atom test
    only runs when |Im z| <= 2 tol and Re z is at most 2 tol outside
    [a, b] (the factor 2 absorbs rounding): a point outside that box is
    farther than tol from every atom, so real comparisons rule it out
    before any complex arithmetic, and the answer is that of the per-atom
    test alone at every point.
    """
    re, im = (z.real, abs(z.imag)) if isinstance(z, mpc) else (z, 0)
    tol = noise_floor(0.5)
    gate = 2 * tol
    return (
        im <= gate
        and mu.support.a - re <= gate
        and re - mu.support.b <= gate
        and any(abs(z - x) <= tol for x in mu.nodes)
    )


def cauchy_evals(mus, z) -> list:
    """Cauchy transforms sign * sum_i w_i / (z - x_i) of measures on one node set, from one pass.

    The measures must share their nodes and support (the chains s_{a,b} of
    one a do); each value has the bits cauchy_eval gives.  Raises
    ValueError("evaluation on support") where on_support(first measure, z)
    holds.
    """
    z = _point(z)
    first = mus[0]
    if any(mu.nodes != first.nodes or mu.support != first.support for mu in mus[1:]):
        raise ValueError("cauchy_evals needs measures on one node set")
    if on_support(first, z):
        raise ValueError("evaluation on support")
    (sums,) = _cauchy_pass(first.nodes, [mu.weights for mu in mus], z)
    return [_signed(raw, mu.sign) for raw, mu in zip(sums, mus)]


def cauchy_eval(mu: AtomicMeasure, z):
    """Cauchy transform sign * sum_i w_i / (z - x_i); errors on the support.

    "On the support" means within the noise floor of an atom (see
    on_support).  The one-measure case of cauchy_evals.
    """
    return cauchy_evals((mu,), z)[0]


def cauchy_derivative(mu: AtomicMeasure, z):
    """d/dz of the Cauchy transform at a real point z: -sign * sum_i w_i / (z - x_i)^2.

    A complex z raises ValueError.
    """
    z = _point(z)
    ((raw,),) = _cauchy_pass(mu.nodes, [mu.weights], z, (2,))
    return _signed(raw, -mu.sign)


def inverse_measure(mu: AtomicMeasure):
    """Split 1/mu-hat into a linear part and an atomic tail: 1/mu-hat = ell + tau-hat.

    ell(z) = z/c_0 - c_1/c_0^2; tau's nodes are the zeros of mu-hat (one per
    gap between consecutive nodes, interlacing), its weights the moduli of the
    residues 1/mu-hat'(y) there, all of one shared sign.  A single-atom measure
    has an empty tau (returned as None).

    Returns (ell: Polynomial, tau: AtomicMeasure or None).
    """
    c = moments(mu, 1)
    c0, c1 = c[0], c[1]
    ell = Polynomial([-c1 / c0**2, 1 / c0])
    if mu.node_count == 1:
        return ell, None

    with mp.workprec(mp.prec + 64):
        roots = [_gap_root(mu, i) for i in range(mu.node_count - 1)]
        residues = [1 / cauchy_derivative(mu, y) for y in roots]
    if any(r == 0 for r in residues):
        raise RuntimeError("inverse measure construction failed; raise precision")
    res_sign = 1 if residues[0] > 0 else -1
    if any((r > 0) != (res_sign > 0) for r in residues):
        raise RuntimeError("inverse measure construction failed; raise precision")
    tau = AtomicMeasure(roots, [abs(r) for r in residues], res_sign, mu.support)
    return ell, tau


def _gap_root(mu: AtomicMeasure, i: int) -> mpf:
    """Unique zero of mu-hat in the open gap (x_i, x_{i+1}).

    _newton_in_bracket on the gap itself, where the sign-stripped mu-hat
    runs from +inf to -inf.  It starts from the float64 root of
    _float_gap_root when that lies strictly inside the gap, and from the
    gap's midpoint otherwise (float64 cannot place a root that sits closer
    to an atom than its rounding, nor weights beyond its range).  The root
    may lie far closer to one atom than to the other (lopsided weights);
    the midpoint steps then close in on it.  A root the loop cannot
    resolve raises RuntimeError: an iterate that lands on an atom, no
    convergence, or a root within tol (1 + |x|) of an atom.
    """
    lo, hi = mu.nodes[i], mu.nodes[i + 1]

    def f_and_slope(t):
        """mu-hat and its derivative at t, sign stripped, from one pass."""
        (raw,), (raw2,) = _cauchy_pass(mu.nodes, [mu.weights], t, (1, 2))
        return mp.make_mpf(raw), -mp.make_mpf(raw2)

    start = _float_gap_root(mu, i)
    x = mpf(start) if start is not None and lo < start < hi else (lo + hi) / 2
    tol = mpf(2) ** (-mp.prec + 8)
    try:
        x = _newton_in_bracket(f_and_slope, lo, hi, x, tol, 2 * mp.prec)
    except ZeroDivisionError:
        x = None
    if x is None or min(x - lo, hi - x) <= tol * (1 + abs(x)):
        raise RuntimeError("inverse measure construction failed; raise precision")
    return x


def _float_gap_root(mu: AtomicMeasure, i: int) -> Optional[float]:
    """A float64 zero of mu-hat in the gap (x_i, x_{i+1}), or None.

    _newton_in_bracket in Python floats on the float gap, from its
    midpoint.  Returns None when a value leaves the float range, an
    iterate hits an atom, no step settles, or the result does not lie
    strictly inside the float gap (so a root it returns is finite): when
    the root lies closer to an atom than float64 resolves, the midpoint
    steps shrink the bracket onto that atom and the caller falls back to
    its own start.
    """
    xs = [float(x) for x in mu.nodes]
    ws = [float(w) for w in mu.weights]
    a, b = xs[i], xs[i + 1]

    def f_and_slope(t):
        fx = math.fsum(w / (t - x) for x, w in zip(xs, ws))
        return fx, -math.fsum(w / (t - x) ** 2 for x, w in zip(xs, ws))

    try:
        x = _newton_in_bracket(f_and_slope, a, b, (a + b) / 2, 2.0**-50, 200)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    return x if x is not None and a < x < b else None


def _newton_in_bracket(f_and_slope, a, b, x, tol, steps):
    """Safeguarded Newton for the zero of f in [a, b], where f runs from + to -.

    Works on Python floats and on mpf alike.  f_and_slope(x) gives f(x) and
    f'(x).  Each iterate x replaces a or b by the sign of f(x), so the
    bracket keeps the root, and a step that would leave the bracket is
    replaced by one to its midpoint.  Returns x after a step s with
    |s| <= tol (1 + |x|), or None after `steps` iterations.
    """
    for _ in range(steps):
        fx, slope = f_and_slope(x)
        if fx > 0:
            a = x
        else:
            b = x
        step = fx / slope
        nxt = x - step
        # inclusive: the last, sub-ulp Newton step may land on a or b
        if not a <= nxt <= b:
            step = x - (a + b) / 2
            nxt = x - step
        x = nxt
        if abs(step) <= tol * (1 + abs(x)):
            return x
    return None
