"""Signed atomic measures on bounded intervals and their Cauchy transforms.

Generating measures are either given atom lists or Gauss-type discretizations
of Legendre/Jacobi densities; after realization every measure is a finite
point-mass measure treated as exact, so every integral downstream is a finite
sum evaluated to solver precision.  Every number is finite by construction:
Interval refuses a non-finite endpoint, AtomicMeasure a non-finite node or
weight, and MeasureSpec a non-finite alpha, beta or density_scale, each by
ValueError, so no kernel below carries an infinity or a nan.

The module also constructs the inverse measure tau of a measure sigma,
i.e. the atomic measure with 1/sigma-hat = ell + tau-hat for a degree-one
ell.  tau's atoms, the zeros of sigma-hat in the gaps between sigma's
atoms, come from one safeguarded Newton on the open gap,
_newton_in_bracket, run in Python floats for the start and then at P+64
bits.  The same Newton polishes the Gauss-Jacobi nodes, each in a
bracket around its float64 seed.

Every Cauchy sum runs through one pass, _cauchy_pass, on Python integers.
The point and the atoms become integers at their least exponent, so every
difference z - x, its square and a^2 + (Im z)^2 (a = Re z - x) is exact;
each atom takes one reciprocal, truncated toward zero to P + 32 bits, and
each weight row one exact integer sum of its products, rounded once to P;
a measure converts its weights to integers once (weight_row) and keeps
them.  The conversion to integers, _integers, raises ValueError on an
infinity or a nan, so a non-finite point, either part of it, raises there.
A sum is then within 2^-(P+32) sum_i |w_i / (z - x_i)| + half an ulp of
the exact sum over the atoms, the bound _cauchy_pass derives, and z-bar
gives the exact conjugate of z's value.  The point is coerced by
algebra.to_scalar, the package's one scalar coercion.
Measures on one node set (the chains s_{a,b} of one a) share the
reciprocals: cauchy_evals evaluates them at a point in one pass,
cauchy_eval is its one-measure case, and _gap_root takes mu-hat and its
derivative at one point from one pass.
The moments come from one loop as well, _moment_rows, which also hands
back the power row w_i x_i^k that continues them.

The Gauss rules' three-term recurrence, its slope's and the Christoffel
sums run on fixed-point integers with 32 guard bits, one floor shift per
step, on the scaled monic polynomials q_k = 2^k p_k; _newton_nodes and
_christoffel_weights derive their error bounds, which keep each node and
weight far inside 2^-(P+32) of its P + 64-bit value, so that its
rounding to P moves only where that value lies so close to a rounding
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter, mul
from types import SimpleNamespace
from typing import Optional

from mpmath import fp, mp, mpc, mpf
from mpmath.libmp import (
    from_man_exp,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sum,
    round_nearest,
    to_fixed,
)
from mpmath.matrices.eigen_symmetric import tridiag_eigen

from .algebra import Polynomial, to_scalar
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

    Nodes and weights are finite, and weights strictly positive; the
    measure's sign is the separate flag, so the signed mass at node i is
    sign * weights[i].  weight_row, the row the Cauchy pass reads, is
    formed on first use and kept.
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
        if not all(map(mp.isfinite, nodes + weights)):
            raise ValueError("nodes and weights must be finite")
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

    @cached_property
    def weight_row(self) -> tuple:
        """_integer_row(self.weights), the row _cauchy_pass reads, formed once per measure."""
        return _integer_row(self.weights)

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
    node_count is an integer of at least 1 (an integral float is converted),
    alpha and beta are finite and exceed -1, and density_scale is finite
    and nonzero; anything else raises ValueError.  An atoms spec's nodes
    and weights are checked where realize builds the AtomicMeasure.
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
            if not all(mp.isfinite(p) and p > -1 for p in (mpf(self.alpha), mpf(self.beta))):
                raise ValueError("jacobi parameters must be finite and > -1")
        scale = mpf(self.density_scale)
        if not (mp.isfinite(scale) and scale != 0):
            raise ValueError("density_scale must be finite and nonzero")


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

    Newton's step p_n / p_n' and the Christoffel sums run on fixed-point
    integers at 2^-(prec+32), on the scaled monic polynomials q_k = 2^k p_k
    (_newton_nodes): one floor shift per recurrence step, not one rounding
    per operation, so the prec-bit nodes and weights are not those of an
    mpf loop at prec bit for bit.  _newton_nodes and _christoffel_weights
    bound their error: on every rule the tests sweep, they add less than
    2^-(prec+1) to a node's relative error and 2^-(prec-6) to a weight's.
    Rounded to P, a node or weight can differ from the rounding of the
    exact value only where that lies within such a distance of a rounding
    boundary.

    Weights are the Christoffel numbers 1 / sum_k p_k(x_i)^2 over the
    orthonormal polynomials below degree n, summed from the prec nodes
    and rounded to P, except under (-1/2, -1/2), where every weight is
    pi/n, bit for bit the sums on every rule of that sweep.  The other two
    families keep the sums: their closed-form weights are correctly rounded
    but sit one ulp from the sums in a few atoms, and so would move atoms
    that every earlier rule of these families had.

    Newton stops after applying a step s with
    |s| <= 2^(-floor(prec/2)-8) / n^2 * (1+|x|), or raises RuntimeError
    after 80 steps without one.  Its next error would be
    about C s^2 with C = |p_n''/2p_n'| = |sum_{j!=i} 1/(x_i-x_j)|; node gaps
    are of order 1/n^2 or wider, so C < n^4 and that error is below
    2^(-prec-16).  Under a symmetric weight (alpha == beta) every a_k is
    0, so p_k(-x) = (-1)^k p_k(x), and the closed forms have
    cos(pi - t) = -cos(t).  The kernels' floor shifts are not symmetric
    about 0, so they never run on the upper half: only the lower n // 2
    nodes and their weights are computed, an odd rule's middle node is
    exactly 0, and the upper half is the lower one negated in reverse
    order, with equal weights.
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

    _newton_in_bracket from each float64 eigenvalue of the Jacobi matrix
    (G. H. Golub and J. H. Welsch, Math. Comp. 23, 1969); see
    gauss_jacobi_rule.  A node's bracket runs from the midpoint with the
    seed below to the midpoint with the seed above, -1 and 1 at the ends,
    and f is +-q_n, the sign chosen so that f falls through the node; each
    step is q_n / q_n' = p_n / p_n'.

    f runs the recurrence of the scaled monic q_k = 2^k p_k (W. Gautschi,
    Orthogonal Polynomials: Computation and Approximation, OUP 2004, sec.
    1.3), which stay of moderate size on [-1, 1]:
        q_{k+1}  = (2x - 2a_k) q_k - 4b_k q_{k-1},
        q'_{k+1} = 2q_k + (2x - 2a_k) q'_k - 4b_k q'_{k-1},
    on integers at 2^-S, S = prec + 32 + z, z >= 0 the zero bits that
    lead |x| < 2^-z, so that an error in units of 2^-S is one relative to
    |x| for a node near 0 too (near-symmetric weights have one there):
    2a_k and 4b_k are cut toward -inf to 2^-S once per S, and each step
    takes one floor shift by S.

    The error, in units of 2^-S.  2x is exact, a prec-bit x having no bit
    below 2^-(S+1); let q_k be the exact polynomials at x.  2a_k and 4b_k
    are exact when they have no bit below 2^-S, as a P-bit value of size
    2^-95 or more has: every b_k, and every a_k but one within 2^-95 of
    0, where the cut adds less than |Q_k| to the step's error.  Otherwise
    each step's floor adds an error in (-1, 0] to Q_{k+1}, which the
    recurrence itself carries on:
        Q_n - q_n = sum_{k<n} e_k u_{k,n}(x),  |e_k| < 1,
    where u_{k,.} solves the recurrence from u_{k,k} = 0, u_{k,k+1} = 1,
    the scaled monic associated polynomial of degree n-k-1, with its
    zeros in (-1, 1) as well.  With M the largest |q_k| and |u_{j,k}| at
    x (j < k <= n),
        |Q_n - q_n| < n M,    |Q'_n - q'_n| < n M (1 + 2n M),
    the second because 2Q_k, off by less than 2kM, forces Q' too.  Near a
    root the second only scales Newton's step, below tol at the last one,
    by a relative error of that size over |q_n'|.  At a node x_i, the
    error e added to Q_{k+1} moves the root as moving a_k by
    -e / (2q_k(x_i)) moves the eigenvalue x_i of the Jacobi matrix: by
    that times the squared component w_i q_k(x_i)^2 R_k of its unit
    eigenvector (w_i the weight, R_k as in _christoffel_weights).  So, to
    first order, the root of Q_n is within
        1/2 + 1/2 sum_{k<n} w_i |q_k(x_i)| R_k <= 1/2 + sqrt(w_i sum_{k<n} R_k) / 2
    of x_i, by Cauchy-Schwarz with sum_k w_i q_k(x_i)^2 R_k = 1.  Over
    n <= 80 and the (alpha, beta) of the tests, (40, 0) and (10, 30)
    among them, the middle term stays below 2^30 (1/2 at Legendre): with
    |x_i| >= 2^-(z+1), the root of Q_n is within 2^-(prec+1) |x_i| of
    x_i, to which Newton's stop and the rounding to prec add their
    2^-(prec+16) and half an ulp.
    """
    seeds = [float(a) for a in diag]  # sorted eigenvalues on return
    tridiag_eigen(_FLOAT_QL, seeds, [math.sqrt(b) for b in offsq[1:n]] + [0.0])
    ends = [mpf(-1)] + [mpf((a + b) / 2) for a, b in zip(seeds, seeds[1:])] + [mpf(1)]
    tol = mpf(2) ** (-(mp.prec // 2) - 8) / n**2
    prec, coefficients = mp.prec, [(a._mpf_, b._mpf_) for a, b in zip(diag, offsq[:n])]
    tables = {}  # S -> the integer (2a_k, 4b_k) at 2^-S
    nodes = []
    for i, x0 in enumerate(seeds[:count]):
        # the monic p_n is positive beyond its largest node and changes
        # sign at each node: it rises through node i (ascending, from 0)
        # when n - i is odd
        sign = 1 if (n - i) % 2 == 0 else -1

        def f_and_slope(x):
            x = x._mpf_
            s = prec + 32 + max(0, -x[2] - x[3])
            if s not in tables:
                tables[s] = [(to_fixed(a, s + 1), to_fixed(b, s + 2)) for a, b in coefficients]
            steps, x2 = tables[s], to_fixed(x, s + 1)
            q_prev, q, dq_prev, dq = 0, 1 << s, 0, 0
            for c, d in steps:
                t = x2 - c
                q_prev, q, dq_prev, dq = q, (t * q - d * q_prev) >> s, dq, 2 * q + ((t * dq - d * dq_prev) >> s)
            return mp.make_mpf(from_man_exp(sign * q, -s)), mp.make_mpf(from_man_exp(sign * dq, -s))

        x = _newton_in_bracket(f_and_slope, ends[i], ends[i + 1], mpf(x0), tol, 80)
        if x is None:
            raise RuntimeError("quadrature node failed to converge; raise precision")
        nodes.append(x)
    return nodes


def _christoffel_weights(nodes, n: int, diag, offsq, mu0) -> list:
    """1 / sum_k p_k(x)^2 over the orthonormal p_0..p_{n-1}, at each x of nodes.

    The orthonormal p_k(x)^2 is q_k(x)^2 R_k, with _newton_nodes' scaled
    monic q_k and R_k = 1 / (4^k mu0 b_1 ... b_k), which does not depend
    on x (W. Gautschi, op. cit., sec. 3.1).  Each R_k is formed once per
    rule, R_k = R_{k-1} / 4b_k rounded to S = prec + 32 bits, and kept as
    an exact integer at 2^-T, T the largest of 0 and their negated
    exponents, so that a small R_k (a large q_k, under a large alpha or
    beta) keeps its bits.  At each node _newton_nodes' integer recurrence
    gives q_1..q_{n-1} at 2^-S, the sum of q_k^2 R_k is exact, and the
    weight is one division, rounded to prec.

    The error.  Q_k - q_k is less than A_k = sum_{j<k} |u_{j,k}(x)| <= kM
    units of 2^-S (_newton_nodes; x is cut to 2^-(S+1) only when
    |x| < 2^-31, which moves the weight by less than |w'| 2^-(S+1)), and
    R_k is within (k+1) 2^-S of its value, relative.  As
    sum_k w q_k(x)^2 R_k = 1 for the weight w at x, the sum is within
        2^-S (2 sum_{k<n} w |q_k(x)| R_k A_k + n + 1)
    of its value, relative and to first order, and the weight within that
    plus half an ulp at prec.  Over the rules of _newton_nodes' sweep the
    bracket stays below 2^38 (2^9 at Legendre), so a weight is within
    2^-(prec-6) of the Christoffel number at its node, relative.
    """
    prec, rnd = mp.prec, round_nearest
    s = prec + 32
    ratios = [mpf_rdiv_int(1, mu0._mpf_, s, rnd)]
    for b in offsq[1:n]:
        ratios.append(mpf_div(ratios[-1], mpf_shift(b._mpf_, 2), s, rnd))
    t = max(0, -min(r[2] for r in ratios))
    ratios = [to_fixed(r, t) for r in ratios]
    steps = [(to_fixed(a._mpf_, s + 1), to_fixed(b._mpf_, s + 2)) for a, b in zip(diag, offsq[: n - 1])]
    weights = []
    for x in nodes:
        x2 = to_fixed(x._mpf_, s + 1)
        q_prev, q = 0, 1 << s
        total = ratios[0] << 2 * s
        for (c, d), r in zip(steps, ratios[1:]):
            q_prev, q = q, ((x2 - c) * q - d * q_prev) >> s
            total += q * q * r
        weights.append(mp.make_mpf(mpf_rdiv_int(1, from_man_exp(total, -2 * s - t), prec, rnd)))
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


# guard bits of the Cauchy pass's reciprocals: each term is off by less than
# 2^-(P + CAUCHY_GUARD) of its modulus (see _cauchy_pass)
CAUCHY_GUARD = 32
_EXPONENT = itemgetter(2)  # of a raw mpf


def _cauchy_pass(nodes, rows, z, exponents=(1,)):
    """sum_i w_i / (z - x_i)**e for each exponent e and weight row, each rounded once to P = mp.prec.

    One pass over the atoms serves every weight row in rows (measures on
    one node set) and every exponent e in exponents (1 or 2); z is an mpf
    or an mpc, and an mpc takes exponents (1,) only.  Each row is an
    _integer_row pair, as AtomicMeasure.weight_row keeps it.  Returns
    sums[e][r]: a raw mpf for a real z and a raw (re, im) pair for a
    complex one.

    The sums come from integers in three steps.
    - Per point: z (its real part) and the atoms become integers at their
      least exponent, so each D_i = z - x_i (A_i = Re z - x_i) is exact,
      and so is M_i = A_i^2 + (Im z)^2.
    - Per exponent: one reciprocal per atom, R_i = 2^s / q_i truncated
      toward zero, q_i being D_i, D_i^2 or M_i, with s = P + g + the
      largest bit length among the q_i, so that every |R_i| > 2^(P+g).
    - Per row: the weights, as integers at the row's least exponent
      (formed once per measure, not per pass), give the exact sum of the
      products w_i R_i (for a complex z, of w_i A_i R_i, and of w_i R_i
      times -Im z), rounded once to P, to nearest.
    Error bound: truncation leaves |R_i 2^-s - 1/q_i| < 2^-s < 2^-(P+g)
    / |q_i|, so each term, w_i / D_i**e, w_i A_i / M_i or -Im z w_i / M_i,
    is off by less than 2^-(P+g) of its modulus; the sum adds no error,
    and the last rounding half an ulp at P:
        |computed - exact| < 2^-(P+g) sum_i |term_i| + ulp / 2,
    so within (N + 1) 2^-(P+g) sum_i |term_i| + ulp / 2 for N atoms.  The
    former pass, each term rounded to P and the terms summed exactly, was
    bounded by 2^-P sum_i |term_i| + ulp / 2.  g is CAUCHY_GUARD.
    Truncation toward zero and rounding to nearest are odd, the exact sums
    do not depend on the atoms' order, and Im z enters only as the last
    factor, so z-bar gives the exact conjugate of z's sums and -z over
    mirrored atoms their exact negatives; analysis.convergence_row's one
    point per conjugate pair relies on the first.
    A zero q_i (z on an atom) raises ZeroDivisionError.  Both parts of z
    and the atoms pass through _integers, so an infinite or nan one raises
    ValueError; the weight rows were checked when they were formed.
    """
    prec = mp.prec
    if isinstance(z, mpc):
        if exponents != (1,):
            raise ValueError("a complex point takes exponent 1 only")
        point = z._mpc_
    else:
        point = (z._mpf_,)
    xs = [x._mpf_ for x in nodes]
    exp = min(map(_EXPONENT, (point[0], *xs)))
    ints = _integers((point[0], *xs), exp)
    bits = prec + CAUCHY_GUARD
    re = ints[0]
    differences = [re - x for x in ints[1:]]
    if len(point) == 1:
        out = []
        for e in exponents:
            divisors = differences if e == 1 else [d * d for d in differences]
            s = bits + max(map(abs, divisors)).bit_length()
            recips = _reciprocals(s, divisors)
            shift = -s - e * exp
            out.append([from_man_exp(sum(map(mul, ws, recips)), low + shift, prec, round_nearest) for ws, low in rows])
        return out
    _, iman, iexp, _ = point[1]
    (im,) = _integers(point[1:], iexp)
    # M_i = A_i^2 + (Im z)^2 as an integer at 2^low
    low = min(2 * exp, 2 * iexp) if iman else 2 * exp
    im2 = iman * iman << 2 * iexp - low if iman else 0
    norms = [(a * a << 2 * exp - low) + im2 for a in differences]
    s = bits + max(norms).bit_length()
    recips = _reciprocals(s, norms)
    real = list(map(mul, differences, recips))
    return [
        [
            (
                from_man_exp(sum(map(mul, ws, real)), wlow + exp - s - low, prec, round_nearest),
                from_man_exp(-im * sum(map(mul, ws, recips)), wlow + iexp - s - low, prec, round_nearest),
            )
            for ws, wlow in rows
        ]
    ]


def _integers(values, exp) -> list:
    """Raw mpf values as integers at 2^exp, exp at most each one's exponent.

    The package's one check of a computed raw value: an infinity or a nan
    (a zero mantissa with a nonzero exponent) raises ValueError.
    """
    if any(not m and e for _, m, e, _ in values):
        raise ValueError("a value is not finite")
    return [(-(m << e - exp) if s else m << e - exp) if m else 0 for s, m, e, _ in values]


def _integer_row(values) -> tuple:
    """(the mpf values as integers at 2^low, low), low their least exponent (0 for no values).

    A non-finite value raises ValueError, as _integers does.
    """
    raw = [v._mpf_ for v in values]
    low = min(map(_EXPONENT, raw), default=0)
    return _integers(raw, low), low


def _reciprocals(s, divisors) -> list:
    """2^s / q for each q of divisors, truncated toward zero; ZeroDivisionError at a zero q."""
    one = 1 << s
    return [one // q if q > 0 else -(one // -q) for q in divisors]


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
    z = to_scalar(z)
    first = mus[0]
    if any(mu.nodes != first.nodes or mu.support != first.support for mu in mus[1:]):
        raise ValueError("cauchy_evals needs measures on one node set")
    if on_support(first, z):
        raise ValueError("evaluation on support")
    (sums,) = _cauchy_pass(first.nodes, [mu.weight_row for mu in mus], z)
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
    z = to_scalar(z)
    ((raw,),) = _cauchy_pass(mu.nodes, [mu.weight_row], z, (2,))
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
        (raw,), (raw2,) = _cauchy_pass(mu.nodes, [mu.weight_row], t, (1, 2))
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
