"""Nikishin systems: nested products of measures on alternating intervals.

build_system realizes the generators with one table of reference Gauss
rules on [-1, 1], local to the call: generators that share a family and a
node count, or whose Jacobi parameters are swapped (a reflection), compute
their rule once.  A config built again computes its rules again, so no
rule outlives the call that made it.

The product <alpha, beta> reweights alpha's atoms by the Cauchy transform of
beta, so every chain s_{a,b} = <sigma_a, ..., sigma_b> keeps sigma_a's nodes
and only changes weights and sign.  One table holds every chain, run in
either direction, and is filled eagerly at build time: the forward chains
s_{1,j} give the system's functions, and the reversed chains s_{m,j} are
the limit targets of the ratio asymptotics and live on the last interval.

Two residual checks act as the correctness oracles for the tables: the
alternating cross-product identity linking forward and reversed transforms,
and the ratio identity expressing s-hat_{1,k}/s-hat_{1,1} through the inverse
measure of sigma_1, which it computes once per call; each k's z-independent
product measure is built once for all the points.

Every product first checks that the two node sets stay apart; the smallest
node gap comes from one merge of the two sorted node lists.

Every package evaluation of a chain transform goes through s_hat_eval, which
fills the system's table s_hat of transform values.  A value is keyed by
the chain (a, b), the point as cauchy_eval converts it (`_mpf_` of a real
point, `_mpc_` of a complex one) and mp.prec, and is exactly what
cauchy_eval returns, so the identity checks, the ratio targets and the
remainders of every solution share each s-hat_{a,b}(z).  The table lives
as long as the system object and grows by one entry per new (chain, point,
precision), with no limit: the system run_experiment builds goes at the end
of the run, and so does its table, but a caller that keeps a system from
build_system and evaluates it on ever new points keeps every value.  A
module-level memo would outlive the run and keep every value of every run
alive.

The solvers read the moments of each forward chain s_{1,j} from a second
table on the system, tails, which hermite_pade fills: one tuple per
(j, mp.prec), recomputed to the larger order when a solve asks for more
entries than it holds and read as a prefix otherwise.  Entry k of a moment
tuple does not depend on its length, so every solve gets the bits a fresh
moments call would give.  Like s_hat it lives as long as the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .measures import (
    AtomicMeasure,
    MeasureSpec,
    cauchy_eval,
    inverse_measure,
    realize,
)
from .precision import checked_bits, noise_floor, working_precision


@dataclass(frozen=True)
class SystemSpec:
    """Generator descriptions, first interval to last, and the working
    precision in bits (>= 64) that build_system realizes them at."""

    measures: tuple
    precision_bits: int

    def __init__(self, measures, precision_bits):
        measures = tuple(measures)
        if not measures:
            raise ValueError("a system needs at least one generator")
        if not all(isinstance(s, MeasureSpec) for s in measures):
            raise TypeError("SystemSpec takes MeasureSpec entries")
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "precision_bits", checked_bits(precision_bits))

    @property
    def m(self) -> int:
        return len(self.measures)


@dataclass(frozen=True)
class NikishinSystem:
    """Generators plus the eagerly built chain table.

    chains[(a, b)] = s_{a,b} = <sigma_a, ..., sigma_b> on sigma_a's nodes,
    for 1 <= a, b <= m: forward when a < b, reversed when a > b, and
    sigma_a itself when a == b.  intervals are the generators' supports,
    derived on each access.  s_hat is s_hat_eval's table of transform
    values and tails the solvers' table of chain moments: neither is a
    constructor argument, and both are left out of equality and repr.
    """

    generators: tuple
    chains: dict
    s_hat: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    tails: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.generators)

    @property
    def intervals(self) -> tuple:
        return tuple(g.support for g in self.generators)

    def chain(self, a: int, b: int) -> AtomicMeasure:
        """The measure s_{a,b}."""
        for j in (a, b):
            if not 1 <= j <= self.m:
                raise IndexError(f"chain index {j} outside 1..{self.m}")
        return self.chains[(a, b)]

    @property
    def outer_radius(self) -> mpf:
        return max(g.outer_radius for g in self.generators)


def product_measure(alpha: AtomicMeasure, beta: AtomicMeasure) -> AtomicMeasure:
    """<alpha, beta>: alpha's atoms reweighted by |beta-hat|, sign adjusted.

    beta-hat has one sign on all of alpha's support (the supports are disjoint
    or touch at a single point), so the result keeps constant sign.
    """
    _check_separation(alpha, beta)
    values = [cauchy_eval(beta, x) for x in alpha.nodes]
    first_positive = values[0] > 0
    if any((v > 0) != first_positive for v in values) or any(v == 0 for v in values):
        raise ValueError("supports overlap")
    sign = alpha.sign * (1 if first_positive else -1)
    return AtomicMeasure(
        alpha.nodes,
        [w * abs(v) for w, v in zip(alpha.weights, values)],
        sign,
        alpha.support,
    )


def _check_separation(alpha: AtomicMeasure, beta: AtomicMeasure):
    overlap_tol = noise_floor(0.5)
    touching = (
        alpha.support.b == beta.support.a or beta.support.b == alpha.support.a
    )
    min_gap = min(_cross_gaps(alpha.nodes, beta.nodes))
    if min_gap <= overlap_tol:
        raise ValueError("supports overlap")
    if touching and min_gap <= noise_floor(0.25):
        raise ValueError("node gap across the interval junction is below 2^-P/4")


def _cross_gaps(xs, ys):
    """|x - y| for the pairs a merge of the increasing xs and ys visits.

    The closest pair is adjacent in the merged order and rounding is
    monotone, so the minimum of these equals the minimum over all pairs
    bit for bit.
    """
    i = j = 0
    while i < len(xs) and j < len(ys):
        yield abs(xs[i] - ys[j])
        if xs[i] < ys[j]:
            i += 1
        else:
            j += 1


def build_system(spec: SystemSpec) -> NikishinSystem:
    """Realize the generators and fill the chain table at spec.precision_bits.

    The generators share one table of reference Gauss rules (see realize),
    local to this call: a config parsed again builds its rules again.
    """
    rules = {}
    with working_precision(spec.precision_bits):
        return system_from_generators([realize(s, rules) for s in spec.measures])


def system_from_generators(generators) -> NikishinSystem:
    generators = tuple(generators)
    m = len(generators)
    for j in range(m - 1):
        a, b = generators[j].support, generators[j + 1].support
        lo, hi = (a, b) if a.a <= b.a else (b, a)
        if hi.a < lo.b:
            raise ValueError(
                f"intervals {j + 1} and {j + 2} overlap; consecutive supports "
                "must be disjoint or share a single endpoint"
            )
        if hi.a == lo.b:
            junction = hi.a
            if any(x == junction for x in generators[j].nodes) or any(
                x == junction for x in generators[j + 1].nodes
            ):
                raise ValueError("shared interval endpoint must be node-free")

    # s_{a,b} = <sigma_a, s_{c,b}>, c being one step from a toward b: every
    # chain of length d + 1 from the chains of length d
    chains = {(a, a): g for a, g in enumerate(generators, start=1)}
    for d in range(1, m):
        for a in range(1, m + 1):
            for b in (a - d, a + d):
                if 1 <= b <= m:
                    c = a + (1 if b > a else -1)
                    chains[(a, b)] = product_measure(generators[a - 1], chains[(c, b)])
    return NikishinSystem(generators, chains)


def s_hat_eval(sys: NikishinSystem, j: int, k: int, z):
    """Cauchy transform of the chain s_{j,k} at z, evaluated once per key.

    The value is stored in sys.s_hat under (j, k, point, mp.prec), the point
    being z as cauchy_eval converts it: `_mpf_` for a real point, `_mpc_`
    for a complex one, so x and mpc(x, 0) are separate entries.  A stored
    value is the one cauchy_eval returned, so a lookup changes no bit.  A
    point on the chain's support raises and stores nothing.  Nothing is
    ever dropped: the table grows with each new point and lives as long as
    sys does.
    """
    z = mpc(z) if isinstance(z, (complex, mpc)) else mpf(z)
    key = (j, k, z._mpc_ if isinstance(z, mpc) else z._mpf_, mp.prec)
    value = sys.s_hat.get(key)
    if value is None:
        value = sys.s_hat[key] = cauchy_eval(sys.chain(j, k), z)
    return value


class Residual(NamedTuple):
    """A check's largest residual and the scale it is judged against.

    The identity checks return one per point, check_orthogonality one per
    vector; ReduceReport carries the same two fields.
    """

    max_residual: mpf
    scale: mpf


def check_chain_identity(sys: NikishinSystem, j: int, z) -> Residual:
    """Residual of the alternating identity tying reversed to forward chains.

    For j in 0..m-1 the combination
        (-1)^(m-j) s-hat_{m,j+1} + sum_{k=j+1}^{m-1} (-1)^(m-k) s-hat_{m,k+1} s-hat_{j+1,k}
        + s-hat_{j+1,m}
    vanishes identically off the supports; the returned scale is the largest
    term magnitude, for tolerance checks at 2^-P/2 * scale.
    """
    m = sys.m
    if not 0 <= j <= m - 1:
        raise IndexError(f"level {j} outside 0..{m - 1}")
    z = mpc(z)
    terms = [(-1) ** (m - j) * s_hat_eval(sys, m, j + 1, z)]
    for k in range(j + 1, m):
        terms.append(
            (-1) ** (m - k) * s_hat_eval(sys, m, k + 1, z) * s_hat_eval(sys, j + 1, k, z)
        )
    terms.append(s_hat_eval(sys, j + 1, m, z))
    residual = abs(mp.fsum(terms))
    scale = max(abs(t) for t in terms)
    return Residual(residual, scale)


def check_ratio_identity(sys: NikishinSystem, points) -> list:
    """Residuals of s-hat_{1,k}/s-hat_{1,1} = mass ratio - <tau_11, <s_{2,k}, sigma_1>>-hat.

    One Residual per (k, point), k = 2..m outer and `points` inner (none
    when m = 1).  The constant is the signed mass ratio
    c_0(s_{1,k})/c_0(s_{1,1}).  tau = inverse_measure(sigma_1) is computed
    once per call and the z-independent <tau_11, <s_{2,k}, sigma_1>> once
    per k; a single-atom sigma_1 has an empty tau and a zero bracket.  The
    chain transforms come from the system's table; the bracket's measure is
    not a chain and is evaluated directly.
    """
    sigma1 = sys.generators[0]
    _, tau = inverse_measure(sigma1)
    points = [mpc(z) for z in points]
    out = []
    for k in range(2, sys.m + 1):
        mass_ratio = sys.chain(1, k).total_mass / sigma1.total_mass
        outer = None
        if tau is not None:
            outer = product_measure(tau, product_measure(sys.chain(2, k), sigma1))
        for z in points:
            lhs = s_hat_eval(sys, 1, k, z) / s_hat_eval(sys, 1, 1, z)
            bracket = mpc(0) if outer is None else cauchy_eval(outer, z)
            residual = abs(lhs - mass_ratio + bracket)
            scale = max(abs(lhs), abs(mass_ratio), abs(bracket))
            out.append(Residual(residual, scale))
    return out
