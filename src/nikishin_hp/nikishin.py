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
Building s_{a,b} = <sigma_a, s_{c,b}> evaluates s-hat_{c,b} at sigma_a's
atoms; the chains s_{c,b} of one c share sigma_c's atoms, so one
measures.cauchy_evals pass per atom of sigma_a serves all of them.

Two residual checks act as the correctness oracles for the tables: the
alternating cross-product identity linking forward and reversed transforms,
and the ratio identity expressing s-hat_{1,k}/s-hat_{1,1} through the inverse
measure of sigma_1, which it computes once per call; each k's z-independent
product measure is built once for all the points, from the sigma_1-hat
values at sigma_2's atoms that the build stored.

Every product first checks that the two node sets stay apart; the smallest
node gap comes from one merge of the two sorted node lists.

Every chain transform value enters the system's table s_hat once,
whatever asks for it first.  _key keys a value by the chain (a, b), the
point as cauchy_eval converts it (`_mpf_` of a real point, `_mpc_` of a
complex one) and mp.prec, and the value is exactly what cauchy_eval
returns.  The build stores every s-hat_{c,b}(x) it evaluates at an atom
x of sigma_a, at the build's precision; s_hat_eval adds one value, and
s_hat_evals the missing values of several chains s_{a,b} of one a at a
point, from one pass over sigma_a's atoms.  So the identity checks, the
ratio targets and the remainders of every solution share each
s-hat_{a,b}(z), and the orthogonality and sign-change remainders at
sigma_1's atoms read the values the build computed.  The table lives as
long as the system object: it starts with the build's values, one per
atom of each of the m(m-1) products, and grows by one entry per new
(chain, point, precision), with no limit.  The system run_experiment
builds goes at the end of the run, and so does its table, but a caller
that keeps a system from build_system and evaluates it on ever new
points keeps every value.  A module-level memo would outlive the run and
keep every value of every run alive.

The solvers read the moments of each forward chain s_{1,j} from a second
table on the system, tails, through chain_tail (see NikishinSystem).  Like
s_hat it lives as long as the system, and this module is the only one that
reads or writes either table.  The third table, bases, holds the solvers'
order bases; hermite_pade alone reads and writes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .measures import (
    AtomicMeasure,
    MeasureSpec,
    _moment_rows,
    _point,
    # cauchy_eval is unused here; benchmark/spans.py still patches nikishin.cauchy_eval
    cauchy_eval,  # noqa: F401
    cauchy_evals,
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
    derived on each access.  s_hat is the table of transform values (see
    the module docstring), filled by system_from_generators and
    s_hat_evals.  tails holds, per (j, mp.prec), the moments of s_{1,j}
    computed so far and the raw power row w_i x_i^K that continues them, K
    being their count; chain_tail fills and reads it.  bases holds, per
    series and precision, the last order basis a solve reached, which the
    next solve continues (see hermite_pade); one state per key, so it does
    not grow with a sweep.  No table is a constructor argument, and all
    three are left out of equality and repr.
    """

    generators: tuple
    chains: dict
    s_hat: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    tails: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    bases: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    or touch at a single point), so the result keeps constant sign.  The
    one-beta case of _products.
    """
    return _products(alpha, (beta,))[0][0]


def _products(alpha: AtomicMeasure, betas) -> tuple:
    """([<alpha, beta> for beta in betas], [beta-hat at alpha's atoms for beta in betas]).

    The betas share one node set and support (the chains s_{c,b} of one c
    do), so one separation check and one cauchy_evals pass per atom of
    alpha serve them all; each value has the bits cauchy_eval gives.
    """
    _check_separation(alpha, betas[0])
    columns = [list(c) for c in zip(*(cauchy_evals(betas, x) for x in alpha.nodes))]
    return [_reweighted(alpha, column) for column in columns], columns


def _reweighted(alpha: AtomicMeasure, values) -> AtomicMeasure:
    """alpha's atoms with each weight times |value|: <alpha, beta> from beta-hat at alpha's atoms."""
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
    lo, hi = alpha.support.gap(beta.support)
    min_gap = min(_cross_gaps(alpha.nodes, beta.nodes))
    if min_gap <= overlap_tol:
        raise ValueError("supports overlap")
    if lo == hi and min_gap <= noise_floor(0.25):
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
        lo, hi = generators[j].support.gap(generators[j + 1].support)
        if hi < lo:
            raise ValueError(
                f"intervals {j + 1} and {j + 2} overlap; consecutive supports "
                "must be disjoint or share a single endpoint"
            )
        if lo == hi:
            if any(x == hi for x in generators[j].nodes) or any(
                x == hi for x in generators[j + 1].nodes
            ):
                raise ValueError("shared interval endpoint must be node-free")

    # s_{a,b} = <sigma_a, s_{c,b}>, c being one step from a toward b.  The
    # chains s_{c,b} of one c share sigma_c's atoms, so one pass per atom of
    # sigma_a evaluates them all; the forward chains are filled from the
    # last a down, the reversed ones from the first a up
    chains = {(a, a): g for a, g in enumerate(generators, start=1)}
    sys = NikishinSystem(generators, chains)

    def fill(a, c, bs):
        alpha = generators[a - 1]
        products, columns = _products(alpha, [chains[(c, b)] for b in bs])
        for b, product, column in zip(bs, products, columns):
            chains[(a, b)] = product
            sys.s_hat.update((_key(c, b, x), v) for x, v in zip(alpha.nodes, column))

    for a in range(m - 1, 0, -1):
        fill(a, a + 1, range(a + 1, m + 1))
    for a in range(2, m + 1):
        fill(a, a - 1, range(1, a))
    return sys


def _key(a: int, b: int, z) -> tuple:
    """The s_hat key of s-hat_{a,b}(z): the chain, z as cauchy_eval converts it, and mp.prec."""
    z = _point(z)
    return (a, b, z._mpc_ if isinstance(z, mpc) else z._mpf_, mp.prec)


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
    return s_hat_evals(sys, j, (k,), z)[0]


def s_hat_evals(sys: NikishinSystem, a: int, bs, z) -> list:
    """[s_hat_eval(sys, a, b, z) for b in bs], the missing values from one pass.

    The chains s_{a,b} all live on sigma_a's atoms, so the values the table
    lacks come from one cauchy_evals pass, with the bits cauchy_eval gives.
    """
    keys = [_key(a, b, z) for b in bs]
    missing = [key for key in keys if key not in sys.s_hat]
    if missing:
        found = cauchy_evals([sys.chain(a, key[1]) for key in missing], z)
        sys.s_hat.update(zip(missing, found))
    return [sys.s_hat[key] for key in keys]


def chain_tail(sys: NikishinSystem, j: int, K: int) -> tuple:
    """moments(sys.chain(1, j), K), read from the system's table of tails.

    sys.tails holds, per (j, mp.prec), the moments computed so far and the
    power row that continues them.  A K beyond the stored moments computes
    only the new ones, from that row, through the moment loop of moments
    itself; any other K reads a prefix.  Entry k of a moment tuple does not
    depend on K, so either way the bits are those of a direct moments call.
    """
    prec = mp.prec
    chain = sys.chain(1, j)
    tail, row = sys.tails.get((j, prec), ((), None))
    if len(tail) <= K:
        if row is None:
            row = [w._mpf_ for w in chain.weights]
        more, row = _moment_rows(chain, row, K + 1 - len(tail))
        tail += more
        sys.tails[(j, prec)] = (tail, row)
    return tail[: K + 1]


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
    # from_m[i] = s-hat_{m,j+1+i} and from_j[i] = s-hat_{j+1,j+1+i}, one pass each
    from_m = s_hat_evals(sys, m, range(j + 1, m + 1), z)
    from_j = s_hat_evals(sys, j + 1, range(j + 1, m + 1), z)
    terms = [(-1) ** (m - j) * from_m[0]]
    for k in range(j + 1, m):
        terms.append((-1) ** (m - k) * from_m[k - j] * from_j[k - j - 1])
    terms.append(from_j[-1])
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
    chain transforms come from the system's table, and <s_{2,k}, sigma_1>
    reweights s_{2,k} by the sigma_1-hat values at sigma_2's atoms that the
    build stored when it formed s_{2,1}.  The brackets' measures are not
    chains; all m - 1 live on tau's atoms, so one cauchy_evals pass per
    point evaluates them, each with the bits cauchy_eval gives.  A point
    where sigma_1-hat vanishes raises ValueError before the division (see
    refuse_sigma1_hat_zeros).
    """
    sigma1 = sys.generators[0]
    _, tau = inverse_measure(sigma1)
    points = [mpc(z) for z in points]
    ks = range(2, sys.m + 1)
    # s-hat_{1,1..m} at each point, from one pass over sigma_1's atoms
    forward = [s_hat_evals(sys, 1, range(1, sys.m + 1), z) for z in points] if ks else []
    refuse_sigma1_hat_zeros(sys, points)
    if tau is not None and ks:
        at_sigma2 = [s_hat_eval(sys, 1, 1, x) for x in sys.generators[1].nodes]
        outers = [product_measure(tau, _reweighted(sys.chain(2, k), at_sigma2)) for k in ks]
        # the outer measures all live on tau's atoms: one pass per point
        brackets = [cauchy_evals(outers, z) for z in points]
    else:
        brackets = [[mpc(0)] * len(ks) for _ in points]
    out = []
    for i, k in enumerate(ks):
        mass_ratio = sys.chain(1, k).total_mass / sigma1.total_mass
        for s, at_z in zip(forward, brackets):
            lhs = s[k - 1] / s[0]
            bracket = at_z[i]
            residual = abs(lhs - mass_ratio + bracket)
            scale = max(abs(lhs), abs(mass_ratio), abs(bracket))
            out.append(Residual(residual, scale))
    return out


def refuse_sigma1_hat_zeros(sys: NikishinSystem, points):
    """Raise ValueError at a point where sigma_1-hat vanishes against its terms.

    check_ratio_identity divides by sigma_1-hat, whose zeros lie between
    sigma_1's atoms (at 0, by symmetry, for a rule on [-1, 1]).  A point z
    is refused when |sigma_1-hat(z)| <= 2^-P/2 * sum_i w_i / |z - x_i|.
    The sum is at most ||sigma_1|| / dist(z, Delta_1), so it is formed only
    where |sigma_1-hat(z)| * dist(z, Delta_1) is at most 2 * 2^-P/2 *
    ||sigma_1|| (the factor 2 absorbs rounding), on Delta_1 included:
    elsewhere, as at every point of a default grid, the answer is the same
    without it.  When m = 1 the identity has no division and nothing is
    refused.
    """
    if sys.m == 1:
        return
    sigma1, tol = sys.generators[0], noise_floor(0.5)
    bound = 2 * tol * sigma1.total_variation
    for z in points:
        value = abs(s_hat_eval(sys, 1, 1, z))
        if value * sigma1.support.distance_to(z) > bound:
            continue
        scale = mp.fsum(w / abs(z - x) for x, w in zip(sigma1.nodes, sigma1.weights))
        if value <= tol * scale:
            raise ValueError(
                f"sigma_1-hat vanishes at {mp.nstr(z, 8)}, where the ratio identity divides by it"
            )
