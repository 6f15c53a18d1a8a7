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
sum_j c_j f_j, in its polynomial part (a_0, the P_j) or at infinity (the
achieved orders, the reduction residual, type2_residual_tail), comes from
one helper, _laurent_coeff.

One escalation driver, _escalate, serves both solvers: it doubles the
precision (up to 4096 bits) while the achieved vanishing order falls short of
the target.  That is the only trigger, and the order, read against the
2^-P/2 noise gate, rarely catches a loss of accuracy: on the m=2, 16+16-atom
Legendre fixture at 64 bits both solvers reach their targets at every
k = 3..8 and stay at 64 bits; the type I vector is flagged at k = 6 only,
and at k = 7 and 8 its coefficients (unit max) differ from a 256-bit solve
by 2.0 and 1.65.  A floor on the correct digits is an open ROADMAP item.

The perturbed problem approximates f_j = s-hat_{1,j} + r_j; multiplying its
order condition by T = prod t_j turns the solution into an incomplete
approximant of the plain system with order deficit deg T, which
perturbed_reduce performs and verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .algebra import Polynomial, RationalFn, laurent_expand_rational, poly_roots
# cauchy_eval and moments are unused here; benchmark/spans.py still patches
# hermite_pade.cauchy_eval and hermite_pade.moments
from .measures import _moment_rows, cauchy_eval, moments  # noqa: F401
from .nikishin import NikishinSystem, Residual, s_hat_eval
from .precision import MAX_PRECISION_BITS, noise_floor, working_precision

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


@dataclass(frozen=True)
class MultiIndex:
    """Per-component degree budget (n_1, ..., n_m), not all zero."""

    parts: tuple

    def __init__(self, parts):
        parts = tuple(parts)
        for p in parts:
            if isinstance(p, bool) or not (
                isinstance(p, int) or isinstance(p, float) and p.is_integer()
            ):
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
    nonzero components must be disjoint.
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
            if any(isinstance(c, mpc) for c in f.num.coeffs + f.den.coeffs):
                raise ValueError("perturbation coefficients must be real")
        T = Polynomial.one()
        per_component = []
        for f in fractions:
            T = T * f.den
            per_component.append(
                _cluster_roots(poly_roots(f.den)) if f.den.degree >= 1 else ()
            )
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
    """

    a: tuple
    n: MultiIndex
    order_target: int
    residual_order: int
    nullity_flag: bool
    precision_bits: int

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
    """

    q: Polynomial
    p: tuple
    n: MultiIndex
    residual_orders: tuple
    nullity_flag: bool
    precision_bits: int

    @property
    def m(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class ReduceReport:
    """Outcome of the T-multiplication reduction of a perturbed solution; p_0 is reduced.a[0]."""

    reduced: TypeIVector
    max_residual: mpf
    scale: mpf


# ---------------------------------------------------------------------------
# order bases
# ---------------------------------------------------------------------------


def _order_basis(series, shifts, orders):
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
    Returns (basis, degrees): basis[i][r] lists the coefficients of
    component r of row i, and degrees[i] bounds the shifted degree of row
    i.  Each condition costs O(rows^2 K) for polynomials of degree K, so K
    conditions per column cost O(K^2).
    """
    rows = len(series)
    basis = [[[mpf(1)] if r == i else [] for r in range(rows)] for i in range(rows)]
    degrees = list(shifts)
    gate = ORDER_BASIS_GUARD * mpf(2) ** -mp.prec
    with mp.workprec(mp.prec + 64):
        for k in range(max(orders)):
            for j, order in enumerate(orders):
                if k >= order:
                    continue
                column = [entry[j] for entry in series]
                residuals = []
                for row in basis:
                    terms = [
                        coeffs[l] * f[k - l]
                        for coeffs, f in zip(row, column)
                        for l in range(max(0, k - len(f) + 1), min(k + 1, len(coeffs)))
                    ]
                    acc = mp.fsum(terms)
                    nonzero = abs(acc) > gate * mp.fsum(terms, absolute=True)
                    residuals.append(acc if nonzero else None)
                live = [i for i, res in enumerate(residuals) if res is not None]
                if not live:
                    continue
                piv = min(live, key=lambda i: (degrees[i], -abs(residuals[i])))
                pivot = basis[piv]
                for i in live:
                    if i != piv:
                        c = -residuals[i] / residuals[piv]
                        basis[i] = [_axpy(a, c, b) for a, b in zip(basis[i], pivot)]
                basis[piv] = [[mpf(0)] + coeffs if coeffs else coeffs for coeffs in pivot]
                degrees[piv] += 1
    return [[[+c for c in coeffs] for coeffs in row] for row in basis], degrees


def _axpy(a, c, b):
    """The coefficient list of a + c b."""
    if len(a) < len(b):
        a = a + [mpf(0)] * (len(b) - len(a))
    return [x + c * y for x, y in zip(a, b)] + a[len(b) :]


# ---------------------------------------------------------------------------
# type I
# ---------------------------------------------------------------------------


def solve_type1(sys: NikishinSystem, n: MultiIndex, M: int = 0) -> TypeIVector:
    """Normalized type I vector for the plain system, order target |n| - M."""
    return _escalating_type1(sys, None, n, M)


def solve_type1_perturbed(
    sys: NikishinSystem, pert: RationalPerturbation, n: MultiIndex
) -> TypeIVector:
    """Type I vector for f_j = s-hat_{1,j} + r_j, full order |n|."""
    pert.validate_against(sys)
    return _escalating_type1(sys, pert, n, 0)


def _escalate(solve_once, reached):
    """solve_once(bits) at mp.prec, 2 mp.prec, ... until reached(result) holds.

    Each attempt runs at its own working precision.  The bits stop at
    MAX_PRECISION_BITS, whose result is returned whether reached or not.
    """
    bits = mp.prec
    while True:
        with working_precision(bits):
            v = solve_once(bits)
        if reached(v) or bits >= MAX_PRECISION_BITS:
            return v
        bits = min(2 * bits, MAX_PRECISION_BITS)


def _escalating_type1(sys, pert, n, M) -> TypeIVector:
    if len(n) != sys.m:
        raise ValueError("multi-index size does not match the system")
    return _escalate(
        lambda bits: _solve_type1_once(sys, pert, n, M, bits),
        lambda v: v.residual_order >= v.order_target,
    )


def _type1_tails(sys, pert, n):
    """Tails of s-hat_{1,j} + r_j: tuples of K + 1 entries, K = |n| + max n_j + 4."""
    K = n.total + n.max_part + 4
    tails = []
    for j in range(1, len(n) + 1):
        tail = _chain_tail(sys, j, K)
        if pert is not None and not pert.fractions[j - 1].is_zero:
            rational = laurent_expand_rational(pert.fractions[j - 1], K + 1)
            tail = tuple(a + b for a, b in zip(tail, rational, strict=True))
        tails.append(tail)
    return tails


def _chain_tail(sys, j, K):
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
    basis, degrees = _order_basis(series, shifts, [total - M + D - 1])
    # the solutions are the combinations of x^e row_i, e <= D - d_i
    flag = total - 1 - M <= 0 or sum(max(0, D + 1 - d) for d in degrees) != M + 1
    # a_j reverses component j of the row of least shifted degree, padded to n_j
    row = basis[min(range(len(degrees)), key=degrees.__getitem__)]
    blocks = [(c + [mpf(0)] * (nj - len(c)))[::-1] for c, nj in zip(row[1:], n)]
    blocks = _normalize_blocks(blocks)
    pairs = list(zip(blocks, tails))
    # -PolynomialPart(sum_j a_j f_j); degree at most max(n_j) - 2
    a0 = Polynomial([-_laurent_coeff(pairs, p)[0] for p in range(max(D - 1, 0))])
    residual_order = _achieved_order(pairs, total + 4)
    a = (a0,) + tuple(Polynomial(b) for b in blocks)
    return TypeIVector(a, n, total - M, residual_order, flag, bits)


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


def _laurent_coeff(pairs, e):
    """Coefficient of z^e in sum_j c_j f_j, and its scale.

    pairs holds (coeffs, tail) per component, tail being f_j's Laurent tail
    (entry k the coefficient of z^-(k+1)), so the coefficient gathers the
    terms c[l] * tail[l - e - 1], l > e: e >= 0 reads the polynomial part,
    e = -(k+1) tail entry k.  The terms are added in order, (acc, scale)
    being the sequential sums of the terms and of their absolute values.
    """
    acc = mpf(0)
    scale = mpf(0)
    for coeffs, tail in pairs:
        for l in range(max(e + 1, 0), len(coeffs)):
            term = coeffs[l] * tail[l - e - 1]
            acc += term
            scale += abs(term)
    return acc, scale


def _achieved_order(pairs, upto, known=()):
    """First non-vanishing tail index of the remainder, plus one.

    known holds the _laurent_coeff values already formed for the first
    indices.
    """
    tol = noise_floor(0.5)
    for k in range(upto):
        acc, scale = known[k] if k < len(known) else _laurent_coeff(pairs, -(k + 1))
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

    p_0 = T a_0 + sum_j (T/t_j) v_j a_j is an exact polynomial; the vector
    (p_0, T a_1, ..., T a_m) must satisfy the plain system's order conditions
    through |n| - deg T, which is re-verified from fresh unperturbed tails.
    """
    m = sys.m
    if v.m != m or pert.m != m:
        raise ValueError("component count mismatch")
    T, D = pert.T, pert.degree
    tol = noise_floor(0.5)
    for f in pert.fractions:
        if f.is_zero:
            continue
        rem = T % f.den
        if not rem.is_zero and rem.max_coeff() > tol * T.max_coeff():
            raise ValueError("pole cancellation failed; perturbation input corrupted")

    p0 = T * v.a[0]
    for j in range(1, m + 1):
        f = pert.fractions[j - 1]
        if f.is_zero:
            continue
        cofactor = Polynomial.one()
        for k in range(1, m + 1):
            if k != j:
                cofactor = cofactor * pert.fractions[k - 1].den
        p0 = p0 + cofactor * f.num * v.a[j]

    reduced_n = MultiIndex([p + D for p in v.n])
    order_target = v.n.total - D
    blocks = [list((T * v.a[j]).coeffs) for j in range(1, m + 1)]
    blocks = [b + [mpf(0)] * (reduced_n[j] - len(b)) for j, b in enumerate(blocks)]
    pairs = list(zip(blocks, _type1_tails(sys, None, reduced_n)))

    sums = [_laurent_coeff(pairs, -(k + 1)) for k in range(max(order_target - 1, 0))]
    max_residual = mpf(0)
    scale = mpf(0)
    for acc, sc in sums:
        max_residual = max(max_residual, abs(acc))
        scale = max(scale, sc)
    residual_order = _achieved_order(pairs, v.n.total + 4, sums)
    reduced = TypeIVector(
        (p0,) + tuple(T * v.a[j] for j in range(1, m + 1)),
        reduced_n,
        order_target,
        residual_order,
        v.nullity_flag,
        v.precision_bits,
    )
    return ReduceReport(reduced, max_residual, scale)


# ---------------------------------------------------------------------------
# type II
# ---------------------------------------------------------------------------


def solve_type2(sys: NikishinSystem, n: MultiIndex) -> TypeIIVector:
    """Monic common denominator Q and numerators P_j, orders n_j + 1 each."""
    if len(n) != sys.m:
        raise ValueError("multi-index size does not match the system")
    return _escalate(
        lambda bits: _solve_type2_once(sys, n, bits),
        lambda v: all(v.residual_orders[j] >= n[j] + 1 for j in range(sys.m)),
    )


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
    basis, degrees = _order_basis(series, (0,) + (1,) * m, [total + nj for nj in n])
    # the solutions of degree <= N are the combinations of x^e row_i, e <= N - d_i
    flag = sum(max(0, total + 1 - d) for d in degrees) != 1
    row = basis[min(range(m + 1), key=degrees.__getitem__)]
    qt = row[0] + [mpf(0)] * (total + 1 - len(row[0]))
    q = Polynomial(qt[::-1]).trimmed().monic()
    ps = []
    orders = []
    for j, tail in enumerate(tails):
        pairs = [(q.coeffs, tail)]
        ps.append(Polynomial([_laurent_coeff(pairs, p)[0] for p in range(total)]))
        orders.append(_achieved_order(pairs, n[j] + 4))
    return TypeIIVector(q, tuple(ps), n, tuple(orders), flag, bits)


def type2_residual_tail(sys: NikishinSystem, v: TypeIIVector, j: int):
    """Tail coefficients of Q s-hat_{1,j} - P_j, indices 0..n_j+4."""
    if not 1 <= j <= v.m:
        raise IndexError("component out of range")
    pairs = [(v.q.coeffs, _type1_tails(sys, None, v.n)[j - 1])]
    return [_laurent_coeff(pairs, -(k + 1))[0] for k in range(v.n[j - 1] + 5)]


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


def check_orthogonality(sys: NikishinSystem, v: TypeIVector) -> Residual:
    """Moment orthogonality of the first-level remainder on sigma_1's atoms.

    With N the vector's order target, the sums sum_i x_i^nu A_1(x_i) w_i sign
    vanish for nu = 0..N-2.  Vectors from perturbed_reduce verify the
    T-weighted form automatically since their remainder is T * A_1.  Deeper
    remainder levels are not checked.
    """
    N = v.order_target
    if N <= 1:
        return Residual(mpf(0), mpf(0))
    sigma1 = sys.generators[0]
    vals = [remainder_eval(sys, v, 1, x) for x in sigma1.nodes]
    signed = [val * w * sigma1.sign for val, w in zip(vals, sigma1.weights)]
    max_residual = mpf(0)
    max_scale = mpf(0)
    powers = list(signed)
    for _ in range(N - 1):
        max_residual = max(max_residual, abs(mp.fsum(powers)))
        max_scale = max(max_scale, mp.fsum(abs(t) for t in powers))
        powers = [t * x for t, x in zip(powers, sigma1.nodes)]
    return Residual(max_residual, max_scale)
