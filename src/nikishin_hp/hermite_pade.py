"""Type I and type II simultaneous rational approximation of Cauchy transforms.

Order conditions at infinity translate into homogeneous moment-shift linear
systems, kept as plain row lists built from the tails (tuples whose entry k
is the coefficient of z^-(k+1)); the solution is the right singular direction
of least singular value at working precision.  The SVD is linalg.svd_sv, a
Golub-Reinsch kernel that forms only the singular values and the one right
singular vector the solvers read, bit-identical to mp.svd_r's: it rotates
the right factor only until that vector's singular value has converged.
Both solvers form the polynomial part of a tail convolution with _head_sum
and its coefficients at infinity with _tail_sum.

One escalation driver, _escalate, serves both solvers: it doubles the
precision (up to 4096 bits) while the achieved vanishing order falls short of
the target.  That is the only trigger, and the order, read against the
2^-P/2 noise gate, rarely catches a loss of accuracy: on the m=2, 16+16-atom
Legendre fixture at 64 bits both solvers reach their targets at every
k = 3..8, although at k = 8 the type I coefficients (unit max) differ from a
256-bit solve by 2.  A floor on the singular-value headroom is an open
ROADMAP item.

The perturbed problem approximates f_j = s-hat_{1,j} + r_j; multiplying its
order condition by T = prod t_j turns the solution into an incomplete
approximant of the plain system with order deficit deg T, which
perturbed_reduce performs and verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .algebra import Polynomial, RationalFn, laurent_expand_rational, poly_roots
from .linalg import svd_sv
# cauchy_eval is unused here; benchmark/spans.py still patches hermite_pade.cauchy_eval
from .measures import cauchy_eval, moments  # noqa: F401
from .nikishin import NikishinSystem, s_hat_eval
from .precision import MAX_PRECISION_BITS, noise_floor, working_precision

NULLITY_GAP = mpf(2) ** 10  # sigma_min2/sigma_min at or below this flags nullity > 1


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
    degree: int
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
        object.__setattr__(self, "degree", T.degree)
        object.__setattr__(self, "poles", poles)

    @classmethod
    def zero(cls, m: int) -> "RationalPerturbation":
        return cls([RationalFn.zero() for _ in range(m)])

    @property
    def m(self) -> int:
        return len(self.fractions)

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
    """Type I solution (a_0, ..., a_m) with its achieved vanishing order."""

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
    """Type II solution (Q, P_1, ..., P_m) with per-component achieved orders."""

    q: Polynomial
    p: tuple
    n: MultiIndex
    residual_orders: tuple
    nullity_flag: bool
    precision_bits: int

    @property
    def m(self) -> int:
        return len(self.p)


class OrthogonalityReport(NamedTuple):
    max_residual: mpf
    scale: mpf
    conditions: int


@dataclass(frozen=True)
class ReduceReport:
    """Outcome of the T-multiplication reduction of a perturbed solution; p_0 is reduced.a[0]."""

    reduced: TypeIVector
    max_residual: mpf
    scale: mpf


# ---------------------------------------------------------------------------
# assembly and nullspace extraction
# ---------------------------------------------------------------------------


def assemble_type1_system(tails, n: MultiIndex, M: int = 0) -> list:
    """Moment-shift matrix, as row lists, whose nullspace is the admissible (a_1..a_m) set.

    Row t (t = 0..|n|-2-M) imposes a zero coefficient of z^-(t+1) in
    sum_j a_j f_j; the column block for component j has width n_j with entry
    tails[j][l + t] in column position l.
    """
    if M < 0:
        raise ValueError("order deficit M must be nonnegative")
    if len(tails) != len(n):
        raise ValueError("one tail per component required")
    rows = max(0, n.total - 1 - M)
    for j, tail in enumerate(tails):
        if n[j] > 0 and len(tail) < n[j] + max(rows - 1, 0):
            raise ValueError("tails too short for the requested order conditions")
    return [[tail[l + t] for tail, nj in zip(tails, n) for l in range(nj)] for t in range(rows)]


def _nullspace_min_direction(rows, cols: int):
    """Least-singular right direction of rows (a cols-column matrix), plus a nullity flag.

    Returns (vec, flag, svals): vec is the last row of the SVD's right factor
    (the only row svd_sv returns), svals all cols singular values in
    decreasing order.  Both solvers pass fewer rows than columns, so the
    structural rank is len(rows); the trailing cols - rows values are 0 or
    rounding-level.  The flag fires when the smallest structural singular
    value is within a factor 2^10 of the largest should-be-zero one (rank
    deficient beyond the guaranteed nullity), or when there are no
    constraints at all.
    """
    svals, vec = svd_sv(rows, cols)
    rank = len(rows)
    if rank == 0:
        return vec, True, svals
    flag = svals[rank - 1] <= NULLITY_GAP * svals[rank]
    return vec, bool(flag), svals


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
        tail = moments(sys.chain(1, j), K)
        if pert is not None and not pert.fractions[j - 1].is_zero:
            rational = laurent_expand_rational(pert.fractions[j - 1], K + 1)
            tail = tuple(a + b for a, b in zip(tail, rational, strict=True))
        tails.append(tail)
    return tails


def _solve_type1_once(sys, pert, n, M, bits) -> TypeIVector:
    total = n.total
    tails = _type1_tails(sys, pert, n)
    rows = assemble_type1_system(tails, n, M)
    vec, flag, _ = _nullspace_min_direction(rows, total)
    blocks = _split_blocks(vec, n)
    blocks = _normalize_blocks(blocks)
    pairs = list(zip(blocks, tails))
    # -PolynomialPart(sum_j a_j f_j); degree at most max(n_j) - 2
    a0 = Polynomial([-_head_sum(pairs, p) for p in range(max(n.max_part - 1, 0))])
    residual_order = _achieved_order(pairs, total + 4)
    a = (a0,) + tuple(Polynomial(b) for b in blocks)
    return TypeIVector(a, n, total - M, residual_order, flag, bits)


def _split_blocks(vec, n):
    blocks = []
    pos = 0
    for j in range(len(n)):
        blocks.append(list(vec[pos : pos + n[j]]))
        pos += n[j]
    return blocks


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


def _head_sum(pairs, p):
    """Coefficient of z^p in the polynomial part of sum_j c_j * f_j.

    pairs holds (coeffs, tail) per component, tail being f_j's Laurent tail;
    the terms c[l] * tail[l - p - 1], l > p, are added in order.
    """
    acc = mpf(0)
    for coeffs, tail in pairs:
        for l in range(p + 1, len(coeffs)):
            acc += coeffs[l] * tail[l - p - 1]
    return acc


def _tail_sum(pairs, k):
    """Coefficient k of sum_j c_j * tail_j over (coeffs, tail) pairs, and its scale.

    The terms c[l] * tail[l + k] are added in order, (acc, scale) being the
    sequential sums of the terms and of their absolute values.
    """
    acc = mpf(0)
    scale = mpf(0)
    for coeffs, tail in pairs:
        for l, c in enumerate(coeffs):
            term = c * tail[l + k]
            acc += term
            scale += abs(term)
    return acc, scale


def _achieved_order(pairs, upto, known=()):
    """First non-vanishing tail index of the remainder, plus one.

    known holds the _tail_sum values already formed for the first indices.
    """
    tol = noise_floor(0.5)
    for k in range(upto):
        acc, scale = known[k] if k < len(known) else _tail_sum(pairs, k)
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

    sums = [_tail_sum(pairs, k) for k in range(max(order_target - 1, 0))]
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
    # row (j, nu) imposes a zero coefficient of z^-(nu+1) in Q f_j
    rows = [tail[nu : nu + total + 1] for tail, nj in zip(tails, n) for nu in range(nj)]
    vec, flag, _ = _nullspace_min_direction(rows, total + 1)
    q = Polynomial(vec).trimmed().monic()
    ps = []
    orders = []
    for j, tail in enumerate(tails):
        pairs = [(q.coeffs, tail)]
        ps.append(Polynomial([_head_sum(pairs, p) for p in range(total)]))
        orders.append(_achieved_order(pairs, n[j] + 4))
    return TypeIIVector(q, tuple(ps), n, tuple(orders), flag, bits)


def type2_residual_tail(sys: NikishinSystem, v: TypeIIVector, j: int):
    """Tail coefficients of Q s-hat_{1,j} - P_j, indices 0..n_j+4."""
    if not 1 <= j <= v.m:
        raise IndexError("component out of range")
    K = v.q.degree + v.n[j - 1] + 5
    tail = moments(sys.chain(1, j), K)
    out = []
    for k in range(v.n[j - 1] + 5):
        out.append(mp.fsum(v.q[mu] * tail[mu + k] for mu in range(v.q.degree + 1)))
    return out


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


def check_orthogonality(sys: NikishinSystem, v: TypeIVector) -> OrthogonalityReport:
    """Moment orthogonality of the first-level remainder on sigma_1's atoms.

    With N the vector's order target, the sums sum_i x_i^nu A_1(x_i) w_i sign
    vanish for nu = 0..N-2.  Vectors from perturbed_reduce verify the
    T-weighted form automatically since their remainder is T * A_1.  Deeper
    remainder levels are not checked.
    """
    N = v.order_target
    if N <= 1:
        return OrthogonalityReport(mpf(0), mpf(0), 0)
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
    return OrthogonalityReport(max_residual, max_scale, N - 1)
