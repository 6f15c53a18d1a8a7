"""Exact type I and type II vectors of a two-generator system of dyadic atoms, over QQ.

Stdlib `fractions` only: nothing here shares code or rounding with the
package.  sigma_1 has 16 atoms at x_i = -1 + (2i+1)/32 on [-1, 0] and sigma_2
has 16 atoms at y_i = 1 + (2i+1)/16 on [1, 3], every weight 1/16.  Every
node and weight is a dyadic rational, so the package's binary floats hold
them exactly and the only difference between the two computations is the
package's rounding.

The chains are s_{1,1} = sigma_1 and s_{1,2} = <sigma_1, sigma_2>, whose
atoms are sigma_1's reweighted by |sigma_2-hat|; sigma_2-hat is negative on
[-1, 0], so s_{1,2} has sign -1.  The type I vector (a_1, a_2) for n spans
the kernel of the |n| - 1 order conditions

    sum_j sum_l a_{j,l} c_{l+t}(s_{1,j}) = 0,   t = 0, ..., |n| - 2,

and is normalized as the solver normalizes it: the largest coefficient of
a_1, a_2 has modulus 1 and the leading coefficient of the last nonzero
block is positive.  first_level_remainder gives its first-level remainder
A_1 = a_1 + a_2 sigma_2-hat at the atoms X.  With an order deficit M > 0 only the first
|n| - 1 - M conditions are imposed and the kernel has dimension M + 1, so
any member of it solves the problem; type1_kernel_distance measures how far
a vector lies from it.  The type II denominator Q, of degree |n|, spans the
kernel of the |n| order conditions

    sum_mu q_mu c_{mu+nu}(s_{1,j}) = 0,   nu = 0, ..., n_j - 1,

and is monic.

The perturbed system adds r_j = 1/(z - p_j) with the dyadic poles
POLES = (5, -5), so the tail of f_j = s-hat_{1,j} + r_j has the entries
c_k(s_{1,j}) + p_j^k and the same conditions give the perturbed (a_1, a_2);
perturbed_type1 adds a_0, minus the polynomial part of a_1 f_1 + a_2 f_2,
and reduced_type1 multiplies by T = (z - 5)(z + 5) as the T-reduction does:
(p_0, T a_1, T a_2) with p_0 = T a_0 + (z + 5) a_1 + (z - 5) a_2.
"""

from __future__ import annotations

from fractions import Fraction

ATOMS = 16
WEIGHT = Fraction(1, 16)
X = tuple(-1 + Fraction(2 * i + 1, 32) for i in range(ATOMS))
Y = tuple(1 + Fraction(2 * i + 1, 16) for i in range(ATOMS))
POLES = (5, -5)


def sigma2_hat():
    """sigma_2-hat(x_i) = sum_l WEIGHT / (x_i - y_l) at the atoms X."""
    return [sum(WEIGHT / (x - y) for y in Y) for x in X]


def chains():
    """(sign, weights) of s_{1,1} and s_{1,2}; both have the atoms X."""
    values = sigma2_hat()
    assert all(v < 0 for v in values)
    return [(1, (WEIGHT,) * ATOMS), (-1, tuple(-WEIGHT * v for v in values))]


def moments(sign, weights, count):
    """c_0, ..., c_{count-1}: c_k = sign * sum_i w_i x_i^k."""
    return [sign * sum(w * x**k for x, w in zip(X, weights)) for k in range(count)]


def kernel_basis(rows, cols):
    """A basis of the kernel of a rational matrix, by Gauss-Jordan elimination:
    one vector per free column, which is 1 there and 0 at the other free
    columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        basis.append(vec)
    return basis


def kernel_vector(rows, cols):
    """The kernel vector of a rational matrix with one-dimensional kernel."""
    basis = kernel_basis(rows, cols)
    if len(basis) != 1:
        raise ValueError(f"kernel has dimension {len(basis)}, not 1")
    return basis[0]


def type1_tails(n, poles=None):
    """Tail entries 0..|n| + max n_j - 1 of f_1, f_2: the moments of s_{1,j},
    plus p_j^k when poles = (p_1, p_2) adds 1/(z - p_j)."""
    count = sum(n) + max(n)
    tails = [moments(sign, w, count) for sign, w in chains()]
    if poles is not None:
        tails = [[c + Fraction(p) ** k for k, c in enumerate(t)] for t, p in zip(tails, poles)]
    return tails


def type1_rows(n, M=0, poles=None):
    """The |n| - 1 - M order conditions on the concatenated (a_1, a_2)."""
    tails = type1_tails(n, poles)
    return [
        [tail[l + t] for tail, nj in zip(tails, n) for l in range(nj)]
        for t in range(sum(n) - 1 - M)
    ]


def type1_blocks(n, poles=None):
    """The exact normalized coefficient lists (a_1, a_2), ascending degree."""
    vec = kernel_vector(type1_rows(n, poles=poles), sum(n))
    mx = max(abs(c) for c in vec)
    blocks = [[c / mx for c in vec[: n[0]]], [c / mx for c in vec[n[0] :]]]
    lead = next(c for b in reversed(blocks) for c in reversed(b) if c != 0)
    return [[-c for c in b] for b in blocks] if lead < 0 else blocks


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_add(*ps):
    width = max(len(p) for p in ps)
    return [sum(p[k] for p in ps if k < len(p)) for k in range(width)]


def perturbed_type1(n):
    """The exact perturbed (a_0, a_1, a_2) for f_j = s-hat_{1,j} + 1/(z - POLES[j]),
    ascending degree; a_0 has max n_j - 1 coefficients."""
    blocks = type1_blocks(n, POLES)
    tails = type1_tails(n, POLES)
    # coefficient of z^e in a_j f_j gathers a_{j,l} tail_j[l - e - 1], l > e
    a0 = [
        -sum(c * t[l - e - 1] for b, t in zip(blocks, tails) for l, c in enumerate(b) if l > e)
        for e in range(max(n) - 1)
    ]
    return [a0] + blocks


def reduced_type1(n):
    """The exact T-reduction (p_0, T a_1, T a_2) of perturbed_type1(n)."""
    a0, a1, a2 = perturbed_type1(n)
    t1, t2 = ([-Fraction(p), Fraction(1)] for p in POLES)
    T = poly_mul(t1, t2)
    p0 = poly_add(poly_mul(T, a0), poly_mul(t2, a1), poly_mul(t1, a2))
    return [p0, poly_mul(T, a1), poly_mul(T, a2)]


def first_level_remainder(n):
    """A_1(x_i) = a_1(x_i) + a_2(x_i) sigma_2-hat(x_i) at the atoms X, from
    type1_blocks(n)."""

    def value(coeffs, x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    a1, a2 = type1_blocks(n)
    return [value(a1, x) + value(a2, x) * s for x, s in zip(X, sigma2_hat())]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def type1_kernel_distance(vec, n, M):
    """Largest entry of vec minus its least-squares projection on the exact
    kernel of the order conditions at order deficit M, which has dimension
    M + 1; vec is the concatenated (a_1, a_2)."""
    basis = kernel_basis(type1_rows(n, M), sum(n))
    if len(basis) != M + 1:
        raise ValueError(f"kernel has dimension {len(basis)}, not {M + 1}")
    # normal equations G c = B vec, solved as the kernel of [G | -B vec]
    gram = [[dot(b, c) for c in basis] + [-dot(b, vec)] for b in basis]
    coeffs = kernel_vector(gram, M + 2)
    coeffs = [c / coeffs[-1] for c in coeffs[:-1]]
    return max(abs(v - sum(c * b[i] for c, b in zip(coeffs, basis))) for i, v in enumerate(vec))


def type2_q(n):
    """The exact monic type II denominator Q, ascending coefficients."""
    total = sum(n)
    rows = [tail[nu : nu + total + 1] for tail, nj in zip(type1_tails(n), n) for nu in range(nj)]
    vec = kernel_vector(rows, total + 1)
    return [c / vec[-1] for c in vec]
