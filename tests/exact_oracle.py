"""Exact type I vectors of a two-generator system of dyadic atoms, over QQ.

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
block is positive.
"""

from __future__ import annotations

from fractions import Fraction

ATOMS = 16
WEIGHT = Fraction(1, 16)
X = tuple(-1 + Fraction(2 * i + 1, 32) for i in range(ATOMS))
Y = tuple(1 + Fraction(2 * i + 1, 16) for i in range(ATOMS))


def chains():
    """(sign, weights) of s_{1,1} and s_{1,2}; both have the atoms X."""
    sigma2_hat = [sum(WEIGHT / (x - y) for y in Y) for x in X]
    assert all(v < 0 for v in sigma2_hat)
    return [(1, (WEIGHT,) * ATOMS), (-1, tuple(-WEIGHT * v for v in sigma2_hat))]


def moments(sign, weights, count):
    """c_0, ..., c_{count-1}: c_k = sign * sum_i w_i x_i^k."""
    return [sign * sum(w * x**k for x, w in zip(X, weights)) for k in range(count)]


def kernel_vector(rows, cols):
    """The kernel vector of a rational matrix with one-dimensional kernel, by
    Gauss-Jordan elimination; the free entry is 1."""
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
    free = [c for c in range(cols) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"kernel has dimension {len(free)}, not 1")
    vec = [Fraction(0)] * cols
    vec[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        vec[c] = -rows[r][free[0]]
    return vec


def type1_blocks(n):
    """The exact normalized coefficient lists (a_1, a_2), ascending degree."""
    total = sum(n)
    tails = [moments(sign, w, total + max(n)) for sign, w in chains()]
    rows = [
        [tail[l + t] for tail, nj in zip(tails, n) for l in range(nj)] for t in range(total - 1)
    ]
    vec = kernel_vector(rows, total)
    mx = max(abs(c) for c in vec)
    blocks = [[c / mx for c in vec[: n[0]]], [c / mx for c in vec[n[0] :]]]
    lead = next(c for b in reversed(blocks) for c in reversed(b) if c != 0)
    return [[-c for c in b] for b in blocks] if lead < 0 else blocks
