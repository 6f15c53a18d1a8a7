"""The package's former kernels, the oracles of the raw and fixed-point ones that replaced them.

Each kernel below is the package's former code, kept verbatim but for
the names it imports, in _order_basis, the least pivot ratio, and, in
first_level_remainder_values, the rule that returns a value at or below
2^-3P/4 of the sum of its |terms| as 0.  In
the hermite_pade kernels every add, multiply, sum and rounding goes
through an mpf object at mp.prec.  _tail_sums yields _laurent_coeff's
sums for each exponent, as hermite_pade._tail_sums, the one owner of the
P-bit tail convolution, yields them from raw tuples.
tests/test_hermite_pade.py::TestRawKernels patches _order_basis,
_tail_sums and _achieved_order into hermite_pade, solves with them,
and requires every bit of the raw kernels' vectors, digits, reductions,
residual tails, remainder values and orthogonality residuals to be the
same.  check_orthogonality is the former atom route, the moments
sum_i x_i^nu A_1(x_i) w_i sign summed over sigma_1's atoms:
tests/test_hermite_pade.py::TestCrossRoute holds the package's tail route
to it.

_newton_nodes and _christoffel_weights are the Gauss-rule recurrences
measures ran on mpf objects, each operation at the working precision:
p_{k+1} = (x - a_k) p_k - b_k p_{k-1} and its slope's recurrence, each
forming x - a_k anew, and the Christoffel sum, forming the norms
mu0 b_1 ... b_k at every node.  tests/test_measures.py::TestRawGaussKernels
runs them at twice the working precision and holds every node, weight
and Newton iterate of the fixed-point kernels within the bounds those
derive, and requires gauss_jacobi_rule's P-bit rules to keep the bits
they have with these loops swapped in.

achieved_order reads the order a type I vector reaches off its tails, at
the 2^-P/2 gate of _achieved_order, for the tests that assert a type I
order; the package reads it for type II only.

_values_at is the evaluation analysis.convergence_row ran at each grid
point: the powers z^0..z^D by mpc_mul at P + 64 bits, each product
c_k z^k by an exact mpf_mul and each value by an exact mpf_sum, rounded
once to P, with the size of the last polynomial's terms from
mpf_sum(..., P, absolute=True).  tests/test_analysis.py::TestPowerRows
requires analysis._PowerRow's integer evaluation to give the same bits.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf
from mpmath.libmp import fone, fzero, mpc_mul, mpf_mul, mpf_pos, mpf_sum, round_nearest
from mpmath.matrices.eigen_symmetric import tridiag_eigen

from nikishin_hp.hermite_pade import ORDER_BASIS_GUARD, _type1_tails, remainder_eval
from nikishin_hp.measures import _FLOAT_QL, _newton_in_bracket
from nikishin_hp.nikishin import Residual, s_hat_eval
from nikishin_hp.precision import noise_floor


def _order_basis(series, shifts, orders, stored=None, key=None):
    rows = len(series)
    level = min(orders)
    if stored is not None and key in stored and stored[key][0] <= level:
        start, basis, degrees, least = stored[key]
    else:
        start, degrees, least = 0, shifts, mpf(1)
        basis = [[[mpf(1)] if r == i else [] for r in range(rows)] for i in range(rows)]
    basis, degrees = list(basis), list(degrees)
    gate = ORDER_BASIS_GUARD * mpf(2) ** -mp.prec
    with mp.workprec(mp.prec + 64):
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
                        coeffs[l] * f[k - l]
                        for coeffs, f in zip(row, column)
                        for l in range(max(0, k - len(f) + 1), min(k + 1, len(coeffs)))
                    ]
                    acc = mp.fsum(terms)
                    size = mp.fsum(terms, absolute=True)
                    residuals.append((acc, size) if abs(acc) > gate * size else None)
                live = [i for i, res in enumerate(residuals) if res is not None]
                if not live:
                    continue
                piv = min(live, key=lambda i: (degrees[i], -abs(residuals[i][0])))
                r_piv, size = residuals[piv]
                least = min(least, mp.fdiv(abs(r_piv), size, prec=53))
                pivot = basis[piv]
                for i in live:
                    if i != piv:
                        c = -residuals[i][0] / r_piv
                        basis[i] = [_axpy(a, c, b) for a, b in zip(basis[i], pivot)]
                basis[piv] = [[mpf(0)] + coeffs if coeffs else coeffs for coeffs in pivot]
                degrees[piv] += 1
    return [[[+c for c in coeffs] for coeffs in row] for row in basis], degrees, least


def _axpy(a, c, b):
    if len(a) < len(b):
        a = a + [mpf(0)] * (len(b) - len(a))
    return [x + c * y for x, y in zip(a, b)] + a[len(b) :]


def _laurent_coeff(pairs, e):
    acc = mpf(0)
    scale = mpf(0)
    for coeffs, tail in pairs:
        for l in range(max(e + 1, 0), len(coeffs)):
            term = coeffs[l] * tail[l - e - 1]
            acc += term
            scale += abs(term)
    return acc, scale


def _tail_sums(pairs, es):
    for e in es:
        yield _laurent_coeff(pairs, e)


def _achieved_order(pairs, upto):
    tol = noise_floor(0.5)
    for k in range(upto):
        acc, scale = _laurent_coeff(pairs, -(k + 1))
        if abs(acc) > tol * scale:
            return k + 1
    return upto


def achieved_order(sys, v, pert=None, upto=None):
    """The first tail index of sum_j a_j f_j above 2^-P/2 of its terms, plus one.

    f_j = s-hat_{1,j} + r_j with the perturbation pert, else s-hat_{1,j};
    the sums run at the vector's precision P over its coefficients padded
    to n_j, and indices 0..upto-1 are read (upto = |n| + 4 by default),
    the result being upto when none of them is above the gate.
    """
    with mp.workprec(v.precision_bits):
        tails = _type1_tails(sys, pert, v.n)
        pairs = [
            (list(a.coeffs) + [mpf(0)] * (nj - len(a.coeffs)), tail)
            for a, nj, tail in zip(v.a[1:], v.n, tails)
        ]
        return _achieved_order(pairs, v.n.total + 4 if upto is None else upto)


def first_level_remainder_values(sys, v) -> list:
    tol = noise_floor(0.75)
    out = []
    for x in sys.generators[0].nodes:
        terms = [v.a[1](x)] + [v.a[k](x) * s_hat_eval(sys, 2, k, x) for k in range(2, v.m + 1)]
        size = mpf(0)
        for t in terms:
            size += abs(t)
        value = remainder_eval(sys, v, 1, x)
        out.append(value if abs(value) > tol * size else mpf(0))
    return out


def check_orthogonality(sys, v) -> Residual:
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


def _newton_nodes(n: int, diag, offsq, count: int) -> list:
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


def _values_at(coeffs, z):
    """The values at a complex z of the real polynomials with raw coefficients coeffs.

    Returns (values, size): the values as mpc, and for the last
    polynomial sum_k |c_k Re z^k| + |c_k Im z^k|, at P, which bounds
    sum_k |c_k z^k| to within a factor sqrt 2.  The powers z^0..z^D, D the
    largest degree, are formed by repeated multiplication rounded to P + 64
    bits; each value is the exact sum of the exact products c_k z^k, real
    and imaginary parts apart, rounded once to P, and size sums the moduli
    of those same products.
    """
    prec, rnd = mp.prec, round_nearest
    zz = mpc(z)._mpc_
    powers = [(fone, fzero)]
    for _ in range(max(len(c) for c in coeffs) - 1):
        powers.append(mpc_mul(powers[-1], zz, prec + 64, rnd))
    out = []
    for cs in coeffs:
        re_terms = [mpf_mul(c, p[0]) for c, p in zip(cs, powers)]
        im_terms = [mpf_mul(c, p[1]) for c, p in zip(cs, powers)]
        re, im = mpf_sum(re_terms), mpf_sum(im_terms)
        out.append(mp.make_mpc((mpf_pos(re, prec, rnd), mpf_pos(im, prec, rnd))))
    return out, mp.make_mpf(mpf_sum(re_terms + im_terms, prec, rnd, True))
