"""The package's former kernels, the oracles of the raw ones that replaced them.

Each kernel below is the package's former code, kept verbatim but for
the names it imports and, in _order_basis, the least pivot ratio.  In
the hermite_pade kernels every add, multiply, sum and rounding goes
through an mpf object at mp.prec.
tests/test_hermite_pade.py::TestRawKernels patches _order_basis,
_laurent_coeff and _achieved_order into hermite_pade, solves with them,
and requires every bit of the raw kernels' vectors, digits, reductions,
residual tails, remainder values and orthogonality residuals to be the
same.

_cauchy_pass is the Cauchy pass measures ran before it summed in one
integer: a libmp mpf_div per term and one mpf_sum per row and part.
tests/test_measures.py::TestRawCauchyPass requires every bit of
measures._cauchy_pass to be the same.

achieved_order reads the order a type I vector reaches off its tails, at
the 2^-P/2 gate of _achieved_order, for the tests that assert a type I
order; the package reads it for type II only.
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_sub,
    mpf_sum,
    round_nearest,
)

from nikishin_hp.hermite_pade import ORDER_BASIS_GUARD, _type1_tails, remainder_eval
from nikishin_hp.nikishin import Residual
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
    return [remainder_eval(sys, v, 1, x) for x in sys.generators[0].nodes]


def check_orthogonality(sys, v) -> Residual:
    N = v.order_target
    if N <= 1:
        return Residual(mpf(0), mpf(0))
    sigma1 = sys.generators[0]
    vals = first_level_remainder_values(sys, v)
    signed = [val * w * sigma1.sign for val, w in zip(vals, sigma1.weights)]
    max_residual = mpf(0)
    max_scale = mpf(0)
    powers = list(signed)
    for _ in range(N - 1):
        max_residual = max(max_residual, abs(mp.fsum(powers)))
        max_scale = max(max_scale, mp.fsum(abs(t) for t in powers))
        powers = [t * x for t, x in zip(powers, sigma1.nodes)]
    return Residual(max_residual, max_scale)


def _cauchy_pass(nodes, rows, z, exponents=(1,)):
    """Raw mp.fsum(w / (z - x)**e for x, w in zip(nodes, row)), per exponent and row.

    One pass over the atoms serves every weight row in rows (measures on
    one node set) and every exponent e in exponents (1 or 2); z is an mpf
    or an mpc at P, and an mpc takes exponents (1,) only.  Returns
    sums[e][r]: a raw mpf for a real z and a raw (re, im) pair for a
    complex one.  The operations are mpmath's own: for a real z, d = z - x
    rounded to P and, for e = 2, d**2 rounded to P, then w / d at P.  For
    a complex z, with a = Re z - x and s = Im z, m = a^2 + s^2 is rounded
    to P + 10 bits by libmp's default rounding, and the term is
    (a w / m, -s w / m), each quotient rounded to P, as mpc_mpf_div forms
    it.  m does not depend on the weights, so the measures share it.  The
    terms are summed as mp.fsum sums them: each part by mpf_sum at P.
    """
    prec, rnd = mp.prec, round_nearest
    rows = [[w._mpf_ for w in row] for row in rows]
    if isinstance(z, mpc):
        if exponents != (1,):
            raise ValueError("a complex point takes exponent 1 only")
        re, im = z._mpc_
        im2 = mpf_mul(im, im)
        wide = prec + 10
        terms = [([], []) for _ in rows]
        for i, x in enumerate(nodes):
            a = mpf_sub(re, x._mpf_, prec, rnd)
            m = mpf_add(mpf_mul(a, a), im2, wide)
            for row, (res, ims) in zip(rows, terms):
                w = row[i]
                res.append(mpf_div(mpf_mul(a, w), m, prec, rnd))
                ims.append(mpf_div(mpf_neg(mpf_mul(im, w)), m, prec, rnd))
        return [[(mpf_sum(res, prec, rnd), mpf_sum(ims, prec, rnd)) for res, ims in terms]]
    t = z._mpf_
    parts = [[[] for _ in rows] for _ in exponents]
    for i, x in enumerate(nodes):
        d = mpf_sub(t, x._mpf_, prec, rnd)
        for e, terms in zip(exponents, parts):
            divisor = d if e == 1 else mpf_pow_int(d, e, prec, rnd)
            for row, out in zip(rows, terms):
                out.append(mpf_div(row[i], divisor, prec, rnd))
    return [[mpf_sum(out, prec, rnd) for out in terms] for terms in parts]
