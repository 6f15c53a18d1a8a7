"""The mpf-object kernels that hermite_pade now runs on raw mpmath.libmp tuples.

Each function below is the package's former code, kept verbatim but for
the names it imports: every add, multiply, sum and rounding goes through
an mpf object at mp.prec.  tests/test_hermite_pade.py::TestRawKernels
patches _order_basis, _laurent_coeff and _achieved_order into
hermite_pade, solves with them, and requires every bit of the raw
kernels' vectors, reductions, residual tails, remainder values and
orthogonality residuals to be the same.
"""

from __future__ import annotations

from mpmath import mp, mpf

from nikishin_hp.hermite_pade import ORDER_BASIS_GUARD, remainder_eval
from nikishin_hp.nikishin import Residual
from nikishin_hp.precision import noise_floor


def _order_basis(series, shifts, orders, stored=None, key=None):
    rows = len(series)
    level = min(orders)
    if stored is not None and key in stored and stored[key][0] <= level:
        start, basis, degrees = stored[key]
    else:
        start, degrees = 0, shifts
        basis = [[[mpf(1)] if r == i else [] for r in range(rows)] for i in range(rows)]
    basis, degrees = list(basis), list(degrees)
    gate = ORDER_BASIS_GUARD * mpf(2) ** -mp.prec
    with mp.workprec(mp.prec + 64):
        # one step past the last condition, so that k = min(orders) is reached
        for k in range(start, max(orders) + 1):
            if k == level and stored is not None:
                stored[key] = (level, tuple(basis), tuple(degrees))
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


def _achieved_order(pairs, upto, known=()):
    tol = noise_floor(0.5)
    for k in range(upto):
        acc, scale = known[k] if k < len(known) else _laurent_coeff(pairs, -(k + 1))
        if abs(acc) > tol * scale:
            return k + 1
    return upto


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
