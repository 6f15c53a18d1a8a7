"""Polynomial and rational-fraction arithmetic at working precision.

Polynomials are dense coefficient tuples in ascending degree; the zero
polynomial has degree -1 and the empty tuple is its unique representation.
Rational fractions have a monic denominator and vanish at infinity
(deg num < deg den); they are not reduced, and whether a root of the
denominator is a pole is decided by hermite_pade.RationalPerturbation,
which finds those roots.  The expansion of such a function at infinity is
a plain tuple, its tail: entry k is the coefficient of z^-(k+1).

This module owns the scalar rules the other modules share: to_scalar
coerces every point and coefficient (mpc for a complex value, mpf
otherwise, at P); _horner is Horner's rule on mpf, mpc or Python complex
operands, and _raw_horner the same rule on raw mpf tuples, with its
roundings.

Root localization uses simultaneous Aberth-Ehrlich iteration: sweeps in
float64 give the starting points (a circle when the float64 roots are not
finite and distinct), then sweeps at P + max(64, 4 deg) bits, with seeded
random restarts on stagnation, refine them, followed by conjugate
symmetrization for real input.  One sweep (_sweep) serves both, on
complex or mpc operands: it first evaluates p at every approximation and
ends the iteration, without a step, once those residuals are at the floor;
otherwise it steps with the same values.  root_disks does not refine: it
bounds, around each float64 root, a disk that holds one root of p, which
is all a zero count needs.
"""

from __future__ import annotations

import cmath
import random

from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_pos, round_nearest

from .precision import noise_floor


def to_scalar(x):
    """Coerce to mpf (real) or mpc (complex) at the ambient precision."""
    return mpc(x) if isinstance(x, (complex, mpc)) else mpf(x)


class Polynomial:
    """Dense real/complex polynomial, coefficients ascending.

    Trailing exact-zero coefficients are trimmed by every constructor and
    arithmetic operation, so degree() is index of the last stored entry
    (-1 for the zero polynomial).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [to_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """The monic polynomial with the given roots."""
        p = cls.one()
        for r in roots:
            p = p * cls((-to_scalar(r), 1))
        return p

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else mpf(0)

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def max_coeff(self) -> mpf:
        return max((abs(c) for c in self.coeffs), default=mpf(0))

    def numeric_degree(self) -> int:
        """Degree ignoring coefficients below 2^-P/2 * max|coeff| (solver noise)."""
        if self.is_zero:
            return -1
        tol = noise_floor(0.5) * self.max_coeff()
        for k in range(len(self.coeffs) - 1, -1, -1):
            if abs(self.coeffs[k]) > tol:
                return k
        return -1

    def trimmed(self) -> "Polynomial":
        """Drop noise coefficients above the numeric degree."""
        d = self.numeric_degree()
        return Polynomial(self.coeffs[: d + 1])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[k] + other[k] for k in range(n)])

    def __sub__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[k] - other[k] for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [mpf(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        s = to_scalar(other)
        return Polynomial([c * s for c in self.coeffs])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def __call__(self, z):
        if self.is_zero:
            return mpc(0) if isinstance(z, (mpc, complex)) else mpf(0)
        return _horner(self.coeffs, z)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{mp.nstr(c, 8)}*z^{k}" if k else mp.nstr(c, 8))
        return "Polynomial(" + " + ".join(terms) + ")"


def _as_poly(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial((x,))


class RationalFn:
    """Rational fraction vanishing at infinity (deg num < deg den).

    The denominator is normalized monic at construction; a zero numerator
    collapses to 0/1.  Irreducibility is not checked here:
    RationalPerturbation rejects a numerator that vanishes at a pole.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ValueError("zero denominator")
        if num.is_zero:
            self.num = Polynomial.zero()
            self.den = Polynomial.one()
            return
        if num.degree >= den.degree:
            raise ValueError("rational fraction must vanish at infinity (deg num < deg den)")
        lead = den.leading()
        self.num = Polynomial([c / lead for c in num.coeffs])
        self.den = den.monic()

    @classmethod
    def zero(cls) -> "RationalFn":
        return cls(Polynomial.zero(), Polynomial.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def __repr__(self):
        return f"RationalFn({self.num!r} / {self.den!r})"


def laurent_expand_rational(r: RationalFn, K: int) -> tuple:
    """The tail of r: a tuple of K mpf whose entry k is the coefficient of z^-(k+1).

    With t monic of degree d the coefficients satisfy the recurrence induced
    by v = t * tail:  h_k = v_{d-1-k} - sum_{i=max(0,d-k)}^{d-1} t_i h_{i-d+k}.
    """
    if K < 0:
        raise ValueError("expansion order must be nonnegative")
    d = r.den.degree
    h = []
    for k in range(K):
        s = r.num[d - 1 - k]  # 0 below degree 0
        for i in range(max(0, d - k), d):
            s -= r.den[i] * h[i - d + k]
        h.append(s)
    return tuple(mpf(c) for c in h)  # rounded to the working precision


# ---------------------------------------------------------------------------
# Root localization
# ---------------------------------------------------------------------------


def poly_roots(p: Polynomial) -> list:
    """All deg(p) roots with multiplicity, as mpc, sorted by (Re, Im).

    Each returned root satisfies |p(root)| <= 2^-P/2 * ||p|| * max(1,|root|)^deg
    at the ambient precision P; complex roots of real polynomials are returned
    in conjugate pairs.  Aberth sweeps in float64 give the starting points
    of the iteration at P + max(64, 4 deg) bits; when the float64 roots are
    not finite and distinct it starts from a circle instead.
    """
    if p.degree <= 0:
        raise ValueError("no roots of a constant")
    prec = mp.prec
    zeros_at_origin, coeffs = _split_origin(p)
    n = len(coeffs) - 1
    roots = []
    if n > 0:
        with mp.workprec(prec + max(64, 4 * n)):
            c = [mpc(x) for x in coeffs]
            if n == 1:
                roots = [-c[0] / c[1]]
            else:
                roots = _aberth(c, _float_start(c) or _circle_start(c))
        if all(isinstance(c, mpf) for c in p.coeffs):
            roots = _symmetrize_conjugates(roots, prec)
    roots.extend(mpc(0) for _ in range(zeros_at_origin))
    roots.sort(key=lambda z: (z.real, z.imag))

    bound = noise_floor(0.5) * p.max_coeff()
    for r in roots:
        if abs(p(r)) > bound * max(mpf(1), abs(r)) ** p.degree:
            raise RuntimeError("root refinement failed; raise precision")
    return roots


def root_disks(p: Polynomial):
    """Inclusion disks for the roots of p: one (centre, radius) pair per root, or None.

    The centres are the float64 roots of _float_start, and None is returned
    where it gives none.  An exact zero of p at 0 is split off, as
    poly_roots does, as the disk of radius 0 at 0.  For the rest, of degree
    n with coefficients c_k, the radius of the disk at z_i bounds
    rho_i = n |W_i|, W_i = p(z_i) / (c_n prod_{j != i} (z_i - z_j)).  The
    union of these disks holds every root, and a connected component of k
    of them holds exactly k (D. Braess and K. P. Hadeler, Numer. Math. 21,
    1973; C. Carstensen, Numer. Math. 59, 1991), so a disk disjoint from
    every other holds exactly one root.

    W_i is formed at w = P + 32 bits, and the radius covers its rounding.
    Let u = 2^(1 - w), b the bit length of n and gamma_m = m u / (1 - m u)
    <= 2 m u.  Every rounding at w errs by at most u relatively; mpc_sub
    and mpc_mul form each part exactly and round it once, so each complex
    step does too, and abs, two roundings, errs by at most 2u.  Horner's
    rule with such steps errs by at most gamma_2n sum_k |c_k| |z_i|^k
    (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 5.1), and by gamma_(2n+1) with the rounding of coefficients
    that carry more than w bits.  The computed sum S_i of |c_k| |z_i|^k,
    by Horner's rule on the rounded moduli, has at most 4n + 2 roundings
    in a term, so it is at least half the exact sum.  With v_i the
    computed p(z_i), and as 2n + 1 < 2^(b + 1),
    |p(z_i)| <= |v_i| + 2 gamma_(2n+1) S_i <= |v_i| + 2^(b + 4 - w) S_i,
    and the radius adds twice that term.  The other 2n + 5 roundings (the
    product and its modulus, |v_i|, the sum, the factor n and the
    quotient) change the quotient by a factor within 1 +- 2^(b + 4 - w),
    and the radius takes the factor 1 + 2^(b + 6 - w), which also covers
    the rounding of that last product.
    """
    if p.degree <= 0:
        raise ValueError("no roots of a constant")
    zeros_at_origin, coeffs = _split_origin(p)
    disks = [(mpc(0), mpf(0))] * zeros_at_origin
    n = len(coeffs) - 1
    if n == 0:
        return disks
    centres = _float_start([mpc(x) for x in coeffs])
    if centres is None:
        return None
    b = n.bit_length()
    with mp.workprec(mp.prec + 32):
        w = mp.prec
        c = [mpc(x) for x in coeffs]
        sizes = [abs(x) for x in c]
        for i, z in enumerate(centres):
            d = c[-1]
            for j, other in enumerate(centres):
                if j != i:
                    d *= z - other
            value = abs(_horner(c, z)) + mpf(2) ** (b + 5 - w) * _horner(sizes, abs(z))
            disks.append((z, n * value / abs(d) * (1 + mpf(2) ** (b + 6 - w))))
    return disks


def _split_origin(p: Polynomial):
    """(the number of exact zeros of p at 0, the coefficient list of p with them divided out)."""
    k = next(k for k, c in enumerate(p.coeffs) if c != 0)
    return k, list(p.coeffs[k:])


def _horner(cs, x):
    """cs[0] + cs[1] x + ... by Horner's rule; the leading coefficient is rounded first (+c)."""
    acc = +cs[-1]
    for a in cs[-2::-1]:
        acc = acc * x + a
    return acc


def _raw_horner(cs, t, prec):
    """_horner on raw mpf tuples at prec, with the operations and roundings of mpf_mul and mpf_add."""
    if not cs:
        return fzero
    acc = mpf_pos(cs[-1], prec, round_nearest)
    for a in cs[-2::-1]:
        acc = mpf_add(mpf_mul(acc, t, prec, round_nearest), a, prec, round_nearest)
    return acc


def _circle_start(c) -> list:
    """n points on the circle of radius |c_0/c_n|^(1/n), rotated off the axes."""
    n = len(c) - 1
    radius = abs(c[0] / c[n]) ** (mpf(1) / n)
    if radius == 0 or not mp.isfinite(radius):
        radius = mpf(1)
    return [radius * mp.expjpi(2 * (mpf(k) + mpf("0.35")) / n) for k in range(n)]


def _float_start(c):
    """The roots of c from Aberth sweeps in float64, run from the circle start at 117 bits.

    Returns None when they are not finite and pairwise distinct (relative
    gap above 2^-16), as at a multiple root or when the coefficients leave
    the float64 range.
    """
    n = len(c) - 1
    try:
        cf = [complex(x) for x in c]
        dc = [k * cf[k] for k in range(1, n + 1)]
        norm = max(abs(x) for x in cf)
        # float64 points need 64 guard bits, not the working precision's
        # P + max(64, 4 deg), at which each point costs a long mp.expjpi
        with mp.workprec(53 + 64):
            z = [complex(w) for w in _circle_start(c)]
        floor_metric = 2.0 ** (-53 + 12 + n.bit_length())
        for _ in range(100):
            # no metric is below the floor -1, so every sweep steps: the
            # sweep that reaches floor_metric still polishes the start
            if _sweep(cf, dc, z, norm, -1.0, 1.0, 53)[0] <= floor_metric:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    if not all(cmath.isfinite(w) for w in z):
        return None
    for i in range(n):
        for j in range(i):
            if abs(z[i] - z[j]) <= 2.0**-16 * (1 + max(abs(z[i]), abs(z[j]))):
                return None
    return [mpc(w) for w in z]


def _sweep(c, dc, z, norm, floor, one, bits):
    """One Aberth-Ehrlich sweep over the approximations z, updated in place.

    Works on Python complex (one = 1.0, bits = 53) and on mpc (one =
    mpf(1), bits = mp.prec) alike.  It first takes p at every z_i and the
    largest scaled residual |p(z_i)| / (||p|| max(1, |z_i|)^n); at or below
    floor it returns (that metric, None) without a step.  Otherwise it steps
    each z_i in turn (Gauss-Seidel) with its value p(z_i): z_i moves only at
    its own step, so that is the value its step reads.  p' is taken at z_i,
    nudged by the factor 1 + 2^(-bits/3) when it vanishes there, or to
    2^(-bits/3) from z_i = 0, which no factor moves; two equal
    approximations take 1/(2^(-bits/2) (1 + |z_i|)) for 1/(z_i - z_j).
    Returns (metric, moved), moved the largest relative step
    |step| / (1 + |z_i|).
    """
    n = len(c) - 1
    values = [_horner(c, w) for w in z]
    metric = 0 * one
    for v, w in zip(values, z):
        metric = max(metric, abs(v) / (norm * max(one, abs(w)) ** n))
    if metric <= floor:
        return metric, None
    shift = (2 * one) ** (-bits // 3)
    tiny = (2 * one) ** (-bits // 2)
    moved = 0 * one
    for i, pv in enumerate(values):
        if pv == 0:
            continue
        dv = _horner(dc, z[i])
        if dv == 0:
            z[i] = z[i] * (1 + shift) if z[i] else z[i] + shift
            dv = _horner(dc, z[i])
            if dv == 0:
                continue
        newton = pv / dv
        s = 0
        for j in range(n):
            if j != i:
                diff = z[i] - z[j]
                s += 1 / diff if diff else 1 / (tiny * (1 + abs(z[i])))
        denom = 1 - newton * s
        step = newton if denom == 0 else newton / denom
        z[i] = z[i] - step
        moved = max(moved, abs(step) / (1 + abs(z[i])))
    return metric, moved


def _aberth(c, z) -> list:
    """Simultaneous Aberth-Ehrlich iteration from the start z, updated in place; c ascending mpc, c0 != 0.

    The sweeps (_sweep) run at the ambient precision P and stop, without a
    step, once the largest scaled residual is at the floor
    2^(-P + 12 + bitlength n).  The iteration also stops once the largest
    relative step is below 2^(-P + 16) with the residual below
    2^(-P/2 - 8); after more than 20 sweeps without a 1% gain in the
    residual it restarts from a seeded random jitter of the approximations
    (the factor 1 + 2^(-P/4) u, |Re u|, |Im u| <= 1, or the offset
    2^(-P/4) u for an approximation at 0), at most 4 times.
    """
    n = len(c) - 1
    dc = [k * c[k] for k in range(1, n + 1)]
    norm = max(abs(x) for x in c)
    rng = random.Random(0xA8E27 ^ n)

    floor_metric = mpf(2) ** (-mp.prec + 12 + n.bit_length())
    accept_metric = mpf(2) ** (-mp.prec // 2 - 8)
    best = mp.inf
    stall = 0
    restarts = 0
    max_iter = 600
    for _ in range(max_iter):
        metric, moved = _sweep(c, dc, z, norm, floor_metric, mpf(1), mp.prec)
        if moved is None:
            break
        if moved <= mpf(2) ** (-mp.prec + 16) and metric <= accept_metric:
            break
        if metric < best * mpf("0.99"):
            best = metric
            stall = 0
        else:
            stall += 1
        # stagnation: random perturbation restart
        if stall > 20:
            if metric <= accept_metric:
                break
            restarts += 1
            if restarts > 4:
                break
            jitter = mpf(2) ** (-mp.prec // 4)
            for i, w in enumerate(z):
                kick = jitter * mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                z[i] = w * (1 + kick) if w else kick
            best = mp.inf
            stall = 0
    return z


def _symmetrize_conjugates(roots, prec) -> list:
    """Snap near-real roots to the axis and average conjugate partners."""
    snap = mpf(2) ** (-prec // 2)
    real_parts = []
    complex_parts = []
    for z in roots:
        if abs(z.imag) <= snap * (1 + abs(z.real)):
            real_parts.append(mpc(z.real, 0))
        else:
            complex_parts.append(z)
    out = list(real_parts)
    pending = sorted(complex_parts, key=lambda w: (w.real, abs(w.imag), w.imag))
    while pending:
        z0 = pending.pop(0)
        if not pending:
            # partner got snapped real; keep best-effort real projection
            out.append(mpc(z0.real, 0))
            break
        target = mp.conj(z0)
        j = min(range(len(pending)), key=lambda k: abs(pending[k] - target))
        z1 = pending.pop(j)
        w = (z0 + mp.conj(z1)) / 2
        if w.imag < 0:
            w = mp.conj(w)
        out.extend([w, mp.conj(w)])
    return out
