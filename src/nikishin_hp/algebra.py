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
otherwise, at P); _horner is Horner's rule on mpf or mpc objects,
_raw_horner and _mpc_horner the same rule on raw mpf and mpc tuples, with
its roundings; and _norm forms a^2 + b^2 truncated to P + 10 bits, the
|d|^2 of mpmath's mpc_mpf_div, for the Aberth steps here.

Root localization uses simultaneous Aberth-Ehrlich iteration: sweeps in
float64 give the starting points (a circle when the float64 roots are not
finite and distinct), then sweeps at P + max(64, 4 deg) bits, with seeded
random restarts on stagnation, refine them, followed by conjugate
symmetrization for real input.  Each multiprecision sweep first evaluates
p at every approximation and ends the iteration, without a step, once
those residuals are at the floor; otherwise it steps with the same values.
The sweeps run on raw mpmath.libmp tuples with the operations and
roundings of mpc arithmetic.
"""

from __future__ import annotations

import cmath
import random

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fone,
    fzero,
    mpc_abs,
    mpc_div,
    mpc_mul,
    mpc_mul_mpf,
    mpc_pos,
    mpc_sub,
    mpc_zero,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sub,
    round_nearest,
)

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
    coeffs = list(p.coeffs)
    zeros_at_origin = 0
    while coeffs[0] == 0:
        zeros_at_origin += 1
        coeffs.pop(0)
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


def _float_sweep(c, dc, z, norm):
    """One float64 Aberth-Ehrlich sweep over the approximations z, updated in place.

    Returns (metric, moved): the largest scaled residual
    |p(z_i)| / (||p|| max(1, |z_i|)^n), each taken just before z_i steps,
    and the largest relative step.
    """
    n = len(c) - 1
    metric = moved = 0.0
    for i in range(n):
        pv = _horner(c, z[i])
        metric = max(metric, abs(pv) / (norm * max(1.0, abs(z[i])) ** n))
        if pv == 0:
            continue
        dv = _horner(dc, z[i])
        if dv == 0:
            # a multiple of 0 is 0: from there the nudge adds
            z[i] = z[i] * (1 + 2.0 ** (-53 // 3)) if z[i] else 2.0 ** (-53 // 3)
            dv = _horner(dc, z[i])
            if dv == 0:
                continue
        newton = pv / dv
        s = 0
        for j in range(n):
            if j == i:
                continue
            diff = z[i] - z[j]
            if diff == 0:
                diff = 2.0 ** (-53 // 2) * (1 + abs(z[i]))
            s += 1 / diff
        denom = 1 - newton * s
        step = newton if denom == 0 else newton / denom
        z[i] = z[i] - step
        moved = max(moved, abs(step) / (1 + abs(z[i])))
    return metric, moved


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
            if _float_sweep(cf, dc, z, norm)[0] <= floor_metric:
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


def _aberth(c, z) -> list:
    """Simultaneous Aberth-Ehrlich iteration from the start z; c ascending mpc, c0 != 0.

    Each sweep first takes p at every approximation (_residuals) and stops
    the iteration, without stepping, when the largest scaled residual is at
    the floor 2^(-P + 12 + bitlength n).  Otherwise _steps moves each z_i in
    turn with those same values: z_i moves only at its own step, so they
    are the values that step reads.  The iteration also stops once the
    largest relative step is below 2^(-P + 16) with the residual below
    2^(-P/2 - 8); after more than 20 sweeps without a 1% gain in the
    residual it restarts from a seeded random jitter of the approximations
    (the factor 1 + 2^(-P/4) u, |Re u|, |Im u| <= 1, or the offset
    2^(-P/4) u for an approximation at 0), at most 4 times.  The sweeps
    run on raw mpmath.libmp tuples, with the operations and roundings of
    the mpc arithmetic.
    """
    n = len(c) - 1
    cs = [x._mpc_ for x in c]
    dcs = [(k * c[k])._mpc_ for k in range(1, n + 1)]
    norm = max(abs(x) for x in c)._mpf_
    zs = [w._mpc_ for w in z]
    rng = random.Random(0xA8E27 ^ n)

    floor_metric = mpf(2) ** (-mp.prec + 12 + n.bit_length())
    accept_metric = mpf(2) ** (-mp.prec // 2 - 8)
    best = mp.inf
    stall = 0
    restarts = 0
    max_iter = 600
    for _ in range(max_iter):
        values, metric = _residuals(cs, zs, norm)
        metric = mp.make_mpf(metric)
        if metric <= floor_metric:
            break
        moved = mp.make_mpf(_steps(dcs, zs, values))
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
            for i, w in enumerate(zs):
                kick = jitter * mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                zs[i] = (mp.make_mpc(w) * (1 + kick) if w != mpc_zero else kick)._mpc_
            best = mp.inf
            stall = 0
    return [mp.make_mpc(w) for w in zs]


def _mpc_horner(cs, z):
    """_horner on raw mpc tuples at P, with the operations and roundings of mpc_mul and mpc_add.

    Adding an exact zero imaginary part is skipped: it gives back the sum
    already rounded to P.
    """
    prec, rnd = mp.prec, round_nearest
    zr, zi = z
    re, im = mpc_pos(cs[-1], prec, rnd)
    for cr, ci in cs[-2::-1]:
        re, im = (
            mpf_sub(mpf_mul(re, zr), mpf_mul(im, zi), prec, rnd),
            mpf_add(mpf_mul(re, zi), mpf_mul(im, zr), prec, rnd),
        )
        re = mpf_add(re, cr, prec, rnd)
        if ci != fzero:
            im = mpf_add(im, ci, prec, rnd)
    return re, im


def _residuals(cs, zs, norm):
    """The raw values p(z_i) and the largest |p(z_i)| / (norm max(1, |z_i|)^n)."""
    prec, rnd = mp.prec, round_nearest
    n = len(cs) - 1
    values = [_mpc_horner(cs, z) for z in zs]
    metric = fzero
    for v, z in zip(values, zs):
        size = mpc_abs(z, prec, rnd)
        power = mpf_pow_int(size if mpf_gt(size, fone) else fone, n, prec, rnd)
        r = mpf_div(mpc_abs(v, prec, rnd), mpf_mul(norm, power, prec, rnd), prec, rnd)
        if mpf_gt(r, metric):
            metric = r
    return values, metric


def _norm(a, sq, wide) -> tuple:
    """Raw mpf_add(mpf_mul(a, a), sq, wide): a^2 + sq, sq >= 0, truncated to wide bits.

    This is the |d|^2 of mpc_mpf_div, with wide = P + 10 and truncation,
    libmp's default rounding; its one user is _steps, with d = a + i b and
    sq = b^2.  mpf_add truncates the exact sum,
    correctly, unless it perturbs the larger operand, which it may do only
    when their leading bits lie more than wide + 4 apart.  2 (exp(a) +
    bc(a)) is a^2's leading bit or the one above it, so mpf_add itself runs
    where that lies more than wide + 3 from sq's, or an operand is 0 or
    non-finite.
    """
    _, aman, aexp, abc = a
    _, iman, iexp, ibc = sq
    if aman and iman and -wide - 3 <= 2 * (aexp + abc) - iexp - ibc <= wide + 3:
        man, exp = aman * aman, 2 * aexp
        if exp >= iexp:
            man, exp = (man << (exp - iexp)) + iman, iexp
        else:
            man += iman << (iexp - exp)
        shift = man.bit_length() - wide
        if shift > 0:
            man >>= shift
            exp += shift
        if not man & 1:
            zeros = (man & -man).bit_length() - 1
            man >>= zeros
            exp += zeros
        return 0, man, exp, man.bit_length()
    return mpf_add(mpf_mul(a, a), sq, wide)


def _steps(dcs, zs, values):
    """Step each z_i in turn (Gauss-Seidel) from its value p(z_i); zs is updated in place.

    p' is taken at z_i, nudged by the factor 1 + 2^(-P/3) when it vanishes
    there, or to 2^(-P/3) from z_i = 0, which no factor moves.  Each
    1/(z_i - z_j) is formed as mpc_mpf_div(1, z_i - z_j) forms it:
    |z_i - z_j|^2 truncated to P + 10 bits (_norm), then two divisions
    at P; two equal approximations take 1/(2^(-P/2) (1 + |z_i|))
    instead.  Returns the largest relative step |step| / (1 + |z_i|), raw.
    """
    prec, rnd = mp.prec, round_nearest
    wide = prec + 10
    shift = mpf(2) ** (-prec // 3)
    nudge = (1 + shift)._mpf_
    tiny = (mpf(2) ** (-prec // 2))._mpf_
    moved = fzero
    for i, pv in enumerate(values):
        if pv == mpc_zero:
            continue
        z = zs[i]
        dv = _mpc_horner(dcs, z)
        if dv == mpc_zero:
            z = zs[i] = mpc_mul_mpf(z, nudge, prec, rnd) if z != mpc_zero else (shift._mpf_, fzero)
            dv = _mpc_horner(dcs, z)
            if dv == mpc_zero:
                continue
        newton = mpc_div(pv, dv, prec, rnd)
        zr, zi = z
        sr = si = fzero
        for j, (wr, wi) in enumerate(zs):
            if j == i:
                continue
            a = mpf_sub(zr, wr, prec, rnd)
            b = mpf_sub(zi, wi, prec, rnd)
            if a == fzero and b == fzero:
                stand_in = mpf_mul(tiny, mpf_add(mpc_abs(z, prec, rnd), fone, prec, rnd), prec, rnd)
                sr = mpf_add(sr, mpf_rdiv_int(1, stand_in, prec, rnd), prec, rnd)
                continue
            m = _norm(a, mpf_mul(b, b), wide)
            sr = mpf_add(sr, mpf_div(a, m, prec, rnd), prec, rnd)
            si = mpf_add(si, mpf_div(mpf_neg(b), m, prec, rnd), prec, rnd)
        denom = mpc_sub((fone, fzero), mpc_mul(newton, (sr, si), prec, rnd), prec, rnd)
        step = newton if denom == mpc_zero else mpc_div(newton, denom, prec, rnd)
        z = zs[i] = mpc_sub(z, step, prec, rnd)
        size = mpf_add(mpc_abs(z, prec, rnd), fone, prec, rnd)
        r = mpf_div(mpc_abs(step, prec, rnd), size, prec, rnd)
        if mpf_gt(r, moved):
            moved = r
    return moved


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
