"""Polynomial, rational-fraction and Laurent-tail arithmetic at working precision.

Polynomials are dense coefficient tuples in ascending degree; the zero
polynomial has degree -1 and the empty tuple is its unique representation.
Rational fractions are kept irreducible with monic denominator and vanish at
infinity (deg num < deg den).  A LaurentTail holds the expansion of such a
function at infinity: entry k is the coefficient of z^-(k+1).

Root localization uses simultaneous Aberth-Ehrlich iteration at working
precision with seeded random restarts on stagnation, followed by conjugate
symmetrization for real input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .precision import noise_floor


def to_scalar(x):
    """Coerce to mpf (real) or mpc (complex) at the ambient precision."""
    if isinstance(x, mpc) or isinstance(x, complex):
        z = mpc(x)
        return z
    return mpf(x)


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

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[k] - other[k] for k in range(n)])

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

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

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial.zero(), self
        rem = list(self.coeffs)
        lead = other.leading()
        dq = self.degree - other.degree
        quo = [mpf(0)] * (dq + 1)
        for k in range(dq, -1, -1):
            q = rem[other.degree + k] / lead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[i + k] -= q * c
        return Polynomial(quo), Polynomial(rem[: other.degree])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def __call__(self, z):
        acc = to_scalar(0) if not isinstance(z, (mpc, complex)) else mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

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


@dataclass(frozen=True)
class LaurentTail:
    """Expansion coefficients at infinity: entry k is the coefficient of z^-(k+1)."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(mpf(c) for c in coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> mpf:
        return self.coeffs[k]

    def __add__(self, other: "LaurentTail") -> "LaurentTail":
        if len(other) != len(self):
            raise ValueError("tail lengths differ")
        return LaurentTail([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __iter__(self):
        return iter(self.coeffs)

    def partial_sum(self, z):
        """Evaluate the truncated expansion at z."""
        acc = mpc(0)
        zk = 1 / mpc(z)
        for c in self.coeffs:
            acc += c * zk
            zk /= z
        return acc


class RationalFn:
    """Irreducible rational fraction vanishing at infinity (deg num < deg den).

    The denominator is normalized monic at construction; a zero numerator
    collapses to 0/1.
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
        g = poly_gcd(num, den)
        if g.degree > 0:
            raise ValueError("rational fraction must be irreducible")
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


def laurent_expand_rational(r: RationalFn, K: int) -> LaurentTail:
    """First K coefficients of the expansion of r at infinity.

    With t monic of degree d the coefficients satisfy the recurrence induced
    by v = t * tail:  h_k = v_{d-1-k} - sum_{i=max(0,d-k)}^{d-1} t_i h_{i-d+k}.
    """
    if K < 0:
        raise ValueError("expansion order must be nonnegative")
    d = r.den.degree
    h = []
    for k in range(K):
        s = r.num[d - 1 - k] if d - 1 - k >= 0 else mpf(0)
        for i in range(max(0, d - k), d):
            s -= r.den[i] * h[i - d + k]
        h.append(s)
    return LaurentTail(h)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd by a normalized Euclid remainder sequence.

    Remainders are rescaled to unit max-coefficient each step; a remainder is
    treated as zero once its max coefficient drops below 2^-P/2 relative to
    the normalized operands.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    tol = noise_floor(0.5)
    a, b = (p, q) if p.degree >= q.degree else (q, p)
    if not a.is_zero:
        a = Polynomial([c / a.max_coeff() for c in a.coeffs])
    if not b.is_zero:
        b = Polynomial([c / b.max_coeff() for c in b.coeffs])
    while True:
        if b.is_zero or b.max_coeff() <= tol:
            return a.monic()
        _, rem = divmod(a, b)
        if rem.is_zero or rem.max_coeff() <= tol:
            return b.monic()
        a, b = b, Polynomial([c / rem.max_coeff() for c in rem.coeffs])


# ---------------------------------------------------------------------------
# Root localization
# ---------------------------------------------------------------------------


def poly_roots(p: Polynomial) -> list:
    """All deg(p) roots with multiplicity, as mpc, sorted by (Re, Im).

    Each returned root satisfies |p(root)| <= 2^-P/2 * ||p|| * max(1,|root|)^deg
    at the ambient precision P; complex roots of real polynomials are returned
    in conjugate pairs.
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
            roots = _aberth(coeffs)
        if all(isinstance(c, mpf) for c in p.coeffs):
            roots = _symmetrize_conjugates(roots, prec)
    roots.extend(mpc(0) for _ in range(zeros_at_origin))
    roots.sort(key=lambda z: (z.real, z.imag))

    bound = noise_floor(0.5) * p.max_coeff()
    for r in roots:
        if abs(p(r)) > bound * max(mpf(1), abs(r)) ** p.degree:
            raise RuntimeError("root refinement failed; raise precision")
    return roots


def _aberth(coeffs) -> list:
    """Simultaneous Aberth-Ehrlich iteration; coeffs ascending, c0 != 0."""
    c = [mpc(x) for x in coeffs]
    n = len(c) - 1
    if n == 1:
        return [-c[0] / c[1]]
    dc = [k * c[k] for k in range(1, n + 1)]
    norm = max(abs(x) for x in c)
    rng = random.Random(0xA8E27 ^ n)

    radius = abs(c[0] / c[n]) ** (mpf(1) / n)
    if radius == 0 or not mp.isfinite(radius):
        radius = mpf(1)
    z = [
        radius * mp.expjpi(2 * (mpf(k) + mpf("0.35")) / n)
        for k in range(n)
    ]

    def horner(cs, x):
        acc = mpc(0)
        for a in reversed(cs):
            acc = acc * x + a
        return acc

    floor_metric = mpf(2) ** (-mp.prec + 12 + n.bit_length())
    accept_metric = mpf(2) ** (-mp.prec // 2 - 8)
    best = mp.inf
    stall = 0
    restarts = 0
    max_iter = 600
    for _ in range(max_iter):
        metric = mpf(0)
        moved = mpf(0)
        for i in range(n):
            pv = horner(c, z[i])
            m_i = abs(pv) / (norm * max(mpf(1), abs(z[i])) ** n)
            metric = max(metric, m_i)
            if pv == 0:
                continue
            dv = horner(dc, z[i])
            if dv == 0:
                z[i] *= 1 + mpf(2) ** (-mp.prec // 3)
                dv = horner(dc, z[i])
                if dv == 0:
                    continue
            newton = pv / dv
            s = mpc(0)
            for j in range(n):
                if j == i:
                    continue
                diff = z[i] - z[j]
                if diff == 0:
                    diff = mpf(2) ** (-mp.prec // 2) * (1 + abs(z[i]))
                s += 1 / diff
            denom = 1 - newton * s
            step = newton if denom == 0 else newton / denom
            z[i] = z[i] - step
            moved = max(moved, abs(step) / (1 + abs(z[i])))
        if metric <= floor_metric:
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
            z = [
                w * (1 + jitter * mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for w in z
            ]
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
