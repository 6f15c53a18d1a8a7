"""Signed atomic measures on bounded intervals and their Cauchy transforms.

Generating measures are either given atom lists or Gauss-type discretizations
of Legendre/Jacobi densities; after realization every measure is a finite
point-mass measure treated as exact, so every integral downstream is a finite
sum evaluated to solver precision.  The module also constructs the inverse
measure tau of a measure sigma, i.e. the atomic measure with 1/sigma-hat
= ell + tau-hat for a degree-one ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

from mpmath import fp, mp, mpc, mpf
from mpmath.matrices.eigen_symmetric import tridiag_eigen

from .algebra import Polynomial
from .precision import noise_floor

VALID_KINDS = ("atoms", "legendre-density", "jacobi-density")

# the attributes tridiag_eigen reads, for float64 (mpmath.fp has no hypot)
_FLOAT_QL = SimpleNamespace(dps=fp.dps, eps=fp.eps, hypot=math.hypot)


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [a, b], a < b strictly."""

    a: mpf
    b: mpf

    def __init__(self, a, b):
        object.__setattr__(self, "a", mpf(a))
        object.__setattr__(self, "b", mpf(b))
        if not (mp.isfinite(self.a) and mp.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    def contains(self, x) -> bool:
        return self.a <= x <= self.b

    @property
    def length(self) -> mpf:
        return self.b - self.a

    def distance_to(self, z) -> mpf:
        """Distance from a complex point to the interval (as a subset of R)."""
        z = mpc(z)
        dx = max(self.a - z.real, mpf(0), z.real - self.b)
        return mp.hypot(dx, z.imag)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite point-mass measure of constant sign.

    Weights are strictly positive; the measure's sign is the separate flag, so
    the signed mass at node i is sign * weights[i].
    """

    nodes: tuple
    weights: tuple
    sign: int
    support: Interval

    def __init__(self, nodes, weights, sign, support):
        nodes = tuple(mpf(x) for x in nodes)
        weights = tuple(mpf(w) for w in weights)
        if len(nodes) == 0:
            raise ValueError("measure needs at least one node")
        if len(nodes) != len(weights):
            raise ValueError("nodes and weights length mismatch")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be strictly positive")
        if any(nodes[i] >= nodes[i + 1] for i in range(len(nodes) - 1)):
            raise ValueError("nodes must be strictly increasing")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not (support.contains(nodes[0]) and support.contains(nodes[-1])):
            raise ValueError("nodes outside the support interval")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sign", int(sign))
        object.__setattr__(self, "support", support)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def total_mass(self) -> mpf:
        """Signed mass, the leading moment c_0."""
        return self.sign * mp.fsum(self.weights)

    @property
    def total_variation(self) -> mpf:
        return mp.fsum(self.weights)

    @property
    def outer_radius(self) -> mpf:
        return max(abs(self.nodes[0]), abs(self.nodes[-1]))

    def scaled(self, factor) -> "AtomicMeasure":
        """Same atoms with every weight multiplied by factor > 0."""
        factor = mpf(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure(self.nodes, [w * factor for w in self.weights], self.sign, self.support)


@dataclass
class MeasureSpec:
    """Ingestion description of one generating measure.

    kind "atoms" carries explicit node/weight lists; the density kinds are
    discretized by an n-point Gauss rule of the family at realization time,
    scaled by density_scale (whose sign becomes the measure's sign).
    """

    kind: str
    interval: Interval
    node_count: int = 0
    nodes: tuple = ()
    weights: tuple = ()
    sign: int = 1
    alpha: Optional[mpf] = None
    beta: Optional[mpf] = None
    density_scale: mpf = field(default_factory=lambda: mpf(1))

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "atoms":
            if not self.nodes:
                raise ValueError("atoms kind requires explicit nodes")
        else:
            if self.node_count < 1:
                raise ValueError("node_count must be >= 1")
        if self.kind == "jacobi-density":
            if self.alpha is None or self.beta is None:
                raise ValueError("jacobi-density requires alpha and beta")
            if not (mpf(self.alpha) > -1 and mpf(self.beta) > -1):
                raise ValueError("jacobi parameters must exceed -1")
        if mpf(self.density_scale) == 0:
            raise ValueError("density_scale must be nonzero")


def realize(spec: MeasureSpec) -> AtomicMeasure:
    """Materialize a MeasureSpec as an exact atomic measure."""
    if spec.kind == "atoms":
        return AtomicMeasure(spec.nodes, spec.weights, spec.sign, spec.interval)
    if spec.kind == "legendre-density":
        alpha = beta = mpf(0)
    else:
        alpha, beta = mpf(spec.alpha), mpf(spec.beta)
    xs, ws = gauss_jacobi_rule(spec.node_count, alpha, beta)
    half = spec.interval.length / 2
    center = (spec.interval.a + spec.interval.b) / 2
    scale = abs(mpf(spec.density_scale)) * half ** (alpha + beta + 1)
    sign = 1 if mpf(spec.density_scale) > 0 else -1
    return AtomicMeasure(
        [center + half * x for x in xs],
        [scale * w for w in ws],
        sign,
        spec.interval,
    )


def gauss_jacobi_rule(n: int, alpha, beta):
    """n-point Gauss rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Nodes are Newton-polished at working precision from float64 seeds, the
    eigenvalues of the Jacobi matrix by mpmath's implicit QL (EISPACK imtql2)
    run on Python floats; weights are the Christoffel numbers
    1 / sum_k p_k(x_i)^2 over the orthonormal polynomials below degree n.

    Newton runs at prec = P+64 bits and stops after applying a step s with
    |s| <= 2^(-floor(prec/2)-8) / n^2 * (1+|x|).  Its next error would be
    about C s^2 with C = |p_n''/2p_n'| = |sum_{j!=i} 1/(x_i-x_j)|; node gaps
    are of order 1/n^2 or wider, so C < n^4 and that error is below
    2^(-prec-16).  Under a symmetric weight (alpha == beta) every diag[k] is
    exactly 0 and round-to-nearest is symmetric, so p_k(-x) = (-1)^k p_k(x)
    exactly: only the lower n // 2 seeds are polished, an odd rule's middle
    node is exactly 0, and the upper half is the lower one negated in
    reverse order, with equal weights.
    """
    if n < 1:
        raise ValueError("rule needs at least one node")
    alpha, beta = mpf(alpha), mpf(beta)
    diag, offsq, mu0 = _jacobi_recurrence(n, alpha, beta)

    seeds = [float(a) for a in diag]  # sorted eigenvalues on return
    tridiag_eigen(_FLOAT_QL, seeds, [math.sqrt(b) for b in offsq[1:n]] + [0.0])

    symmetric = alpha == beta
    half = n // 2 if symmetric else n
    with mp.workprec(mp.prec + 64):
        nodes = [_newton_polish(x, n, diag, offsq) for x in seeds[:half]]
        if symmetric and n % 2:
            nodes.append(mpf(0))
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
    nodes = [mpf(x) for x in nodes]
    weights = [mpf(w) for w in weights]
    if symmetric:
        nodes += [-x for x in nodes[:half][::-1]]
        weights += weights[:half][::-1]
    if any(nodes[i] >= nodes[i + 1] for i in range(n - 1)):
        raise RuntimeError("quadrature nodes failed to separate; raise precision")
    return nodes, weights


def _jacobi_recurrence(n: int, alpha, beta):
    """Monic three-term recurrence data: diag a_k, offdiag b_k (b_0 := mu0)."""
    ab = alpha + beta
    diag = []
    offsq = [mpf(0)] * (n + 1)
    mu0 = 2 ** (ab + 1) * mp.gamma(alpha + 1) * mp.gamma(beta + 1) / mp.gamma(ab + 2)
    offsq[0] = mu0
    for k in range(n):
        if k == 0:
            diag.append((beta - alpha) / (ab + 2))
        else:
            diag.append((beta**2 - alpha**2) / ((2 * k + ab) * (2 * k + ab + 2)))
        if k + 1 == 1:
            offsq[1] = 4 * (1 + alpha) * (1 + beta) / ((2 + ab) ** 2 * (3 + ab))
        else:
            kk = mpf(k + 1)
            offsq[k + 1] = (
                4 * kk * (kk + alpha) * (kk + beta) * (kk + ab)
                / ((2 * kk + ab) ** 2 * (2 * kk + ab + 1) * (2 * kk + ab - 1))
            )
    return diag, offsq, mu0


def _newton_polish(x0, n, diag, offsq):
    x = mpf(x0)
    tol = mpf(2) ** (-(mp.prec // 2) - 8) / n**2
    for _ in range(80):
        p_prev, p = mpf(0), mpf(1)
        dp_prev, dp = mpf(0), mpf(0)
        for k in range(n):
            p_prev, p, dp_prev, dp = (
                p,
                (x - diag[k]) * p - offsq[k] * p_prev,
                dp,
                p + (x - diag[k]) * dp - offsq[k] * dp_prev,
            )
        step = p / dp
        x -= step
        if abs(step) <= tol * (1 + abs(x)):
            return x
    raise RuntimeError("quadrature node failed to converge; raise precision")


def moments(mu: AtomicMeasure, K: int) -> tuple:
    """Moments c_0..c_K, mu-hat's tail: a tuple whose entry k is the coefficient of z^-(k+1)."""
    if K < 0:
        raise ValueError("moment order must be nonnegative")
    out = []
    powers = list(mu.weights)
    for _ in range(K + 1):
        out.append(mu.sign * mp.fsum(powers))
        powers = [p * x for p, x in zip(powers, mu.nodes)]
    return tuple(out)


def cauchy_eval(mu: AtomicMeasure, z):
    """Cauchy transform sign * sum_i w_i / (z - x_i); errors on the support.

    "On the support" means within the noise floor tol of an atom.  The atoms
    lie in mu.support = [a, b], so the per-atom test only runs when
    |Im z| <= 2 tol and Re z is at most 2 tol outside [a, b] (the factor 2
    absorbs rounding): a point outside that box is farther than tol from
    every atom, so real comparisons rule it out before any complex
    arithmetic.
    """
    z = mpc(z) if isinstance(z, (complex, mpc)) else mpf(z)
    re, im = (z.real, abs(z.imag)) if isinstance(z, mpc) else (z, 0)
    tol = noise_floor(0.5)
    gate = 2 * tol
    if (
        im <= gate
        and mu.support.a - re <= gate
        and re - mu.support.b <= gate
        and any(abs(z - x) <= tol for x in mu.nodes)
    ):
        raise ValueError("evaluation on support")
    return mu.sign * mp.fsum(w / (z - x) for x, w in zip(mu.nodes, mu.weights))


def cauchy_derivative(mu: AtomicMeasure, z):
    """d/dz of the Cauchy transform: -sign * sum_i w_i / (z - x_i)^2."""
    z = mpc(z) if isinstance(z, (complex, mpc)) else mpf(z)
    return -mu.sign * mp.fsum(w / (z - x) ** 2 for x, w in zip(mu.nodes, mu.weights))


def inverse_measure(mu: AtomicMeasure):
    """Split 1/mu-hat into a linear part and an atomic tail: 1/mu-hat = ell + tau-hat.

    ell(z) = z/c_0 - c_1/c_0^2; tau's nodes are the zeros of mu-hat (one per
    gap between consecutive nodes, interlacing), its weights the moduli of the
    residues 1/mu-hat'(y) there, all of one shared sign.  A single-atom measure
    has an empty tau (returned as None).

    Returns (ell: Polynomial, tau: AtomicMeasure or None).
    """
    c = moments(mu, 1)
    c0, c1 = c[0], c[1]
    ell = Polynomial([-c1 / c0**2, 1 / c0])
    if mu.node_count == 1:
        return ell, None

    with mp.workprec(mp.prec + 64):
        roots = [_gap_root(mu, i) for i in range(mu.node_count - 1)]
        residues = [1 / cauchy_derivative(mu, y) for y in roots]
    if any(r == 0 for r in residues):
        raise RuntimeError("inverse measure construction failed; raise precision")
    res_sign = 1 if residues[0] > 0 else -1
    if any((r > 0) != (res_sign > 0) for r in residues):
        raise RuntimeError("inverse measure construction failed; raise precision")
    tau = AtomicMeasure(roots, [abs(r) for r in residues], res_sign, mu.support)
    return ell, tau


def _gap_root(mu: AtomicMeasure, i: int) -> mpf:
    """Unique zero of mu-hat in the open gap (x_i, x_{i+1}).

    A bracket [a, b] inside the gap is shrunk toward the atoms until mu-hat
    changes sign across it.  Newton then starts from the float64 root of
    _float_gap_root when that lies strictly inside the bracket, and from
    the bracket's midpoint otherwise (float64 cannot place a root that sits
    closer to an atom than its rounding, nor weights beyond its range).
    Each iterate x replaces a or b by the sign of mu-hat at x, so the
    bracket keeps the root, and a step that would leave the bracket is
    replaced by one to its midpoint.  The root may lie far closer to one
    atom than to the other (lopsided weights); the midpoint steps then close
    in on it.
    """
    lo, hi = mu.nodes[i], mu.nodes[i + 1]
    gap = hi - lo

    def f(t):
        return mp.fsum(w / (t - x) for x, w in zip(mu.nodes, mu.weights))

    def df(t):
        return -mp.fsum(w / (t - x) ** 2 for x, w in zip(mu.nodes, mu.weights))

    # mu-hat (sign stripped) runs from +inf to -inf across the gap; shrink
    # toward the poles until the bracket is sign-definite.
    a, b = lo + gap / 8, hi - gap / 8
    fa, fb = f(a), f(b)
    shrink = 0
    while not (fa > 0 > fb):
        if fa <= 0:
            a = lo + (a - lo) / 2
            fa = f(a)
        if fb >= 0:
            b = hi - (hi - b) / 2
            fb = f(b)
        shrink += 1
        if shrink > mp.prec:
            raise RuntimeError("inverse measure construction failed; raise precision")
    start = _float_gap_root(mu, i)
    x = mpf(start) if start is not None and a < start < b else (a + b) / 2
    tol = mpf(2) ** (-mp.prec + 8)
    for _ in range(2 * mp.prec):
        fx = f(x)
        if fx > 0:
            a = x
        else:
            b = x
        step = fx / df(x)
        # inclusive: the last, sub-ulp Newton step may land on a or b
        if not a <= x - step <= b:
            step = x - (a + b) / 2
        x = x - step
        if abs(step) <= tol * (1 + abs(x)):
            return x
    raise RuntimeError("inverse measure construction failed; raise precision")


def _float_gap_root(mu: AtomicMeasure, i: int) -> Optional[float]:
    """A float64 zero of mu-hat in the gap (x_i, x_{i+1}), or None.

    The same safeguarded Newton as _gap_root, in Python floats, on the
    bracket of the float gap itself, where the sign-stripped mu-hat runs
    from +inf to -inf.  Only a Newton step, not a midpoint one, can meet
    the stop rule.  Returns None when a value leaves the float range, an
    iterate hits an atom, or no Newton step settles: so when the root lies
    closer to an atom than float64 resolves, the midpoint steps shrink the
    bracket onto that atom and the caller falls back to its own start.
    """
    xs = [float(x) for x in mu.nodes]
    ws = [float(w) for w in mu.weights]
    a, b = xs[i], xs[i + 1]
    x = (a + b) / 2
    try:
        for _ in range(200):
            fx = math.fsum(w / (x - t) for t, w in zip(xs, ws))
            if not math.isfinite(fx):
                return None
            if fx > 0:
                a = x
            else:
                b = x
            step = fx / -math.fsum(w / (x - t) ** 2 for t, w in zip(xs, ws))
            if x - step == x:
                return x
            if not a < x - step < b:
                x = (a + b) / 2
                continue
            x = x - step
            if abs(step) <= 2.0**-50 * (1 + abs(x)):
                return x
    except (OverflowError, ZeroDivisionError):
        return None
    return None
