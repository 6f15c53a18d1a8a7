"""Numerical quantification of the ratio asymptotics and zero attraction.

The solved vectors are compared against their limit targets on a compact
evaluation grid away from the last interval and from the perturbation's
poles: a_j/a_m tends to (-1)^(m-j) s-hat_{m,j+1} and a_0/a_m to the reversed
transform combination carrying the perturbation.  convergence_row is the
one way to the errors: each row builds its targets with ratio_targets, whose
transforms come from the system's table (nikishin.s_hat_evals), so a sweep
evaluates each s-hat_{m,j+1}(z) once, all m of a point in one pass over
sigma_m's atoms, and only recombines them per row; a single pass over the
grid per solved vector then yields all m sup-errors of its row.

At each grid point a row builds one power row z^0..z^D, D being the
largest degree among a_0..a_m, by repeated multiplication at P + 64 bits,
and each a_j(z) is the exact sum of the exact products c_k z^k, rounded
once to P: m + 1 Horner passes cost m + 1 complex multiply-adds per
degree, the power row one complex product per degree.  The guard bits make
each value the correctly rounded one, and so at least as close to the
exact value as Horner's, unless the sum cancels by some 50 bits.  With the
powers rounded to P instead, the row errors of the smoke, readme-m2 and
deep-diag-m2 workloads (seeds 0 and 3) lay farther than Horner's from a 3P
evaluation, by more than one ulp of the target scale, in 12 of 44
columns; with the guard, in none.  The power row is dropped after its
point: a table of them over the grid (80 points x 25 powers at 512 bits)
would cost more memory than it saves time, and the next row's vector has
other coefficients anyway.

The rows of a diagonal sweep feed a least-squares geometric rate
estimate, and root censuses verify that each pole of multiplicity kappa
captures exactly kappa zeros of every component while stray zeros vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpc, mpf
from mpmath.libmp import fone, fzero, mpc_mul, mpf_mul, mpf_pos, mpf_sum, round_nearest

from .hermite_pade import MultiIndex, RationalPerturbation, TypeIVector, remainder_eval
# cauchy_eval is unused here; benchmark/spans.py still patches analysis.cauchy_eval
from .measures import Interval, cauchy_eval  # noqa: F401
from .nikishin import NikishinSystem, s_hat_evals
from .precision import noise_floor


@dataclass(frozen=True)
class EvalGrid:
    """Evaluation points in a compact set off the last interval and the poles."""

    points: tuple

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(mpc(z) for z in points))
        if not self.points:
            raise ValueError("empty evaluation grid")

    @classmethod
    def default(
        cls,
        sys: NikishinSystem,
        pert: Optional[RationalPerturbation] = None,
        radius_factor=4,
        circle_points: int = 64,
        segment_points: int = 16,
    ) -> "EvalGrid":
        """Circle of radius radius_factor * (outer radius of supports and poles),
        plus a short segment in the gap between the first and last intervals,
        lifted 0.1i off the axis.  Points closer than 1/4 to a pole are dropped.
        A radius_factor of 1 or less lets the circle reach the supports, so it
        raises ValueError, as does a negative point count.
        """
        if not mpf(radius_factor) > 1:
            raise ValueError(f"radius_factor must exceed 1, got {radius_factor}")
        if circle_points < 0 or segment_points < 0:
            raise ValueError("circle_points and segment_points must be nonnegative")
        outer = sys.outer_radius
        poles = pert.poles if pert is not None else ()
        for zeta, _ in poles:
            outer = max(outer, abs(zeta))
        radius = mpf(radius_factor) * outer
        pts = [radius * mp.expjpi(2 * mpf(k) / circle_points) for k in range(circle_points)]
        first, last = sys.intervals[0], sys.intervals[-1]
        lo = hi = None
        if first.b < last.a:
            lo, hi = first.b, last.a
        elif last.b < first.a:
            lo, hi = last.b, first.a
        if lo is not None and segment_points > 0:
            span = hi - lo
            if segment_points == 1:
                pts.append(mpc(lo + span / 2, mpf("0.1")))
            else:
                for i in range(segment_points):
                    t = mpf("0.1") + mpf("0.8") * i / (segment_points - 1)
                    pts.append(mpc(lo + t * span, mpf("0.1")))
        clearance = mpf("0.25")
        return cls(z for z in pts if all(abs(z - zeta) >= clearance for zeta, _ in poles))


@dataclass(frozen=True)
class ConvergenceRow:
    """One sweep entry: target-normalized sup-errors for a solved multi-index."""

    n: MultiIndex
    err: tuple
    err0: mpf
    nullity_flag: bool
    precision_bits: int


def ratio_targets(
    sys: NikishinSystem, pert: Optional[RationalPerturbation], grid: EvalGrid
) -> tuple:
    """The limits of a_0/a_m, ..., a_{m-1}/a_m at every grid point.

    Entry [i][j] is the target of a_j/a_m at grid.points[i]:
    (-1)^(m-j) s-hat_{m,j+1} for 1 <= j < m, and for j = 0
        (-1)^m s-hat_{m,1} - sum_{j<m} (-1)^(m-j) r_j s-hat_{m,j+1} - r_m.
    The transforms s-hat_{m,j+1} come from the system's table, so they are
    evaluated once per point however many rows ask, the missing ones of a
    point in one pass over sigma_m's atoms.
    """
    m = sys.m
    out = []
    for z in grid.points:
        s = s_hat_evals(sys, m, range(1, m + 1), z)
        t0 = (-1) ** m * s[0]
        if pert is not None:
            for j in range(1, m):
                f = pert.fractions[j - 1]
                if not f.is_zero:
                    t0 -= (-1) ** (m - j) * f(z) * s[j]
            if not pert.fractions[m - 1].is_zero:
                t0 -= pert.fractions[m - 1](z)
        out.append((t0,) + tuple((-1) ** (m - j) * s[j] for j in range(1, m)))
    return tuple(out)


def convergence_row(
    sys: NikishinSystem,
    pert: Optional[RationalPerturbation],
    v: TypeIVector,
    grid: EvalGrid,
) -> ConvergenceRow:
    """Sup-errors of a_j/a_m (1 <= j < m) and a_0/a_m, each over its target's sup.

    One pass over the grid evaluates a_0..a_m once per point from one power
    row (see the module docstring) and skips the points where
    |a_m| < 2^-P/2; every sup, of errors and of targets alike, runs over the
    points kept.  Normalization makes rows exactly invariant under generator
    rescaling for plain systems (the blockwise nullspace covariance
    cancels), while leaving monotonicity and rate estimates untouched.
    """
    targets = ratio_targets(sys, pert, grid)
    if v.a[v.m].is_zero:
        raise ValueError("degenerate last component")
    skip_below = noise_floor(0.5)
    # entry j accumulates a_j/a_m, matching the column order of the targets
    sup_err = [mpf(0)] * v.m
    scale = [mpf(0)] * v.m
    kept = 0
    coeffs = [[c._mpf_ for c in p.coeffs] for p in v.a]
    for z, row in zip(grid.points, targets):
        values = _values_at(coeffs, z)
        den = values[-1]
        if abs(den) < skip_below:
            continue
        kept += 1
        for j, t in enumerate(row):
            scale[j] = max(scale[j], abs(t))
            sup_err[j] = max(sup_err[j], abs(values[j] / den - t))
    if kept == 0:
        raise RuntimeError("every grid point fell on a zero of the last component")
    floor = mpf(2) ** (-mp.prec)
    errs = [e / max(s, floor) for e, s in zip(sup_err, scale)]
    return ConvergenceRow(v.n, tuple(errs[1:]), errs[0], v.nullity_flag, v.precision_bits)


def _values_at(coeffs, z) -> list:
    """The values at a complex z of the real polynomials with raw coefficients coeffs, as mpc.

    The powers z^0..z^D, D the largest degree, are formed by repeated
    multiplication rounded to P + 64 bits; each value is the exact sum of
    the exact products c_k z^k, real and imaginary parts apart, rounded
    once to P.
    """
    prec, rnd = mp.prec, round_nearest
    zz = mpc(z)._mpc_
    powers = [(fone, fzero)]
    for _ in range(max(len(c) for c in coeffs) - 1):
        powers.append(mpc_mul(powers[-1], zz, prec + 64, rnd))
    out = []
    for cs in coeffs:
        re = mpf_sum([mpf_mul(c, p[0]) for c, p in zip(cs, powers)])
        im = mpf_sum([mpf_mul(c, p[1]) for c, p in zip(cs, powers)])
        out.append(mp.make_mpc((mpf_pos(re, prec, rnd), mpf_pos(im, prec, rnd))))
    return out


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares geometric rates exp(slope of log err vs |n|), per column."""

    deltas: dict
    notes: tuple


def estimate_rate(rows) -> RateEstimate:
    rows = sorted(rows, key=lambda r: r.n.total)
    if len(rows) < 3:
        raise ValueError("rate estimation needs at least three rows")
    totals = [r.n.total for r in rows]
    if any(totals[i] >= totals[i + 1] for i in range(len(totals) - 1)):
        raise ValueError("rows must have strictly increasing |n|")
    notes = []
    deltas = {}
    m_minus_1 = len(rows[0].err)
    columns = [(f"err_{j + 1}", [r.err[j] for r in rows]) for j in range(m_minus_1)]
    columns.append(("err_0", [r.err0 for r in rows]))
    for name, errs in columns:
        xs, ys = [], []
        for t, e in zip(totals, errs):
            if e == 0:
                notes.append(f"{name}: row |n|={t} excluded (exact recovery)")
                continue
            xs.append(mpf(t))
            ys.append(mp.log(e))
        if len(xs) < 2:
            notes.append(f"{name}: not enough nonzero rows for a rate")
            deltas[name] = None
            continue
        xbar = mp.fsum(xs) / len(xs)
        ybar = mp.fsum(ys) / len(ys)
        sxx = mp.fsum((x - xbar) ** 2 for x in xs)
        sxy = mp.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        deltas[name] = mp.e ** (sxy / sxx)
    return RateEstimate(deltas, tuple(notes))


def sign_changes(values) -> int:
    """Strict sign alternations, ignoring entries below 2^-P/2 of the max."""
    values = [mpf(v) for v in values]
    mx = max((abs(v) for v in values), default=mpf(0))
    if mx == 0:
        raise ValueError("function vanishes on grid")
    tol = noise_floor(0.5) * mx
    kept = [v for v in values if abs(v) > tol]
    if not kept:
        raise ValueError("function vanishes on grid")
    count = 0
    for a, b in zip(kept, kept[1:]):
        if (a > 0) != (b > 0):
            count += 1
    return count


def first_level_sign_grid(sys: NikishinSystem, refine: bool = False):
    """Ordered interior points where A_1's alternations are counted.

    Atoms of sigma_1 and the midpoints between them; refine adds the quarter
    points flanking each atom.  The transforms inside A_1 live on later
    intervals, so values at the atoms themselves are finite.
    """
    nodes = sys.generators[0].nodes
    pts = list(nodes)
    for x, y in zip(nodes, nodes[1:]):
        pts.append((x + y) / 2)
        if refine:
            pts.append(x + (y - x) / 4)
            pts.append(x + 3 * (y - x) / 4)
    return sorted(pts)


def first_level_remainder_values(sys: NikishinSystem, v: TypeIVector, refine: bool = False):
    return [remainder_eval(sys, v, 1, x) for x in first_level_sign_grid(sys, refine)]


@dataclass(frozen=True)
class PoleAttractionReport:
    """Per-pole zero capture counts and the off-pole, off-interval stray census."""

    counts: tuple  # (zeta, kappa, zeros within eps)
    strays: tuple
    total_roots: int


def validate_pole_eps(pert: Optional[RationalPerturbation], eps, last_interval: Interval) -> mpf:
    """eps as an mpf, once it is positive and below half of every pole
    separation and of every pole's distance to the last interval."""
    eps = mpf(eps)
    if not eps > 0:  # NaN included
        raise ValueError("eps must be positive")
    poles = pert.poles if pert is not None else ()
    for i in range(len(poles)):
        for k in range(i + 1, len(poles)):
            if eps >= abs(poles[i][0] - poles[k][0]) / 2:
                raise ValueError("eps exceeds half the minimal pole separation")
    for zeta, _ in poles:
        if eps >= last_interval.distance_to(zeta) / 2:
            raise ValueError("eps exceeds half the pole distance to the last interval")
    return eps


def pole_attraction(
    pert: Optional[RationalPerturbation],
    v: TypeIVector,
    j: int,
    eps,
    last_interval: Interval,
) -> PoleAttractionReport:
    """Count zeros of a_j inside eps-balls at the poles; census the leftovers.

    Strays are roots farther than eps from every pole, outside the
    eps-inflation of the last interval, and within 4x the outer radius of the
    poles and the last interval (the compact scale of the default grid).
    Zeros beyond that radius belong to the point at infinity: the predicted
    limit puts kappa zeros at each pole and every other zero on the last
    interval or out at infinity, so strays should empty as |n| grows.
    """
    from .algebra import poly_roots

    if not 1 <= j <= v.m:
        raise IndexError("component out of range")
    eps = validate_pole_eps(pert, eps, last_interval)
    poles = pert.poles if pert is not None else ()
    outer = max(abs(last_interval.a), abs(last_interval.b), mpf(1))
    for zeta, _ in poles:
        outer = max(outer, abs(zeta))
    far_radius = 4 * outer
    poly = v.a[j].trimmed()
    if poly.is_zero:
        raise ValueError("component is identically zero")
    roots = poly_roots(poly) if poly.degree >= 1 else []
    counts = []
    for zeta, kappa in poles:
        counts.append((zeta, kappa, sum(1 for r in roots if abs(r - zeta) < eps)))
    strays = tuple(
        r
        for r in roots
        if all(abs(r - zeta) >= eps for zeta, _ in poles)
        and last_interval.distance_to(r) > eps
        and abs(r) <= far_radius
    )
    return PoleAttractionReport(tuple(counts), strays, len(roots))
