"""Numerical quantification of the ratio asymptotics and zero attraction.

The solved vectors are compared against their limit targets on a compact
evaluation grid away from the last interval and from the perturbation's
poles: a_j/a_m tends to (-1)^(m-j) s-hat_{m,j+1} and a_0/a_m to the reversed
transform combination carrying the perturbation.  convergence_row is the
one way to the errors: each row reads its targets from ratio_targets, whose
transforms come from the system's table (nikishin.s_hat_evals), so a sweep
evaluates each s-hat_{m,j+1}(z) once, all m of a point in one pass over
sigma_m's atoms, and combines them once per point, perturbation and
precision into the system's table targets; a single pass over the grid
per solved vector then yields all m sup-errors of its row.

Each grid point has one power row z^0..z^D, formed by repeated
multiplication at P + 64 bits and kept in the grid's table, per
precision, as Re and Im integers at one exponent (_PowerRow); a row of
higher degree than any before extends it.  Each a_j(z) is the exact sum
of the exact products c_k z^k, an integer dot product of the power row
with a_j's coefficients (integers at their least exponent), rounded once
to P.  The guard bits make each value the correctly rounded one, and so
at least as close to the exact value as Horner's, unless the sum cancels
by some 50 bits.  With the powers rounded to P instead, the row errors of
the smoke, readme-m2 and deep-diag-m2 workloads (seeds 0 and 3) lay
farther than Horner's from a 3P evaluation, by more than one ulp of the
target scale, in 12 of 44 columns; with the guard, in none.  So a row
costs two dot products per component and point, and the powers and the
targets are formed once per sweep: on deep-diag-m2 (seed 0) the table
holds 49 points x 24 powers at 512 bits in 339 KiB, the targets 14 KiB,
and peak RSS rose 1.7% (readme-m2: 49 x 12 powers at 256 bits, 102 KiB,
+0.5%), while experiment_s fell 9.4% there and 11.2% on readme-m2 (10
alternating benchmark pairs of 20 s).

A row evaluates one point of each exact conjugate pair of its grid: it
drops a non-real point whose conjugate, compared as _mpc_ tuples, came
earlier in grid.points.  The measures are real and the a_j and r_j have
real coefficients, mpmath rounds to nearest symmetrically and the Cauchy
pass truncates toward zero, so the power row, the Cauchy passes,
RationalFn.__call__ and the complex division all give at z-bar the exact
conjugates of their values at z, and every |error|
and |target| there is its partner's, bit for bit.  The match is on values,
not on the default grid's layout, so an explicit grid loses only true
pairs; on the default grid, 31 of 80 points.

The rows of a diagonal sweep feed a least-squares geometric rate
estimate, and root censuses verify that each pole of multiplicity kappa
captures exactly kappa zeros of every component while stray zeros vanish.
sign_changes counts the alternations of a list of values; the sign-change
check gives it hermite_pade.first_level_remainder_values, the remainder at
sigma_1's atoms, where orthogonality puts the sign changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mul
from typing import Optional

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero, mpc_mul, mpf_neg, round_nearest

from .hermite_pade import MultiIndex, RationalPerturbation, TypeIVector
# cauchy_eval is unused here; benchmark/spans.py still patches analysis.cauchy_eval
from .measures import Interval, _integer_row, _integers, cauchy_eval, on_support  # noqa: F401
from .nikishin import NikishinSystem, s_hat_evals
from .precision import checked_int, noise_floor


@dataclass(frozen=True)
class EvalGrid:
    """Evaluation points in a compact set off the last interval and the poles.

    Both ways to a grid, default and an explicit list (cli), keep their
    candidates through admissible, so one set of rules decides which
    points a grid holds.  powers is the table convergence_row reads: per
    mp.prec, the points it evaluates (one per exact conjugate pair) and
    each one's _PowerRow.  It is not a constructor argument, and it is
    left out of equality and repr.
    """

    points: tuple
    powers: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(mpc(z) for z in points))
        object.__setattr__(self, "powers", {})
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
        lifted 0.1i off the axis.  The points go through admissible with the
        clearance 1/4: a point on the last interval or on an atom, or closer
        than 1/4 to a pole, is dropped.  A radius_factor of 1 or less lets the
        circle reach the supports, so it raises ValueError, as do a point
        count that is negative or not an integer (an integral float is
        converted) and a radius of 0, which puts every circle point on the
        atom at 0.
        """
        if not mpf(radius_factor) > 1:
            raise ValueError(f"radius_factor must exceed 1, got {radius_factor}")
        circle_points = checked_int(circle_points, "circle_points")
        segment_points = checked_int(segment_points, "segment_points")
        if circle_points < 0 or segment_points < 0:
            raise ValueError("circle_points and segment_points must be nonnegative")
        outer = sys.outer_radius
        poles = pert.poles if pert is not None else ()
        for zeta, _ in poles:
            outer = max(outer, abs(zeta))
        radius = mpf(radius_factor) * outer
        if not radius > 0:
            raise ValueError("the default grid needs a positive radius; every atom and pole is at 0")
        pts = [radius * mp.expjpi(2 * mpf(k) / circle_points) for k in range(circle_points)]
        # m = 1 has first == last, which gap reports as an overlap: no segment
        lo, hi = sys.intervals[0].gap(sys.intervals[-1])
        if lo < hi and segment_points > 0:
            span = hi - lo
            if segment_points == 1:
                pts.append(mpc(lo + span / 2, mpf("0.1")))
            else:
                for i in range(segment_points):
                    t = mpf("0.1") + mpf("0.8") * i / (segment_points - 1)
                    pts.append(mpc(lo + t * span, mpf("0.1")))
        return cls.admissible(sys, pert, pts, mpf("0.25"))

    @classmethod
    def admissible(cls, sys, pert, points, clearance) -> "EvalGrid":
        """The points, in their order, where the ratio targets can be evaluated.

        A point is kept when it is off the last interval, on no generator's
        support by measures.on_support (the test cauchy_evals raises
        through), and both farther than 2^-P/2 and at least `clearance`
        from every pole of pert.  None kept raises ValueError.
        """
        last, tol = sys.intervals[-1], noise_floor(0.5)
        poles = [zeta for zeta, _ in pert.poles] if pert is not None else []
        kept = [
            z
            for z in map(mpc, points)
            if (z.imag or not last.contains(z.real))
            and not any(on_support(mu, z) for mu in sys.generators)
            and all(d > tol and d >= clearance for d in (abs(z - zeta) for zeta in poles))
        ]
        if not kept:
            raise ValueError("every grid point is on the last interval, on an atom or near a pole")
        return cls(kept)


@dataclass(frozen=True)
class ConvergenceRow:
    """One sweep entry: target-normalized sup-errors for a solved multi-index.

    digits and nullity_flag are the vector's (TypeIVector.digits): the
    digits it holds for the atoms as realized at the system's precision.
    """

    n: MultiIndex
    err: tuple
    err0: mpf
    nullity_flag: bool
    precision_bits: int
    digits: float


def ratio_targets(
    sys: NikishinSystem, pert: Optional[RationalPerturbation], grid: EvalGrid
) -> tuple:
    """The limits of a_0/a_m, ..., a_{m-1}/a_m at every grid point.

    Entry [i][j] is the target of a_j/a_m at grid.points[i]:
    (-1)^(m-j) s-hat_{m,j+1} for 1 <= j < m, and for j = 0
        (-1)^m s-hat_{m,1} - sum_{j<m} (-1)^(m-j) r_j s-hat_{m,j+1} - r_m.
    The transforms s-hat_{m,j+1} come from the system's table, so they are
    evaluated once per point however many rows ask, the missing ones of a
    point in one pass over sigma_m's atoms.  Each point's tuple is
    combined once and kept in the system's table sys.targets, under
    (pert, mp.prec) and the point's _mpc_ tuple, so a later call with the
    same perturbation at the same precision reads it.
    """
    m = sys.m
    table = sys.targets.setdefault((pert, mp.prec), {})
    out = []
    for z in grid.points:
        row = table.get(z._mpc_)
        if row is None:
            s = s_hat_evals(sys, m, range(1, m + 1), z)
            t0 = (-1) ** m * s[0]
            if pert is not None:
                for j in range(1, m):
                    f = pert.fractions[j - 1]
                    if not f.is_zero:
                        t0 -= (-1) ** (m - j) * f(z) * s[j]
                if not pert.fractions[m - 1].is_zero:
                    t0 -= pert.fractions[m - 1](z)
            row = table[z._mpc_] = (t0,) + tuple((-1) ** (m - j) * s[j] for j in range(1, m))
        out.append(row)
    return tuple(out)


def convergence_row(
    sys: NikishinSystem,
    pert: Optional[RationalPerturbation],
    v: TypeIVector,
    grid: EvalGrid,
) -> ConvergenceRow:
    """Sup-errors of a_j/a_m (1 <= j < m) and a_0/a_m, each over its target's sup.

    One pass over the grid evaluates a_0..a_m once per point from the
    point's power row (see the module docstring) and skips the points
    where |a_m(z)| < 2^-P/2 sum_k |c_k z^k|, the c_k being a_m's
    coefficients: a gate relative to the terms that cancel, so it scales
    with a_m.  Every sup, of errors and of targets alike, runs over the
    points kept.  Of each exact conjugate pair only the first point is
    evaluated, targets included: the other's errors and targets are equal
    bit for bit (see the module docstring), so the sups are unchanged.
    Normalization makes rows exactly invariant under generator rescaling
    for plain systems (the blockwise nullspace covariance cancels), while
    leaving monotonicity and rate estimates untouched.
    """
    points, powers = _grid_table(grid)
    targets = ratio_targets(sys, pert, points)
    if v.a[v.m].is_zero:
        raise ValueError("degenerate last component")
    coeffs = [_integer_row(p.coeffs) for p in v.a]
    if any(None in ints for ints, _ in coeffs):
        raise ValueError("a coefficient is not finite")
    count = max(len(ints) for ints, _ in coeffs)
    skip_below = noise_floor(0.5)
    # entry j accumulates a_j/a_m, matching the column order of the targets
    sup_err = [mpf(0)] * v.m
    scale = [mpf(0)] * v.m
    kept = 0
    for row, t_row in zip(powers, targets):
        row.extend(count)
        values, size = row.values(coeffs)
        den = values[-1]
        if abs(den) < skip_below * size:
            continue
        kept += 1
        for j, t in enumerate(t_row):
            scale[j] = max(scale[j], abs(t))
            sup_err[j] = max(sup_err[j], abs(values[j] / den - t))
    if kept == 0:
        raise RuntimeError("every grid point fell on a zero of the last component")
    floor = mpf(2) ** (-mp.prec)
    errs = [e / max(s, floor) for e, s in zip(sup_err, scale)]
    return ConvergenceRow(v.n, tuple(errs[1:]), errs[0], v.nullity_flag, v.precision_bits, v.digits)


def _grid_table(grid: EvalGrid):
    """(the grid of points a row evaluates, their _PowerRow list), from grid.powers at mp.prec."""
    prec = mp.prec
    table = grid.powers.get(prec)
    if table is None:
        points = _one_per_conjugate_pair(grid)
        table = grid.powers[prec] = (points, [_PowerRow(z) for z in points.points])
    return table


def _one_per_conjugate_pair(grid: EvalGrid) -> EvalGrid:
    """grid less each non-real point whose exact conjugate, as an _mpc_ pair, came earlier."""
    seen = set()
    kept = []
    for z in grid.points:
        re, im = z._mpc_
        if im != fzero and (re, mpf_neg(im)) in seen:
            continue
        seen.add(z._mpc_)
        kept.append(z)
    return EvalGrid(kept)


class _PowerRow:
    """The powers z^0, z^1, ... of one grid point, at P + 64 bits, as integers.

    Power k is (re[k] + i im[k]) 2^exp, exp being the least exponent of
    every part formed so far, and power k + 1 is mpc_mul of power k and z
    at P + 64 bits, rounded to nearest.  extend forms the powers a longer
    row needs; each power is a function of the one before, so a row grown
    in steps holds the powers a row formed at once would hold, bit for
    bit.  A non-finite point raises ValueError.
    """

    __slots__ = ("z", "exp", "re", "im")

    def __init__(self, z):
        if not mp.isfinite(z):
            raise ValueError(f"the grid point {z} is not finite")
        self.z, self.exp, self.re, self.im = z._mpc_, 0, [1], [0]

    def extend(self, count: int) -> None:
        """Form powers up to z^(count - 1), realigning the kept ones if a new part has a lower exponent."""
        if count <= len(self.re):
            return
        prec = mp.prec + 64
        power = (from_man_exp(self.re[-1], self.exp), from_man_exp(self.im[-1], self.exp))
        new = []
        for _ in range(count - len(self.re)):
            power = mpc_mul(power, self.z, prec, round_nearest)
            new.append(power)
        low = min((e for pair in new for _, man, e, _ in pair if man), default=self.exp)
        if low < self.exp:
            shift = self.exp - low
            self.re = [r << shift for r in self.re]
            self.im = [i << shift for i in self.im]
            self.exp = low
        self.re += _integers([re for re, _ in new], self.exp)
        self.im += _integers([im for _, im in new], self.exp)

    def values(self, coeffs):
        """The values at z of real polynomials, and a size of the last one's terms.

        coeffs holds each polynomial's (integers, low) as _integer_row
        gives them, and the row must hold at least as many powers as the
        longest.  Returns (values, size): each value, as an mpc, is the
        exact sum of the exact products c_k z^k, real and imaginary parts
        apart, rounded once to P; size is sum_k |c_k| (|Re z^k| + |Im z^k|)
        over the last polynomial, rounded once to P, which bounds
        sum_k |c_k z^k| to within a factor sqrt 2.
        """
        prec, rnd = mp.prec, round_nearest
        re, im, exp = self.re, self.im, self.exp
        values = [
            mp.make_mpc(
                (
                    from_man_exp(sum(map(mul, ints, re)), low + exp, prec, rnd),
                    from_man_exp(sum(map(mul, ints, im)), low + exp, prec, rnd),
                )
            )
            for ints, low in coeffs
        ]
        ints, low = coeffs[-1]
        size = sum(map(mul, map(abs, ints), map(add, map(abs, re), map(abs, im))))
        return values, mp.make_mpf(from_man_exp(size, low + exp, prec, rnd))


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares geometric rates exp(slope of log err vs |n|), per column.

    digits holds, per column, the least digits of the rows its rate was
    fitted to (None where there is no rate).
    """

    deltas: dict
    notes: tuple
    digits: dict


def estimate_rate(rows) -> RateEstimate:
    """The rate of each error column over the rows, sorted by |n|.

    A flagged row (nullity_flag) and a row whose error is exactly 0 are
    left out of the fit, each with a note; a column with fewer than two
    rows left has no rate.  Fewer than three rows, or two of equal |n|,
    raise ValueError.
    """
    rows = sorted(rows, key=lambda r: r.n.total)
    if len(rows) < 3:
        raise ValueError("rate estimation needs at least three rows")
    totals = [r.n.total for r in rows]
    if any(totals[i] >= totals[i + 1] for i in range(len(totals) - 1)):
        raise ValueError("rows must have strictly increasing |n|")
    notes = []
    deltas = {}
    least = {}
    m_minus_1 = len(rows[0].err)
    columns = [(f"err_{j + 1}", [r.err[j] for r in rows]) for j in range(m_minus_1)]
    columns.append(("err_0", [r.err0 for r in rows]))
    for name, errs in columns:
        xs, ys, fitted = [], [], []
        for row, t, e in zip(rows, totals, errs):
            if row.nullity_flag:
                notes.append(f"{name}: row |n|={t} excluded (flagged)")
                continue
            if e == 0:
                notes.append(f"{name}: row |n|={t} excluded (exact recovery)")
                continue
            xs.append(mpf(t))
            ys.append(mp.log(e))
            fitted.append(row.digits)
        if len(xs) < 2:
            notes.append(f"{name}: not enough nonzero rows for a rate")
            deltas[name] = least[name] = None
            continue
        least[name] = min(fitted)
        xbar = mp.fsum(xs) / len(xs)
        ybar = mp.fsum(ys) / len(ys)
        sxx = mp.fsum((x - xbar) ** 2 for x in xs)
        sxy = mp.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        deltas[name] = mp.e ** (sxy / sxx)
    return RateEstimate(deltas, tuple(notes), least)


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
    eps-inflation of the last interval, and within the far radius
    4 max(|a|, |b|, 1, |poles|) of the last interval [a, b] and the poles.
    That radius reads only the last interval, with a floor of 1, so it is
    not EvalGrid.default's circle, which takes radius_factor times the
    outer radius of every support and pole.
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
