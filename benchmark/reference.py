"""Independent reference for the benchmark's accuracy checks.

It uses mpmath's scalar arithmetic and `mp.lu_solve` only: no function of
nikishin_hp and no SVD.  It starts from the generators' atoms as the
package realized them (those are the data every later result is exact
for) and checks them on their own:

- a Chebyshev rule (Jacobi alpha = beta = -1/2) against its closed form,
  nodes cos((2i-1)pi/2N) and weights pi/N;
- every Gauss rule against its exactness on the monomials up to degree
  2N-1, whose exact integrals are sums of Beta functions.

From the atoms it recomputes, at `prec` bits (twice the working precision
or more), the chain weights, the moments, the Laurent terms of the
perturbation v_j/t_j, and each type I vector, solved as a square system
with the last coefficient of a_m fixed to 1.  It also evaluates every chain
transform s-hat_{j,k} at given points.
"""

from __future__ import annotations

from mpmath import mp, mpf

# -- atoms --------------------------------------------------------------


def check_rule(spec: dict, nodes, weights, sign: int, prec: int) -> list:
    """Problems found in one realized generator (empty when it is exact).

    `spec` is the generator's raw config entry; nodes and weights are the
    package's realized atoms, computed at `prec` bits.
    """
    problems = []
    kind = spec["kind"]
    if kind == "atoms":
        return problems
    N = int(spec["node_count"])
    alpha = mpf(spec.get("alpha", 0)) if kind == "jacobi-density" else mpf(0)
    beta = mpf(spec.get("beta", 0)) if kind == "jacobi-density" else mpf(0)
    scale = mpf(spec.get("density_scale", 1))
    a, b = (mpf(e) for e in spec["interval"])
    if len(nodes) != N:
        return [f"{N}-node rule has {len(nodes)} atoms"]
    if sign != (1 if scale > 0 else -1):
        problems.append("measure sign differs from the sign of density_scale")
    tol = mpf(2) ** (-(prec - 16))
    with mp.workprec(2 * prec + 4 * N + 64):
        if alpha == beta == mpf(-0.5):
            c, h = (a + b) / 2, (b - a) / 2
            closed = sorted(c + h * mp.cos((2 * i - 1) * mp.pi / (2 * N)) for i in range(1, N + 1))
            worst_x = max(abs(x - y) / max(1, abs(y)) for x, y in zip(nodes, closed))
            w = abs(scale) * mp.pi / N
            worst_w = max(abs(v - w) / w for v in weights)
            if worst_x > tol or worst_w > tol:
                off = mp.nstr(max(worst_x, worst_w), 3)
                problems.append(f"Chebyshev atoms off their closed form by {off}")
        # exact moments of |scale| (b-t)^alpha (t-a)^beta dt on [a, b]:
        # (b-a)^(alpha+beta+1) sum_i C(k,i) a^(k-i) (b-a)^i B(i+beta+1, alpha+1)
        L = b - a
        betas = [mp.beta(beta + 1, alpha + 1)]
        for i in range(2 * N):
            betas.append(betas[-1] * (i + beta + 1) / (i + beta + alpha + 2))
        front = abs(scale) * L ** (alpha + beta + 1)
        worst = mpf(0)
        for k in range(2 * N):
            exact = front * mp.fsum(
                mp.binomial(k, i) * a ** (k - i) * L**i * betas[i] for i in range(k + 1)
            )
            terms = [w * x**k for x, w in zip(nodes, weights)]
            size = mp.fsum(abs(t) for t in terms)
            worst = max(worst, abs(mp.fsum(terms) - exact) / size)
        if worst > tol:
            problems.append(
                f"rule not exact on monomials to degree {2 * N - 1}: error {mp.nstr(worst, 3)}"
            )
    return problems


# -- chains and transforms ----------------------------------------------


def _transform(atoms, z):
    nodes, masses = atoms
    return mp.fsum(m / (z - x) for x, m in zip(nodes, masses))


def chains(generators):
    """Forward and reversed chains as (nodes, signed masses), keyed (j, k).

    generators: one (nodes, signed masses) pair per generator, first to
    last.  s_{j,k} for j <= k lives on sigma_j's nodes with masses
    sigma_j(x) * s-hat_{j+1,k}(x); the reversed s_{k,j} (k > j) lives on
    sigma_k's nodes with masses sigma_k(x) * s-hat_{k-1,j}(x).
    """
    m = len(generators)
    out = {}
    for j in range(m, 0, -1):
        out[(j, j)] = generators[j - 1]
        for k in range(j + 1, m + 1):
            nodes, masses = generators[j - 1]
            inner = out[(j + 1, k)]
            out[(j, k)] = (nodes, [w * _transform(inner, x) for x, w in zip(nodes, masses)])
    for k in range(2, m + 1):
        for j in range(k - 1, 0, -1):
            nodes, masses = generators[k - 1]
            inner = out[(k - 1, j)]
            out[(k, j)] = (nodes, [w * _transform(inner, x) for x, w in zip(nodes, masses)])
    return out


def s_hat(table, j, k, z):
    return _transform(table[(j, k)], z)


# -- type I ---------------------------------------------------------------


def laurent(num, den, K):
    """c_0..c_{K-1} with num/den = sum_k c_k z^-(k+1); ascending coefficients."""
    D = len(den) - 1
    out = []
    for k in range(K):
        p = D - 1 - k
        acc = mpf(num[p]) if 0 <= p < len(num) else mpf(0)
        for i in range(D):
            if 0 <= k - D + i:
                acc -= den[i] * out[k - D + i]
        out.append(acc / den[D])
    return out


def moments(atoms, K):
    nodes, masses = atoms
    return [mp.fsum(m * x**k for x, m in zip(nodes, masses)) for k in range(K)]


def type1(tails, n):
    """Normalized type I vector [a_0, a_1, ..., a_m] as coefficient lists.

    tails[j][k] is the coefficient of z^-(k+1) in f_{j+1}.  The |n|-1 order
    conditions sum_j sum_l a_{j,l} tails[j][l+t] = 0 (t = 0..|n|-2) are
    solved with a_{m, n_m - 1} = 1; the result is then scaled like the
    package's: unit maximum coefficient over a_1..a_m, which keeps that
    leading coefficient positive.
    """
    m, N = len(n), sum(n)
    cols = [(j, l) for j in range(m) for l in range(n[j])][:-1]
    A = mp.matrix(N - 1, N - 1)
    rhs = mp.matrix(N - 1, 1)
    for t in range(N - 1):
        for c, (j, l) in enumerate(cols):
            A[t, c] = tails[j][l + t]
        rhs[t] = -tails[m - 1][n[m - 1] - 1 + t]
    x = mp.lu_solve(A, rhs)
    blocks = [[mpf(0)] * n[j] for j in range(m)]
    for c, (j, l) in enumerate(cols):
        blocks[j][l] = x[c]
    blocks[m - 1][n[m - 1] - 1] = mpf(1)
    # a_0 = -(polynomial part of sum_j a_j f_j)
    a0 = []
    for p in range(max(max(n) - 1, 0)):
        a0.append(
            -mp.fsum(
                blocks[j][l] * tails[j][l - p - 1] for j in range(m) for l in range(p + 1, n[j])
            )
        )
    mx = max(abs(c) for blk in blocks for c in blk)
    return [[c / mx for c in blk] for blk in [a0] + blocks]


def disagreement(got, ref):
    """max |got - ref| / max |ref| over coefficient lists (zero-padded)."""
    worst = mpf(0)
    size = mpf(0)
    for g, r in zip(got, ref):
        width = max(len(g), len(r))
        g = list(g) + [mpf(0)] * (width - len(g))
        r = list(r) + [mpf(0)] * (width - len(r))
        for x, y in zip(g, r):
            worst = max(worst, abs(x - y))
            size = max(size, abs(y))
    return worst / size
