"""Singular values and right singular vectors on plain lists of mpf."""

from __future__ import annotations

from operator import mul

from mpmath import mp


def svd_sv(rows, cols: int):
    """Singular values S and the last right singular vector v of a real matrix.

    rows is the matrix as a list of row lists (any number of rows, each of
    length cols); it is not modified.  Returns (S, v): S is a list of cols
    values in decreasing order, of which only the first min(rows, cols) can
    be nonzero, and v is the last row of the orthogonal right factor V of
    A = U diag(S) V, the right singular direction of S[-1].  Neither U nor
    the final V is formed.

    Householder bidiagonalization followed by the implicitly shifted QR
    algorithm of G. H. Golub and C. Reinsch, Numer. Math. 14 (1970)
    403-420, as in the EISPACK routine svd.  This is a transcription of
    mpmath's svd_r_raw (mpmath/matrices/eigen_symmetric.py, copyright 2013
    Timo Hartmann, BSD licence) with calc_u false: the same operations in
    the same order at the ambient precision, so S and v are bit-identical
    to mp.svd_r's S and last row of V, but on lists instead of matrices.
    Loops that update many columns or rows at once are written as list
    comprehensions; each entry still sees the same sequence of roundings,
    and every sum is accumulated in the original order.

    The QR sweeps run twice.  The first, on copies of the bidiagonal and
    without V, yields S and the row idx of V that sorting S puts last.  QR
    phase k (k = n-1 down to 0) rotates only rows with index at most k, so
    row idx is final once phase idx has converged: the second pass rotates
    V through phase idx and stops there.
    """
    fabs, sqrt = mp.fabs, mp.sqrt
    zero, one = mp.zero, mp.one
    A = [list(row) for row in rows]
    m, n = len(A), cols
    S = [zero] * n
    work = [zero] * n
    g = scale = anorm = zero
    maxits = 3 * mp.dps

    for i in range(n):  # Householder reduction to bidiagonal form
        work[i] = scale * g
        g = s = scale = zero
        if i < m:
            below = A[i:]  # rows i..m-1, whose column i is reflected
            for row in below:
                scale += fabs(row[i])
            if scale != 0:
                for row in below:
                    x = row[i] = row[i] / scale
                    s += x * x
                f = A[i][i]
                g = -sqrt(s)
                if f < 0:
                    g = -g
                h = f * g - s
                A[i][i] = f - g
                # s_j = sum_k A[k][i] * A[k][j] for every column j > i at once
                sums = [0] * (n - i - 1)
                for row in below:
                    x = row[i]
                    sums = [t + x * y for t, y in zip(sums, row[i + 1 :])]
                fs = [t / h for t in sums]
                for row in below:
                    x = row[i]
                    row[i + 1 :] = [y + f * x for y, f in zip(row[i + 1 :], fs)]
                for row in below:
                    row[i] *= scale

        S[i] = scale * g
        g = s = scale = zero

        if i < m and i != n - 1:
            Ai = A[i]
            for k in range(i + 1, n):
                scale += fabs(Ai[k])
            if scale:
                for k in range(i + 1, n):
                    x = Ai[k] = Ai[k] / scale
                    s += x * x
                f = Ai[i + 1]
                g = -sqrt(s)
                if f < 0:
                    g = -g
                h = f * g - s
                Ai[i + 1] = f - g
                for k in range(i + 1, n):
                    work[k] = Ai[k] / h
                tail = work[i + 1 :]
                for Aj in A[i + 1 :]:
                    s = sum(map(mul, Aj[i + 1 :], Ai[i + 1 :]))
                    Aj[i + 1 :] = [y + s * w for y, w in zip(Aj[i + 1 :], tail)]
                for k in range(i + 1, n):
                    Ai[k] *= scale

        anorm = max(anorm, fabs(S[i]) + fabs(work[i]))

    V = [[zero] * n for _ in range(n)]
    for i in range(n - 2, -1, -1):  # accumulation of right-hand transformations
        V[i + 1][i + 1] = one
        if work[i + 1] != 0:
            Ai, Vi = A[i], V[i]
            for j in range(i + 1, n):
                Vi[j] = (Ai[j] / Ai[i + 1]) / work[i + 1]
            for Vj in V[i + 1 :]:
                s = sum(map(mul, Ai[i + 1 :], Vj[i + 1 :]))
                Vj[i + 1 :] = [y + s * x for y, x in zip(Vj[i + 1 :], Vi[i + 1 :])]
        for j in range(i + 1, n):
            V[j][i] = V[i][j] = zero
    V[0][0] = one

    values = S[:]
    _diagonalize(values, work[:], anorm, maxits, None, 0)
    order = list(range(n))
    for i in range(n):  # sort into decreasing order (selection by swaps)
        imax = i
        s = fabs(values[i])
        for j in range(i + 1, n):
            c = fabs(values[j])
            if c > s:
                s = c
                imax = j
        if imax != i:
            values[i], values[imax] = values[imax], values[i]
            order[i], order[imax] = order[imax], order[i]
    idx = order[-1]
    _diagonalize(S, work, anorm, maxits, V, idx)
    return values, V[idx]


def _diagonalize(S, work, anorm, maxits, V, last):
    """Golub-Reinsch QR sweeps on the bidiagonal (S, work), in place.

    Runs the phases k = n-1 down to last, phase k ending when S[k] has
    converged and been made nonnegative.  When V is not None its rows take
    the same rotations and sign flips.
    """
    fabs, hypot = mp.fabs, mp.hypot
    for k in range(len(S) - 1, last - 1, -1):
        # loop over singular values, and over allowed iterations
        its = 0
        while True:
            its += 1
            flag = True
            # work[0] is always zero, so the loop ends at l = 0 at the latest
            # and never reads S[-1]
            for l in range(k, -1, -1):
                nm = l - 1
                if fabs(work[l]) + anorm == anorm:
                    flag = False
                    break
                if fabs(S[nm]) + anorm == anorm:
                    break

            if flag:
                c = 0
                s = 1
                for i in range(l, k + 1):
                    f = s * work[i]
                    work[i] *= c
                    if fabs(f) + anorm == anorm:
                        break
                    g = S[i]
                    h = hypot(f, g)
                    S[i] = h
                    h = 1 / h
                    c = g * h
                    s = -f * h

            z = S[k]
            if l == k:  # convergence
                if z < 0:  # singular value is made nonnegative
                    S[k] = -z
                    if V is not None:
                        V[k] = [-y for y in V[k]]
                break

            if its >= maxits:
                raise RuntimeError(f"svd: no convergence to an eigenvalue after {its} iterations")

            x = S[l]  # shift from bottom 2 by 2 minor
            nm = k - 1
            y = S[nm]
            g = work[nm]
            h = work[k]
            f = ((y - z) * (y + z) + (g - h) * (g + h)) / (2 * h * y)
            g = hypot(f, 1)
            if f >= 0:
                f = ((x - z) * (x + z) + h * ((y / (f + g)) - h)) / x
            else:
                f = ((x - z) * (x + z) + h * ((y / (f - g)) - h)) / x

            c = s = 1  # next QR transformation
            for j in range(l, nm + 1):
                g = work[j + 1]
                y = S[j + 1]
                h = s * g
                g = c * g
                z = hypot(f, h)
                work[j] = z
                c = f / z
                s = h / z
                f = x * c + g * s
                g = g * c - x * s
                h = y * s
                y *= c
                if V is not None:
                    Vj, Vj1 = V[j], V[j + 1]
                    V[j] = [p * c + q * s for p, q in zip(Vj, Vj1)]
                    V[j + 1] = [q * c - p * s for p, q in zip(Vj, Vj1)]
                z = hypot(f, h)
                S[j] = z
                if z != 0:  # rotation can be arbitrary if z = 0
                    z = 1 / z
                    c = f * z
                    s = h * z
                f = c * g + s * y
                x = c * y - s * g

            work[l] = mp.zero
            work[k] = f
            S[k] = x
