"""Integer Smith normal form and small exact linear solvers.

Used for: structure of the sign-twist group K (torsion of coker C^T),
solving C^T x = b over Q (z'-class construction and truncation shifts) and
C^T k = b over Z/M (root-of-unity parts), and the determinant and adjugate
of a square matrix over Z[x^+-1] (factorization of l-weights in the A and
Lambda bases).

A Laurent polynomial over Z is a dict {exponent: int} with no zero values.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import poly_mul, poly_sub


def smith_normal_form(A):
    """Return (D, U, V) with U*A*V = D diagonal, U and V unimodular."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i1, i2, f):
        # row i1 -= f*row i2
        D[i1] = [a - f * b for a, b in zip(D[i1], D[i2])]
        U[i1] = [a - f * b for a, b in zip(U[i1], U[i2])]

    def col_op(j1, j2, f):
        for r in range(m):
            D[r][j1] -= f * D[r][j2]
        for r in range(n):
            V[r][j1] -= f * V[r][j2]

    def row_swap(i1, i2):
        D[i1], D[i2] = D[i2], D[i1]
        U[i1], U[i2] = U[i2], U[i1]

    def col_swap(j1, j2):
        for r in range(m):
            D[r][j1], D[r][j2] = D[r][j2], D[r][j1]
        for r in range(n):
            V[r][j1], V[r][j2] = V[r][j2], V[r][j1]

    s = 0
    while s < min(m, n):
        # find a nonzero pivot of smallest absolute value
        piv = None
        for i in range(s, m):
            for j in range(s, n):
                if D[i][j] and (piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        row_swap(s, piv[0])
        col_swap(s, piv[1])
        done = False
        while not done:
            done = True
            for i in range(s + 1, m):
                if D[i][s]:
                    f = D[i][s] // D[s][s]
                    row_op(i, s, f)
                    if D[i][s]:
                        row_swap(s, i)
                        done = False
            for j in range(s + 1, n):
                if D[s][j]:
                    f = D[s][j] // D[s][s]
                    col_op(j, s, f)
                    if D[s][j]:
                        col_swap(s, j)
                        done = False
        if D[s][s] < 0:
            D[s] = [-x for x in D[s]]
            U[s] = [-x for x in U[s]]
        # divisibility condition d_s | D[i][j]
        fixed = True
        for i in range(s + 1, m):
            for j in range(s + 1, n):
                if D[i][j] % D[s][s]:
                    row_op(s, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            s += 1
    return D, U, V


def invariant_factors(A):
    D, _, _ = smith_normal_form(A)
    out = []
    for k in range(min(len(D), len(D[0]) if D else 0)):
        if D[k][k]:
            out.append(D[k][k])
    return out


def solve_mod(A, b, M):
    """One solution x of A x = b (mod M), or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    D, U, V = smith_normal_form(A)
    c = [sum(U[i][k] * b[k] for k in range(m)) % M for i in range(m)]
    y = [0] * n
    from math import gcd

    for i in range(m):
        d = D[i][i] if i < min(m, n) else 0
        if i < n and d:
            g = gcd(d, M)
            if c[i] % g:
                return None
            # solve d*y = c (mod M)
            dd, cc, mm = d // g, c[i] // g, M // g
            y[i] = (cc * pow(dd, -1, mm)) % mm
        elif c[i] % M:
            return None
    x = [sum(V[i][k] * y[k] for k in range(n)) % M for i in range(n)]
    return x


def solve_rational(A, b):
    """Unique-or-none solve of an (overdetermined) system over Q.

    Returns (solution, consistent, unique). Rows A[i] . x = b[i].
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [[Fraction(x) for x in A[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][n]:
            return None, False, False
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return x, True, len(pivots) == n


def laurent_divide(num, den):
    """Exact quotient num / den in Z[x^+-1], or None.

    None as soon as a quotient coefficient is not an integer, when the
    quotient's degree range is empty, or when a remainder is left.  den must
    be nonzero.  The quotient's exponents come in ascending order.
    """
    if not num:
        return {}
    lo, hi = min(num), max(num)
    dlo, dhi = min(den), max(den)
    qlo, qhi = lo - dlo, hi - dhi
    if qhi < qlo:
        return None
    rem = [0] * (hi - lo + 1)
    for e, c in num.items():
        rem[e - lo] = c
    dcoef = [(e - dlo, c) for e, c in den.items()]
    lead = den[dhi]
    out = {}
    for t in range(qhi, qlo - 1, -1):
        c = rem[t - qlo + dhi - dlo]
        if not c:
            continue
        q, r = divmod(c, lead)
        if r:
            return None
        out[t] = q
        base = t - qlo
        for o, d in dcoef:
            rem[base + o] -= q * d
    if any(rem):
        return None
    return dict(sorted(out.items()))


def bareiss_adjugate(P):
    """(det P, adj P) of a square matrix over Z[x^+-1], so adj P . P = det P . I.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [P | I]: every
    division is exact, and the final pivot and right block are det P and
    adj P up to the sign of the row permutation.  Raises ValueError when P
    is singular.
    """
    n = len(P)
    M = [
        [dict(e) for e in row] + [{0: 1} if i == j else {} for j in range(n)]
        for i, row in enumerate(P)
    ]
    prev = {0: 1}
    sign = 1
    for k in range(n):
        p = next((r for r in range(k, n) if M[r][k]), None)
        if p is None:
            raise ValueError("matrix is singular")
        if p != k:
            M[k], M[p] = M[p], M[k]
            sign = -sign
        piv, pivrow = M[k][k], M[k]
        for i in range(n):
            if i == k:
                continue
            row, f = M[i], M[i][k]
            for j in range(2 * n):
                if j != k:
                    row[j] = laurent_divide(
                        poly_sub(poly_mul(piv, row[j]), poly_mul(f, pivrow[j])), prev
                    )
            row[k] = {}
        prev = piv
    det = {e: sign * c for e, c in prev.items()}
    adj = [[{e: sign * c for e, c in x.items()} for x in row[n:]] for row in M]
    return det, adj
