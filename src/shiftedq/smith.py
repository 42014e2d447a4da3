"""Small exact linear algebra.

The determinant and adjugate of a square matrix over Z[x^+-1]
(bareiss_adjugate, the one exact elimination of the library: the truncation
shifts through adj(C^T) / det C, the inverse quantum Cartan matrix, and
factorization of l-weights in the A and Lambda bases), and exact division
of Laurent polynomials (laurent_divide).  solve_rational, a dense Fraction
solve over Q, is kept only as an independent test oracle and as a hook of
the benchmark tracer.

A Laurent polynomial over Z is a dict {exponent: int} with no zero values.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import poly_mul, poly_sub


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
