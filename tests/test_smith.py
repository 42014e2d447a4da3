import random

import pytest

from shiftedq.smith import (
    bareiss_adjugate,
    in_span_mod,
    invariant_factors,
    kernel_mod,
    laurent_divide,
    smith_normal_form,
    solve_mod,
    solve_rational,
)


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    return sum(
        (-1) ** j * A[0][j] * det([row[:j] + row[j + 1:] for row in A[1:]])
        for j in range(n)
    )


def test_snf_random():
    rng = random.Random(3)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert abs(det(U)) == 1 and abs(det(V)) == 1
        diag = [D[k][k] for k in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        nz = [d for d in diag if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_invariant_factors_cartan():
    # coker of the transposed Cartan matrices: A1 -> Z/2, A2 -> Z/3
    assert invariant_factors([[2]]) == [2]
    assert invariant_factors([[2, -1], [-1, 2]]) == [1, 3]


def test_solve_and_kernel_mod():
    rng = random.Random(5)
    M = 8
    for _ in range(30):
        n = rng.randint(1, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        x0 = [rng.randint(0, M - 1) for _ in range(n)]
        b = [sum(A[i][k] * x0[k] for k in range(n)) % M for i in range(n)]
        x = solve_mod(A, b, M)
        assert x is not None
        bx = [sum(A[i][k] * x[k] for k in range(n)) % M for i in range(n)]
        assert bx == b
        for g in kernel_mod(A, M):
            assert all(
                sum(A[i][k] * g[k] for k in range(n)) % M == 0 for i in range(n)
            )


def test_in_span_mod():
    gens = [[2, 0], [0, 4]]
    assert in_span_mod(gens, [4, 4], 8)
    assert not in_span_mod(gens, [1, 0], 8)
    assert in_span_mod([], [0, 0], 8)
    assert not in_span_mod([], [2, 0], 8)


def test_solve_rational():
    A = [[1, 2], [3, 4], [4, 6]]
    b = [5, 11, 16]
    x, consistent, unique = solve_rational(A, b)
    assert consistent and unique
    assert [A[i][0] * x[0] + A[i][1] * x[1] for i in range(3)] == b
    _, consistent, _ = solve_rational([[1, 1], [1, 1]], [0, 1])
    assert not consistent


def lmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_laurent_divide():
    den = {-1: 1, 0: 2, 2: -1}
    quo = {-3: 4, 0: -1, 1: 5}
    assert laurent_divide(lmul(den, quo), den) == quo
    assert laurent_divide({}, den) == {}
    # x + 1 over 2x + 2: the quotient 1/2 is not integral
    assert laurent_divide({0: 1, 1: 1}, {0: 2, 1: 2}) is None
    # the dividend is narrower than the divisor: empty degree range
    assert laurent_divide({0: 1}, {-1: 1, 1: 1}) is None
    # a remainder is left
    assert laurent_divide({0: 1, 2: 1}, {0: 1, 1: 1}) is None


def test_bareiss_adjugate_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        P = [[{e: rng.randint(-2, 2) for e in rng.sample(range(-2, 3), rng.randint(0, 2))}
              for _ in range(n)] for _ in range(n)]
        P = [[{e: c for e, c in x.items() if c} for x in row] for row in P]
        try:
            d, adj = bareiss_adjugate(P)
        except ValueError:
            continue
        for left, right in ((adj, P), (P, adj)):
            for i in range(n):
                for j in range(n):
                    acc = {}
                    for k in range(n):
                        for e, c in lmul(left[i][k], right[k][j]).items():
                            acc[e] = acc.get(e, 0) + c
                    acc = {e: c for e, c in acc.items() if c}
                    assert acc == (d if i == j else {})


def test_bareiss_determinant_of_integer_matrices():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        want = det(A)
        P = [[{0: a} if a else {} for a in row] for row in A]
        if want == 0:
            with pytest.raises(ValueError):
                bareiss_adjugate(P)
            continue
        d, _ = bareiss_adjugate(P)
        assert d == {0: want}
