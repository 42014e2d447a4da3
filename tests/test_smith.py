import random

import pytest

from shiftedq.smith import (
    bareiss_adjugate,
    laurent_divide,
    solve_rational,
)


def det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    return sum(
        (-1) ** j * A[0][j] * det([row[:j] + row[j + 1:] for row in A[1:]])
        for j in range(n)
    )


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
