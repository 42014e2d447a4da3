import pytest

from shiftedq.cartan import (
    CartanData,
    CartanError,
    a_in_y,
    a_in_y_table,
    build_cartan,
    factor_solver,
    invert_quantum_cartan,
    quantum_cartan,
    quantum_cartan_matrix,
)
from shiftedq.lweight import generator, y_monomial
from shiftedq.scalars import ExactScalar, ONE, qnum

ALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "E6", "E7", "E8", "F4", "G2"]


def test_rank_one():
    cd = build_cartan("A", 1)
    assert cd.C == ((2,),)
    assert cd.r == (1,)
    assert cd.dual_coxeter == 2


def test_b2_lacing_data():
    cd = build_cartan("B2")
    assert cd.r == (2, 1)
    assert cd.c(1, 2) == -1 and cd.c(2, 1) == -2
    assert cd.b(1, 2) == -2


def test_a2_derived():
    cd = build_cartan("A2")
    assert cd.C == ((2, -1), (-1, 2))
    assert cd.bar(1) == 2 and cd.bar(2) == 1


@pytest.mark.parametrize("t", ALL_TYPES)
def test_invariants(t):
    cd = build_cartan(t)
    n = cd.n
    for i in range(n):
        assert cd.C[i][i] == 2
        for j in range(n):
            assert cd.B[i][j] == cd.B[j][i]
            if i != j:
                assert cd.C[i][j] in (0, -1, -2, -3)
    # bar involution fixes the diagram
    for i in cd.nodes():
        assert cd.bar(cd.bar(i)) == i
        for j in cd.nodes():
            assert cd.c(cd.bar(i), cd.bar(j)) == cd.c(i, j)


def test_unsupported_rejected():
    with pytest.raises(CartanError):
        build_cartan("E", 9)
    with pytest.raises(CartanError):
        build_cartan("H3")
    with pytest.raises(CartanError):
        build_cartan("D", 3)
    for label in ("", "  ", "B"):
        with pytest.raises(CartanError):
            build_cartan(label)


def test_quantum_cartan_entries():
    a1 = build_cartan("A1")
    assert quantum_cartan(a1, 1, 1) == ExactScalar.q_power(1) + ExactScalar.q_power(-1)
    b2 = build_cartan("B2")
    assert quantum_cartan(b2, 1, 1) == ExactScalar.q_power(2) + ExactScalar.q_power(-2)
    assert quantum_cartan(b2, 1, 2) == ExactScalar.from_int(-1)
    assert quantum_cartan(b2, 2, 1) == -qnum(2)


@pytest.mark.parametrize(
    "t", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "E6", "E7", "E8", "G2", "F4"]
)
def test_quantum_cartan_inverse(t):
    cd = build_cartan(t)
    C = quantum_cartan_matrix(cd)
    Ct = invert_quantum_cartan(cd)
    n = cd.n
    zero = ExactScalar.from_int(0)
    for i in range(n):
        for j in range(n):
            s = zero
            for k in range(n):
                s = s + C[i][k] * Ct[k][j]
            assert s == (ONE if i == j else zero)


@pytest.mark.parametrize("t", ALL_TYPES)
def test_a_in_y_is_the_a_generator(t):
    # Frenkel-Reshetikhin's A_i in Y-variables and the A pattern are two
    # definitions of one l-weight; == compares them as l-weights, since the
    # insertion orders of their exps differ
    cd = build_cartan(t)
    for i in cd.nodes():
        assert y_monomial(cd, sorted(a_in_y(cd, i).items())) == generator(cd, "A", i, 0)


@pytest.mark.parametrize("t", ALL_TYPES)
def test_a_in_y_offsets_within_r_i(t):
    # fm_expand's window starts at the lowest head shift: every Y-variable of
    # A_{i,q^s} sits at s + o with |o| <= r_i, and +-r_i only at node i
    cd = build_cartan(t)
    rows, cmax = a_in_y_table(cd)
    for i, (step, items) in zip(cd.nodes(), rows):
        assert step == 2 * cd.ri(i) and items == tuple(a_in_y(cd, i).items())
        for (j, o), e in items:
            assert abs(o) <= cd.ri(i) and (abs(o) < cd.ri(i) or j == i)
            assert abs(e) <= cmax
    assert cmax == 1


def test_tables_shared_per_type():
    # two objects of one type (build_cartan would return one cached object)
    b2, again = CartanData("B", 2), CartanData("B", 2)
    assert b2 is not again
    assert factor_solver(b2, "A") is factor_solver(again, "A")
    assert invert_quantum_cartan(b2) is invert_quantum_cartan(again)
    with pytest.raises(AttributeError):
        b2.cache = {}


def test_build_cartan_cached():
    # one object per label; a bad label is refused on every call, not cached
    assert build_cartan("E7") is build_cartan("E7")
    assert build_cartan("B", 2) is build_cartan("B", 2) == build_cartan("B2")
    for _ in range(2):
        for bad in ("Q3", "A", "B1x", "E9", "A0"):
            with pytest.raises(CartanError):
                build_cartan(bad)


def test_a2_inverse_denominator():
    # entries carry the [3]_q denominator
    ct = invert_quantum_cartan(build_cartan("A2"))
    e = ct[0][0].reduced()
    assert sorted(e.den) == [0, 4, 8]  # 1 + v^4 + v^8 = [3]_q up to v-shift


def test_in_K():
    cd = build_cartan("A1")
    from fractions import Fraction

    from shiftedq.scalars import ConstantFactor

    minus_one = ConstantFactor([Fraction(0)], [4])
    eye = ConstantFactor([Fraction(0)], [2])
    assert cd.in_K(minus_one)
    assert not cd.in_K(eye)
    assert cd.in_K(cd.const_one())
    assert not cd.in_K(ConstantFactor([Fraction(1)], [0]))
